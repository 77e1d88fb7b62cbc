package trajstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// ladderStore builds a source vertex and then layers of two vertices, each
// linked to both vertices of the next layer, so the source starts
// 2^layers tracks. Every sighting is at a camera with a long name.
func ladderStore(t *testing.T, layers int) (*Store, protocol.EventID) {
	t.Helper()
	s := NewMemStore()
	camera := strings.Repeat("c", 100)
	add := func(n int) int64 {
		id, err := s.AddVertex(sightingEvent(fmt.Sprintf("%s#%d", camera, n), camera, time.Duration(n)*time.Second, ""))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	prev := []int64{add(0)}
	for l := 0; l < layers; l++ {
		next := []int64{add(2*l + 1), add(2*l + 2)}
		for _, from := range prev {
			for _, to := range next {
				if err := s.AddEdge(from, to, 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
		prev = next
	}
	return s, protocol.EventID(camera + "#0")
}

// acceptCounter forwards every connection it accepts to target and counts
// them.
func acceptCounter(t *testing.T, target string) (addr string, accepts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int32)
	var wg sync.WaitGroup
	t.Cleanup(func() { _ = ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			out, err := net.Dial("tcp", target)
			if err != nil {
				_ = in.Close()
				continue
			}
			for _, p := range [][2]net.Conn{{in, out}, {out, in}} {
				wg.Add(1)
				go func(dst, src net.Conn) {
					defer wg.Done()
					_, _ = io.Copy(dst, src)
					_ = dst.Close()
					_ = src.Close()
				}(p[0], p[1])
			}
		}
	}()
	return ln.Addr().String(), accepts
}

// TestAnswerTooLargeFailsOnceAndKeepsTheConnection reconstructs 2^13
// tracks of 14 hops, an answer above maxWireBytes. The call fails with
// ErrAnswerTooLarge, the query ran once (no retry on a dropped
// connection), and the next call reuses the connection.
func TestAnswerTooLargeFailsOnceAndKeepsTheConnection(t *testing.T) {
	s, start := ladderStore(t, 13)
	limits := TraceLimits{MaxDepth: 64, MaxPaths: 1 << 20}
	tracks, err := FindTracks(s.Snapshot(), start, limits)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := (&reply{kind: answerTracks, tracks: tracks}).appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) <= maxWireBytes {
		t.Fatalf("answer is %d bytes, not above %d", len(bin), maxWireBytes)
	}

	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, accepts := acceptCounter(t, srv.Addr())
	client, err := DialContext(context.Background(), addr, ClientConfig{CallTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, err = client.ReconstructContext(context.Background(), start, limits)
	var se *ServerError
	if !errors.Is(err, ErrAnswerTooLarge) || !errors.As(err, &se) || se.Code != codeTooLarge {
		t.Fatalf("oversized answer: err = %v, want a %s ServerError", err, codeTooLarge)
	}
	if st := srv.QueryStats(); st.CacheHits+st.CacheMisses != 1 {
		t.Errorf("query served %d times (%+v), want once", st.CacheHits+st.CacheMisses, st)
	}
	if v, _, err := client.StatsContext(context.Background()); err != nil || v != s.NumVertices() {
		t.Fatalf("stats after the refusal: %d vertices, %v", v, err)
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("%d connections accepted, want the one the refusal left open", n)
	}
}

// TestNewClientLegacyJSONAnswers runs the client's query calls against a
// server that answers them in JSON, as a server from before binary
// answers did: each fails with ErrJSONWire after one request, without a
// retry, and the connection stays in use.
func TestNewClientLegacyJSONAnswers(t *testing.T) {
	addr, seen := fakeServer(t, func([]byte) []byte { return []byte(`{"ok":true,"hops":[{"vertexId":1}]}`) })
	client, err := DialContext(context.Background(), addr, ClientConfig{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	limits := DefaultTraceLimits()
	if _, err := client.BestContext(ctx, "camA#1", limits); !errors.Is(err, ErrJSONWire) {
		t.Errorf("best: %v, want ErrJSONWire", err)
	}
	if _, err := client.ReconstructVertexContext(ctx, 1, limits); !errors.Is(err, ErrJSONWire) {
		t.Errorf("reconstruct: %v, want ErrJSONWire", err)
	}
	if _, err := client.SightingsContext(ctx, "veh-1", 0); !errors.Is(err, ErrJSONWire) {
		t.Errorf("sightings: %v, want ErrJSONWire", err)
	}
	if conns, reqs := seen(); conns != 1 || reqs != 3 {
		t.Errorf("%d connections, %d requests; want 1 and 3", conns, reqs)
	}
}

// TestEmptyBinaryAnswersAreNil checks that a binary answer with no tracks
// or hops decodes to nil, as the JSON response's omitted field does, both
// from the codec and from a live server.
func TestEmptyBinaryAnswersAreNil(t *testing.T) {
	for _, a := range []reply{
		{kind: answerTracks, tracks: []Track{}},
		{kind: answerTracks, tracks: []Track{{Hops: []Hop{}}}},
		{kind: answerHops, hops: []Hop{}},
	} {
		data, err := a.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeReply(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.hops != nil || (len(got.tracks) == 0 && got.tracks != nil) || (len(got.tracks) == 1 && got.tracks[0].Hops != nil) {
			t.Errorf("%x decodes to %#v, want nil lists", data, got)
		}
	}

	s, _ := buildGraph(t)
	client := serveStore(t, s, ServerOptions{})
	if hops, err := client.SightingsContext(context.Background(), "nobody", 0); err != nil || hops != nil {
		t.Errorf("empty binary sightings = %#v, %v; want nil", hops, err)
	}
}

// TestUnencodableTimestampRefusedByBothStores: a zone offset
// time.MarshalBinary refuses (-00:01) is refused by the memory store as
// by the persistent store, whose log could not hold it. (A client cannot
// send one: its request does not encode.)
func TestUnencodableTimestampRefusedByBothStores(t *testing.T) {
	e := sightingEvent("camZ#1", "camZ", 30*time.Second, "veh-9")
	e.Timestamp = e.Timestamp.In(time.FixedZone("", -60))
	if _, err := e.Timestamp.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary took a -00:01 offset")
	}
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = disk.Close() }()
	for name, s := range map[string]*Store{"memory": NewMemStore(), "persistent": disk} {
		if _, err := s.AddVertex(e); err == nil {
			t.Errorf("%s store took a -00:01 timestamp", name)
		}
		if n := s.NumVertices(); n != 0 {
			t.Errorf("%s store holds %d vertices", name, n)
		}
	}
}

// TestOddZoneHopTimesReachTheClient: a sighting at a zone offset with
// negative seconds, which the stores take and keep, reaches a remote
// caller in every hop answer, at the same instant.
func TestOddZoneHopTimesReachTheClient(t *testing.T) {
	zone := time.FixedZone("", -3661)
	s := NewMemStore()
	var prev int64
	for i, cam := range []string{"camA", "camB", "camC"} {
		e := sightingEvent(cam+"#1", cam, time.Duration(i)*10*time.Second, "veh-9")
		e.Timestamp = e.Timestamp.In(zone)
		id, err := s.AddVertex(e)
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 {
			if err := s.AddEdge(prev, id, 0.1); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	client := serveStore(t, s, ServerOptions{})
	ctx := context.Background()
	check := func(op string, hops []Hop, err error) {
		t.Helper()
		if err != nil || len(hops) != 3 {
			t.Fatalf("%s: %d hops, %v; want 3", op, len(hops), err)
		}
		for i, h := range hops {
			if want := trackEpoch.Add(time.Duration(i) * 10 * time.Second); !h.Time.Equal(want) {
				t.Errorf("%s hop %d at %v, want %v", op, i, h.Time, want)
			}
		}
	}
	hops, err := client.SightingsContext(ctx, "veh-9", 0)
	check("sightings", hops, err)
	best, err := client.BestContext(ctx, "camA#1", DefaultTraceLimits())
	check("best", best.Hops, err)
	tracks, err := client.ReconstructContext(ctx, "camA#1", DefaultTraceLimits())
	if err != nil || len(tracks) != 1 {
		t.Fatalf("reconstruct: %d tracks, %v; want 1", len(tracks), err)
	}
	check("reconstruct", tracks[0].Hops, err)
}

// TestResponseDecodeFirstByte checks the client's reply rule: answerV1 is
// a binary answer, '{' a JSON response, which fails with ErrJSONWire, and
// anything else an error.
func TestResponseDecodeFirstByte(t *testing.T) {
	hops, err := (&reply{kind: answerHops, hops: []Hop{{VertexID: 1, Camera: "camA", Time: trackEpoch}}}).appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		body []byte
		ok   bool
		json bool
	}{
		{hops, true, false},
		{[]byte(`{"ok":true,"hops":[{"vertexId":1}]}`), false, true},
		{[]byte(`{"ok":true,"vertices":2}`), false, true},
		{append([]byte{}, hops[:len(hops)-1]...), false, false},
		{append(append([]byte{}, hops...), 0), false, false},
		{[]byte{answerV1, 0x7f}, false, false},
		{[]byte(" {}"), false, false},
		{nil, false, false},
	} {
		_, err := decodeReply(c.body)
		if (err == nil) != c.ok || errors.Is(err, ErrJSONWire) != c.json {
			t.Errorf("%q: err = %v, want ok %v, ErrJSONWire %v", c.body, err, c.ok, c.json)
		}
	}
}

// TestEveryAnswerKindRoundTrips encodes one answer of each kind and
// decodes it back to an equal one, so each kind's layout has one reader
// and one writer that agree.
func TestEveryAnswerKindRoundTrips(t *testing.T) {
	s, _ := buildGraph(t)
	snap := s.Snapshot()
	v, _ := snap.Vertex(2)
	tracks, _ := FindTracks(snap, "camA#1", DefaultTraceLimits())
	for _, a := range []reply{
		{kind: answerTracks, tracks: tracks},
		{kind: answerHops, hops: snap.Sightings("veh-1", 0)},
		{kind: answerError, err: &ServerError{Code: codeNotFound, Msg: "vertex not found: 9"}},
		{kind: answerVertex, vertex: v},
		{kind: answerEdges, edges: s.OutEdges(1)},
		{kind: answerStats, nVerts: 4, nEdges: 3},
		{kind: answerBatch, ids: []int64{5, 0, 0}, errs: []error{nil, &ServerError{Code: codeEdgeExists, Msg: "edge already exists: 1->2"}, nil}},
	} {
		data, err := a.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeReply(data)
		if err != nil {
			t.Fatalf("kind 0x%02x: %v", a.kind, err)
		}
		again, err := got.appendTo(nil)
		if err != nil || !bytes.Equal(again, data) || !bytes.Equal(mustJSON(t, got.vertex), mustJSON(t, a.vertex)) ||
			!bytes.Equal(mustJSON(t, []any{got.tracks, got.hops, got.edges, got.ids}), mustJSON(t, []any{a.tracks, a.hops, a.edges, a.ids})) {
			t.Errorf("kind 0x%02x: decoded %+v, want %+v", a.kind, got, a)
		}
	}
}

// FuzzDecodeAnswer feeds arbitrary bytes to the client's answer decoder.
// It may not panic or allocate more than a small multiple of the input,
// and whatever decodes must re-encode to the same bytes: times decode
// through protocol.UnmarshalTime, which takes only MarshalBinary's own
// form. The checked-in corpus holds a tracks answer, a hops answer, an
// empty answer, a truncated one, one answer of each other kind, answers
// whose times are at offsets with negative seconds, and a vertex answer
// whose timestamp is in a version-2 form MarshalBinary never writes.
func FuzzDecodeAnswer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The heap counters are the process's: the least of three decodes
		// leaves out what other goroutines allocated meanwhile.
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = decodeReply(data)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > 4096+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		a, err := decodeReply(data)
		if err != nil {
			return
		}
		again, err := a.appendTo(nil)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", a, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoded to\n%x\nfrom\n%x", again, data)
		}
	})
}
