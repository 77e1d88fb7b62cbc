package trajstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
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
// tracks of 14 hops, an answer above maxWireBytes as a binary answer and
// as JSON. The call fails with ErrAnswerTooLarge, the query ran once (no
// retry on a dropped connection), and the next call reuses the
// connection.
func TestAnswerTooLargeFailsOnceAndKeepsTheConnection(t *testing.T) {
	s, start := ladderStore(t, 13)
	limits := TraceLimits{MaxDepth: 64, MaxPaths: 1 << 20}
	tracks, err := FindTracks(s.Snapshot(), start, limits)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := (&binAnswer{kind: answerTracks, tracks: tracks}).appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if js := mustJSON(t, response{OK: true, Tracks: tracks}); len(bin) <= maxWireBytes || len(js) <= maxWireBytes {
		t.Fatalf("answer is %d bytes binary, %d JSON: not both above %d", len(bin), len(js), maxWireBytes)
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

// legacyQueryServer is a hand-rolled server that answers best,
// reconstruct and sightings in JSON from the local engine, as a server
// that predates binary answers does, and records whether each request
// asked for a binary answer. It answers stats with a binary answer body,
// which no request without bin may accept.
func legacyQueryServer(t *testing.T, s *Store) (addr string, askedBin *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	askedBin = new(atomic.Int32)
	snap := s.Snapshot()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					var lenBuf [4]byte
					if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
						return
					}
					buf := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
					if _, err := io.ReadFull(conn, buf); err != nil {
						return
					}
					var req map[string]any
					if err := json.Unmarshal(buf, &req); err != nil {
						return
					}
					if req["bin"] == true {
						askedBin.Add(1)
					}
					limits := DefaultTraceLimits()
					resp := map[string]any{"ok": true}
					switch req["op"] {
					case "best":
						track, err := BestTrack(snap, protocol.EventID(req["eventId"].(string)), limits)
						if err != nil {
							t.Error(err)
							return
						}
						resp["track"] = track
					case "reconstruct":
						tracks, _ := FindTracks(snap, protocol.EventID(req["eventId"].(string)), limits)
						if len(tracks) > 0 {
							resp["tracks"] = tracks
						}
					case "sightings":
						if hops := snap.Sightings(req["vehicleId"].(string), 0); len(hops) > 0 {
							resp["hops"] = hops
						}
					default:
						resp = nil
					}
					data, _ := json.Marshal(resp)
					if resp == nil {
						data = []byte{answerV1, answerHops, 0}
					}
					frame := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
					if _, err := conn.Write(append(frame, data...)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), askedBin
}

// TestNewClientLegacyJSONAnswers runs the client's three query calls
// against a server that ignores bin and answers in JSON: they ask for a
// binary answer, read the JSON one, and decode what the local engine
// computes. An empty answer is nil, and a binary body that answers a
// request without bin is an error.
func TestNewClientLegacyJSONAnswers(t *testing.T) {
	s, _ := buildGraph(t)
	addr, askedBin := legacyQueryServer(t, s)
	client, err := DialContext(context.Background(), addr, ClientConfig{CallTimeout: 2 * time.Second, RetryBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	limits := DefaultTraceLimits()
	snap := s.Snapshot()

	wantBest, _ := BestTrack(snap, "camA#1", limits)
	best, err := client.BestContext(ctx, "camA#1", limits)
	if err != nil || !bytes.Equal(mustJSON(t, best), mustJSON(t, wantBest)) {
		t.Errorf("best = %s, %v; want %s", mustJSON(t, best), err, mustJSON(t, wantBest))
	}
	wantTracks, _ := FindTracks(snap, "camB#1", limits)
	tracks, err := client.ReconstructContext(ctx, "camB#1", limits)
	if err != nil || !bytes.Equal(mustJSON(t, tracks), mustJSON(t, wantTracks)) {
		t.Errorf("reconstruct = %s, %v; want %s", mustJSON(t, tracks), err, mustJSON(t, wantTracks))
	}
	wantHops := snap.Sightings("veh-1", 0)
	hops, err := client.SightingsContext(ctx, "veh-1", 0)
	if err != nil || !bytes.Equal(mustJSON(t, hops), mustJSON(t, wantHops)) {
		t.Errorf("sightings = %s, %v; want %s", mustJSON(t, hops), err, mustJSON(t, wantHops))
	}
	if n := askedBin.Load(); n != 3 {
		t.Errorf("%d of 3 queries asked for a binary answer", n)
	}

	if tracks, err := client.ReconstructContext(ctx, "nope#1", limits); err != nil || tracks != nil {
		t.Errorf("empty JSON reconstruct = %#v, %v; want nil", tracks, err)
	}
	if hops, err := client.SightingsContext(ctx, "nobody", 0); err != nil || hops != nil {
		t.Errorf("empty JSON sightings = %#v, %v; want nil", hops, err)
	}
	if _, _, err := client.StatsContext(ctx); err == nil || !strings.Contains(err.Error(), "undecodable stats reply") {
		t.Errorf("binary body answering stats: err = %v, want an undecodable reply", err)
	}
}

// TestEmptyBinaryAnswersAreNil checks that a binary answer with no tracks
// or hops decodes to nil, as the JSON response's omitted field does, both
// from the codec and from a live server.
func TestEmptyBinaryAnswersAreNil(t *testing.T) {
	for _, a := range []binAnswer{
		{kind: answerTracks, tracks: []Track{}},
		{kind: answerTracks, tracks: []Track{{Hops: []Hop{}}}},
		{kind: answerHops, hops: []Hop{}},
	} {
		data, err := a.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeAnswer(data)
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

// TestUnencodableHopTimeAnswersInJSON stores, in memory, a sighting whose
// zone offset (-00:01) time.MarshalBinary refuses: the answer holding it
// goes out as JSON, and the client still reads the local walk's answer.
func TestUnencodableHopTimeAnswersInJSON(t *testing.T) {
	s, _ := buildGraph(t)
	e := sightingEvent("camZ#1", "camZ", 30*time.Second, "veh-9")
	e.Timestamp = e.Timestamp.In(time.FixedZone("", -60))
	if _, err := e.Timestamp.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary took a -00:01 offset")
	}
	if _, err := s.AddVertex(e); err != nil {
		t.Fatal(err)
	}
	client := serveStore(t, s, ServerOptions{})
	want := s.Snapshot().Sightings("veh-9", 0)
	got, err := client.SightingsContext(context.Background(), "veh-9", 0)
	if err != nil || !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Errorf("sightings = %s, %v; want %s", mustJSON(t, got), err, mustJSON(t, want))
	}
}

// TestResponseDecodeFirstByte checks the client's reply rule: '{' is a
// JSON response, answerV1 a binary answer only for a request that asked
// for one, and anything else an error.
func TestResponseDecodeFirstByte(t *testing.T) {
	hops, err := (&binAnswer{kind: answerHops, hops: []Hop{{VertexID: 1, Camera: "camA", Time: trackEpoch}}}).appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		body []byte
		req  request
		ok   bool
	}{
		{[]byte(`{"ok":true,"hops":[{"vertexId":1}]}`), request{Op: opSightings, Bin: true}, true},
		{[]byte(`{"ok":true,"vertices":2}`), request{Op: opStats}, true},
		{hops, request{Op: opSightings, Bin: true}, true},
		{hops, request{Op: opSightings}, false},
		{hops, request{Op: opBest, Bin: true}, false}, // hops do not answer best
		{append([]byte{}, hops[:len(hops)-1]...), request{Op: opSightings, Bin: true}, false},
		{[]byte(" {}"), request{Op: opSightings, Bin: true}, false},
		{nil, request{Op: opSightings, Bin: true}, false},
	} {
		var r response
		if err := r.decode(c.body, &c.req); (err == nil) != c.ok {
			t.Errorf("%q for %+v: err = %v, want ok %v", c.body, c.req, err, c.ok)
		}
	}
}

// FuzzDecodeAnswer feeds arbitrary bytes to the client's binary answer
// decoder. It may not panic or allocate more than a small multiple of the
// input, and whatever decodes must re-encode to the same bytes. The
// checked-in corpus holds a tracks answer, a hops answer, an empty answer
// and a truncated one.
func FuzzDecodeAnswer(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The heap counters are the process's: the least of three decodes
		// leaves out what other goroutines allocated meanwhile.
		alloc := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = decodeAnswer(data)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > 4096+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		a, err := decodeAnswer(data)
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
