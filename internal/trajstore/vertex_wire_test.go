package trajstore

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/rpc"
)

// fakeServer serves the wire by hand: answer turns each request frame's
// body into the reply frame's body. It returns its address and the number
// of connections and of requests it has seen.
func fakeServer(t *testing.T, answer func(req []byte) []byte) (addr string, seen func() (conns, reqs int)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { _ = ln.Close(); wg.Wait() })
	var nConns, nReqs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			nConns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				for {
					req, err := protocol.ReadFrameBody(conn, maxWireBytes)
					if err != nil {
						return
					}
					nReqs.Add(1)
					if err := protocol.WriteFrameBody(conn, answer(req), maxWireBytes); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() (int, int) { return int(nConns.Load()), int(nReqs.Load()) }
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := DialContext(context.Background(), addr, ClientConfig{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// logGoldenSHA256 is the sha256 of the 629-byte trajstore.log that
// TestAddVertexRecLogMatchesJSON's write sequence left at fe2ba63, whose
// add_batch carried JSON records (vertices with dense histograms) and
// whose AddVertexContext sent the event as its log record inside a JSON
// request.
const logGoldenSHA256 = "0f202dd0ab9d4327ffcb7e58acd440c9c24b0ca59d153fd5e404cb4350f2926c"

// TestAddVertexRecLogMatchesJSON writes a fixed sequence through Client
// and BatchWriter — vertices, queued edges, an edge the store rejects and
// one mixed batch — to a persistent store, and checks that the binary wire
// writes the log, byte for byte, that the JSON wire wrote. The events vary
// the zone (UTC, east and west), the nanosecond, the bins (-0, none at all)
// and the ground-truth vehicle.
func TestAddVertexRecLogMatchesJSON(t *testing.T) {
	events := make([]protocol.DetectionEvent, 7)
	for i := range events {
		e := sightingEvent(fmt.Sprintf("cam%d#%d", i%3, i), fmt.Sprintf("cam%d", i%3), time.Duration(i)*time.Second+time.Duration(i)*time.Nanosecond, fmt.Sprintf("veh-%d", i%2))
		e.TrackID, e.Direction = int64(i), 2
		e.Histogram.Bins[7*i+1] = 0.25 * float64(i)
		e.Histogram.Bins[511] = math.Copysign(0, -1)
		events[i] = e
	}
	events[2].Timestamp = events[2].Timestamp.In(time.FixedZone("", 2*3600))
	events[4].Histogram.Bins = nil
	events[5].Timestamp = events[5].Timestamp.In(time.FixedZone("", -5*3600-30*60))

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := serveStore(t, s, ServerOptions{})
	ctx := context.Background()
	for i, e := range events[:4] {
		if id, err := c.AddVertexContext(ctx, e); err != nil || id != int64(i+1) {
			t.Fatalf("AddVertexContext %d = %d, %v", i, id, err)
		}
	}
	w := NewBatchWriter(c, BatchWriterConfig{})
	for i := int64(1); i < 4; i++ {
		if err := w.AddEdge(i, i+1, 0.1*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddEdge(1, 2, 0.5); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("duplicate edge: %v, want ErrEdgeExists", err)
	}
	ids, errs, err := c.AddBatchContext(ctx, []protocol.TrajWrite{
		protocol.VertexWrite(events[4]), protocol.EdgeWrite(4, 5, 0.45), protocol.VertexWrite(events[5]),
		protocol.EdgeWrite(5, 6, 0.3), protocol.VertexWrite(events[6]), protocol.EdgeWrite(2, 7, 0.7),
	})
	if err != nil || fmt.Sprint(ids) != "[5 0 6 0 7 0]" || fmt.Sprint(errs) != "[<nil> <nil> <nil> <nil> <nil> <nil>]" {
		t.Fatalf("batch = %v, %v, %v", ids, errs, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != logGoldenSHA256 {
		t.Errorf("log of %d bytes has sha256 %s, want %s", len(data), got, logGoldenSHA256)
	}
}

// TestAddVertexOnLegacyServerIsNotRetried: a server from before the binary
// wire answers the request it cannot read with a JSON "unknown op" error.
// Each AddVertexContext call goes once, as a one-vertex add_batch, and
// fails with ErrJSONWire: no second request in another op, and the calls
// share one connection.
func TestAddVertexOnLegacyServerIsNotRetried(t *testing.T) {
	var bodies [][]byte
	var mu sync.Mutex
	addr, seen := fakeServer(t, func(req []byte) []byte {
		mu.Lock()
		bodies = append(bodies, req)
		mu.Unlock()
		return []byte(`{"err":"unknown op"}`)
	})
	c := dialTest(t, addr)
	for i := 1; i <= 3; i++ {
		id, err := c.AddVertexContext(context.Background(), event(fmt.Sprintf("cam#%d", i)))
		if !errors.Is(err, ErrJSONWire) {
			t.Fatalf("AddVertexContext %d = %d, %v; want ErrJSONWire", i, id, err)
		}
		if conns, reqs := seen(); conns != 1 || reqs != i {
			t.Fatalf("after call %d: %d connections, %d requests; want 1 and %d", i, conns, reqs, i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, body := range bodies {
		r, err := decodeRequest(body)
		if err != nil || r.op != opAddBatch || len(r.batch) != 1 || r.batch[0].Event == nil {
			t.Errorf("request %d: %+v, %v; want one add_batch vertex record", i+1, r, err)
		}
	}
}

// TestVertexReplyWithoutVertexIsAnError: an answer of another kind than a
// vertex (here a stats answer) is an error for the caller, not a zero
// vertex.
func TestVertexReplyWithoutVertexIsAnError(t *testing.T) {
	stats := reply{kind: answerStats, nVerts: 1}
	body, err := stats.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := fakeServer(t, func([]byte) []byte { return body })
	c := dialTest(t, addr)
	if v, err := c.VertexContext(context.Background(), 1); err == nil {
		t.Errorf("VertexContext = %+v, nil error", v)
	}
	if v, err := c.FindByEventIDContext(context.Background(), "cam#1"); err == nil {
		t.Errorf("FindByEventIDContext = %+v, nil error", v)
	}
	if v, _, err := c.StatsContext(context.Background()); err != nil || v != 1 {
		t.Errorf("StatsContext = %d, %v", v, err)
	}
}

// TestUnencodableEventIsTerminalOnOneConnection: an event whose histogram
// holds NaN or ±Inf, or whose timestamp is in year 10000, reaches the
// server once and is refused there as a ServerError; nothing is stored,
// and the client's connection stays in use. Connections are counted by a
// proxy in front of the server.
func TestUnencodableEventIsTerminalOnOneConnection(t *testing.T) {
	store := NewMemStore()
	var batchRequests atomic.Int64
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{Interceptors: []rpc.Interceptor{
		func(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
			if req.Method == "add_batch" {
				batchRequests.Add(1)
			}
			return next(ctx, req)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, accepts := acceptCounter(t, srv.Addr())
	c := dialTest(t, addr)

	bad := []protocol.DetectionEvent{event("nan#1"), event("inf#1"), event("ninf#1"), event("y10k#1")}
	bad[0].Histogram.Bins[3] = math.NaN()
	bad[1].Histogram.Bins[3] = math.Inf(1)
	bad[2].Histogram.Bins[3] = math.Inf(-1)
	bad[3].Timestamp = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, e := range bad {
		var se *ServerError
		if _, err := c.AddVertexContext(context.Background(), e); !errors.As(err, &se) {
			t.Errorf("%s: error %v, want a ServerError", e.ID, err)
		}
	}
	if n := store.NumVertices(); n != 0 {
		t.Errorf("%d vertices stored from refused events", n)
	}
	if id, err := c.AddVertexContext(context.Background(), event("ok#1")); err != nil || id != 1 {
		t.Errorf("valid event after the refusals: %d, %v", id, err)
	}
	if n := batchRequests.Load(); n != int64(len(bad))+1 {
		t.Errorf("server saw %d add_batch requests, want %d (each event sent once)", n, len(bad)+1)
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("%d connections accepted, want 1 (a refusal keeps the connection)", n)
	}
}

// TestBatchRecordErrorsKeepTheirSentinel: over TCP, a batch record the
// store rejects comes back as a ServerError that errors.Is matches to the
// store's sentinel: a repeated edge to ErrEdgeExists, an edge to a missing
// vertex to ErrVertexNotFound.
func TestBatchRecordErrorsKeepTheirSentinel(t *testing.T) {
	s, ids := buildGraph(t)
	c := serveStore(t, s, ServerOptions{})
	_, errs, err := c.AddBatchContext(context.Background(), []protocol.TrajWrite{
		protocol.EdgeWrite(ids[0], ids[1], 0.1), protocol.EdgeWrite(ids[0], 99, 0.1), protocol.EdgeWrite(ids[1], ids[0], 0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var se *ServerError
	if !errors.Is(errs[0], ErrEdgeExists) || !errors.As(errs[0], &se) || se.Code != codeEdgeExists {
		t.Errorf("repeated edge: %v, want an %s ServerError", errs[0], codeEdgeExists)
	}
	if !errors.Is(errs[1], ErrVertexNotFound) {
		t.Errorf("edge to a missing vertex: %v, want ErrVertexNotFound", errs[1])
	}
	if errs[2] != nil {
		t.Errorf("new edge: %v", errs[2])
	}
}
