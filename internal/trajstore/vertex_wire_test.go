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
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/rpc"
)

// fakeServer serves the wire protocol by hand on one connection: it
// answers each request frame with answer's reply and records the ops in
// the order they arrived.
func fakeServer(t *testing.T, answer func(req map[string]any) map[string]any) (addr string, ops func() []string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var mu sync.Mutex
	var seen []string
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
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
			mu.Lock()
			seen = append(seen, fmt.Sprint(req["op"]))
			mu.Unlock()
			data, _ := json.Marshal(answer(req))
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
			if _, err := conn.Write(append(lenBuf[:], data...)); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
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

// TestAddVertexRecLogMatchesJSON writes the same events to one persistent
// store through JSON add_vertex frames (as an old client does) and to
// another through the client's add_vertex_rec: the two logs are
// byte-identical and both servers answer get_vertex and best alike.
func TestAddVertexRecLogMatchesJSON(t *testing.T) {
	events := make([]protocol.DetectionEvent, 6)
	for i := range events {
		e := sightingEvent(fmt.Sprintf("cam%d#%d", i%3, i), fmt.Sprintf("cam%d", i%3), time.Duration(i)*time.Second+time.Duration(i)*time.Nanosecond, "veh-1")
		e.TrackID, e.Direction = int64(i), 2
		e.Histogram.Bins[7*i+1] = 0.25 * float64(i)
		e.Histogram.Bins[511] = math.Copysign(0, -1)
		events[i] = e
	}
	events[2].Timestamp = events[2].Timestamp.In(time.FixedZone("", 2*3600))
	events[4].Histogram.Bins = nil

	dirs := [2]string{t.TempDir(), t.TempDir()}
	var clients [2]*Client
	for side, dir := range dirs {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		clients[side] = serveStore(t, s, ServerOptions{})
	}

	conn, err := net.DialTimeout("tcp", clients[0].cc.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, e := range events {
		var evMap map[string]any
		if err := json.Unmarshal(mustJSON(t, e), &evMap); err != nil {
			t.Fatal(err)
		}
		if resp := rawCall(t, conn, map[string]any{"op": "add_vertex", "event": evMap}); resp["vertexId"] != float64(i+1) {
			t.Fatalf("add_vertex %d: %v", i, resp)
		}
		if id, err := clients[1].AddVertexContext(context.Background(), e); err != nil || id != int64(i+1) {
			t.Fatalf("AddVertexContext %d = %d, %v", i, id, err)
		}
	}
	for _, c := range clients {
		for i := 1; i < len(events); i++ {
			if err := c.AddEdgeContext(context.Background(), int64(i), int64(i+1), 0.1*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i, e := range events {
		var answers [2][]byte
		for side, c := range clients {
			v, err := c.VertexContext(context.Background(), int64(i+1))
			if err != nil {
				t.Fatal(err)
			}
			best, err := c.BestContext(context.Background(), e.ID, DefaultTraceLimits())
			if err != nil {
				t.Fatal(err)
			}
			answers[side] = mustJSON(t, []any{v, best})
		}
		if !bytes.Equal(answers[0], answers[1]) {
			t.Errorf("vertex %d: JSON side answers %s, record side %s", i+1, answers[0], answers[1])
		}
	}
	var logs [2][]byte
	for side, dir := range dirs {
		if logs[side], err = os.ReadFile(filepath.Join(dir, walFileName)); err != nil {
			t.Fatal(err)
		}
	}
	if len(logs[0]) == 0 || !bytes.Equal(logs[0], logs[1]) {
		t.Errorf("logs differ: %d bytes through add_vertex, %d through add_vertex_rec", len(logs[0]), len(logs[1]))
	}
}

// TestAddVertexFallsBackToJSONOnLegacyServer: a server that answers
// add_vertex_rec as an unknown op gets it once; the rejected call and
// every later one go as add_vertex.
func TestAddVertexFallsBackToJSONOnLegacyServer(t *testing.T) {
	var nextID float64
	addr, ops := fakeServer(t, func(req map[string]any) map[string]any {
		if req["op"] == "add_vertex" && req["event"] != nil {
			nextID++
			return map[string]any{"ok": true, "vertexId": nextID}
		}
		return map[string]any{"err": fmt.Sprintf("unknown op %v", req["op"])}
	})
	c := dialTest(t, addr)
	for want := int64(1); want <= 3; want++ {
		if id, err := c.AddVertexContext(context.Background(), event(fmt.Sprintf("cam#%d", want))); err != nil || id != want {
			t.Fatalf("AddVertexContext = %d, %v; want %d", id, err, want)
		}
	}
	want := []string{"add_vertex_rec", "add_vertex", "add_vertex", "add_vertex"}
	if got := ops(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("requests %v, want %v", got, want)
	}
}

// TestVertexReplyWithoutVertexIsAnError: a reply that says ok but
// carries no vertex is an error for the caller, not a nil dereference.
func TestVertexReplyWithoutVertexIsAnError(t *testing.T) {
	addr, _ := fakeServer(t, func(map[string]any) map[string]any { return map[string]any{"ok": true} })
	c := dialTest(t, addr)
	if v, err := c.VertexContext(context.Background(), 1); err == nil {
		t.Errorf("VertexContext = %+v, nil error", v)
	}
	if v, err := c.FindByEventIDContext(context.Background(), "cam#1"); err == nil {
		t.Errorf("FindByEventIDContext = %+v, nil error", v)
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestUnencodableEventIsTerminalOnOneConnection: an event whose histogram
// holds NaN or ±Inf, or whose timestamp is in year 10000, reaches the
// server once and is refused there as a ServerError; nothing is stored,
// and the client's connection stays in use. Connections are counted by a
// listener proxying to the server.
func TestUnencodableEventIsTerminalOnOneConnection(t *testing.T) {
	store := NewMemStore()
	var recRequests atomic.Int64
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{Interceptors: []rpc.Interceptor{
		func(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
			if req.Method == opAddVertexRec {
				recRequests.Add(1)
			}
			return next(ctx, req)
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	defer ln.Close()
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				_ = down.Close()
				continue
			}
			go func() { _, _ = io.Copy(up, down); _ = up.Close() }()
			go func() { _, _ = io.Copy(down, up); _ = down.Close() }()
		}
	}()
	c := dialTest(t, ln.Addr().String())

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
	if n := recRequests.Load(); n != int64(len(bad))+1 {
		t.Errorf("server saw %d add_vertex_rec requests, want %d (each event sent once)", n, len(bad)+1)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Errorf("%d connections accepted, want 1 (a refusal keeps the connection)", n)
	}
}
