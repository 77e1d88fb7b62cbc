package trajstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// rawCall speaks the wire protocol by hand — 4-byte big-endian length
// prefix plus a JSON object built from a plain map, with no help from
// this package's request/response types — standing in for a client
// built against the pre-rpc-layer protocol.
func rawCall(t *testing.T, conn net.Conn, req map[string]any) map[string]any {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var resp map[string]any
	if err := json.Unmarshal(rawFrame(t, conn, data), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// untypedJSON encodes v as rawCall's decoded answers re-encode: through a
// plain map, so object keys come out sorted.
func untypedJSON(t *testing.T, v any) []byte {
	t.Helper()
	var plain any
	if err := json.Unmarshal(mustJSON(t, v), &plain); err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, plain)
}

// TestWireCompatOldClientNewServer verifies the rpc-layer server still
// speaks the original length-prefixed-JSON protocol: a hand-rolled
// legacy client can write vertices and edges, read stats, and walk the
// graph over the per-vertex ops. The retired trajectory and in_edges ops
// are rejected as an unknown op is.
func TestWireCompatOldClientNewServer(t *testing.T) {
	store := NewMemStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ev := event("cam#1")
	evJSON, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var evMap map[string]any
	if err := json.Unmarshal(evJSON, &evMap); err != nil {
		t.Fatal(err)
	}
	resp := rawCall(t, conn, map[string]any{"op": "add_vertex", "event": evMap})
	if resp["ok"] != true {
		t.Fatalf("add_vertex response: %v", resp)
	}
	if resp["vertexId"] != float64(1) {
		t.Fatalf("vertexId = %v, want 1", resp["vertexId"])
	}

	ev2 := event("cam#2")
	ev2JSON, _ := json.Marshal(ev2)
	var ev2Map map[string]any
	_ = json.Unmarshal(ev2JSON, &ev2Map)
	if resp := rawCall(t, conn, map[string]any{"op": "add_vertex", "event": ev2Map}); resp["ok"] != true {
		t.Fatalf("second add_vertex: %v", resp)
	}
	if resp := rawCall(t, conn, map[string]any{"op": "add_edge", "from": 1, "to": 2, "weight": 0.5}); resp["ok"] != true {
		t.Fatalf("add_edge: %v", resp)
	}

	resp = rawCall(t, conn, map[string]any{"op": "stats"})
	if resp["ok"] != true || resp["vertices"] != float64(2) || resp["edges"] != float64(1) {
		t.Fatalf("stats: %v", resp)
	}

	// The per-vertex read ops — the ones a client walking the graph itself
	// calls — answer as the local snapshot does.
	snap := store.Snapshot()
	v1, _ := snap.Vertex(1)
	v2, _ := snap.Vertex(2)
	out1, _ := snap.OutEdges(1)
	for _, c := range []struct {
		req   map[string]any
		field string
		want  any
	}{
		{map[string]any{"op": "get_vertex", "id": 1}, "vertex", v1},
		{map[string]any{"op": "find_by_event", "eventId": "cam#2"}, "vertex", v2},
		{map[string]any{"op": "out_edges", "id": 1}, "edgeList", out1},
	} {
		resp := rawCall(t, conn, c.req)
		if resp["ok"] != true {
			t.Fatalf("%v: %v", c.req["op"], resp)
		}
		if got, want := mustJSON(t, resp[c.field]), untypedJSON(t, c.want); !bytes.Equal(got, want) {
			t.Errorf("%v: %s = %s, want %s", c.req["op"], c.field, got, want)
		}
	}

	// A server-side rejection travels as an err field in a well-formed
	// frame, not a dropped connection, and the connection survives it.
	// The retired ops get exactly the unknown op's answer.
	for _, req := range []map[string]any{
		{"op": "no_such_op"},
		{"op": "in_edges", "id": 2},
		{"op": "trajectory", "id": 1},
	} {
		resp := rawCall(t, conn, req)
		want := map[string]any{"ok": false, "err": fmt.Sprintf("unknown op %q", req["op"])}
		if got := mustJSON(t, resp); !bytes.Equal(got, mustJSON(t, want)) {
			t.Fatalf("%v: response %s, want %s", req["op"], got, mustJSON(t, want))
		}
		if resp := rawCall(t, conn, map[string]any{"op": "stats"}); resp["ok"] != true {
			t.Fatalf("stats after rejecting %v: %v", req["op"], resp)
		}
	}
}

// TestWireCompatNewClientOldServer runs the rpc-layer client against a
// hand-rolled single-connection server that only understands the
// original frame format.
func TestWireCompatNewClientOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		nextID := int64(0)
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
			var resp map[string]any
			switch req["op"] {
			case "add_vertex":
				nextID++
				resp = map[string]any{"ok": true, "vertexId": nextID}
			case "stats":
				resp = map[string]any{"ok": true, "vertices": nextID}
			default:
				resp = map[string]any{"err": fmt.Sprintf("unknown op %v", req["op"])}
			}
			data, _ := json.Marshal(resp)
			binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
			if _, err := conn.Write(lenBuf[:]); err != nil {
				return
			}
			if _, err := conn.Write(data); err != nil {
				return
			}
		}
	}()

	client, err := DialContext(context.Background(), ln.Addr().String(), ClientConfig{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	id, err := client.AddVertexContext(context.Background(), event("cam#1"))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("vertex id = %d, want 1", id)
	}
	vertices, _, err := client.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vertices != 1 {
		t.Errorf("vertices = %d, want 1", vertices)
	}
	// A legacy rejection surfaces as the familiar terminal error.
	if err := client.AddEdgeContext(context.Background(), 1, 2, 0.5); err == nil {
		t.Error("legacy rejection not surfaced")
	}
	// Queries need a server with the reconstruct op; an older one's
	// rejection reaches the caller as is.
	if _, err := client.ReconstructContext(context.Background(), "cam#1", DefaultTraceLimits()); err == nil ||
		!strings.Contains(err.Error(), "unknown op reconstruct") {
		t.Errorf("reconstruct against a legacy server: %v", err)
	}
}

// FuzzServeRequest feeds arbitrary bytes to the server as one request
// frame — through the wire codec's ReadRequest, then the op dispatch —
// against a fresh four-vertex, three-edge store. No input may panic the
// server, and every answer must encode as a response frame within
// maxWireBytes. The checked-in corpus holds one request per op, an
// add_vertex_rec whose record carries a NaN bin, and the best,
// reconstruct and sightings ops asking for a binary answer.
func FuzzServeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := wireCodec{}.ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		s, _ := buildGraph(t)
		srv := &Server{store: s, engine: newQueryEngine(s, 0, obs.NewRegistry())}
		resp, err := srv.dispatch(context.Background(), req)
		if err == nil {
			err = wireCodec{}.WriteResponse(io.Discard, req, resp, nil)
		}
		if err != nil {
			t.Fatalf("op %q: response does not encode: %v", req.Method, err)
		}
	})
}
