package trajstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// roundTrip writes body as one frame on conn and returns the reply frame's
// decoded answer.
func roundTrip(t *testing.T, conn net.Conn, body []byte) reply {
	t.Helper()
	a, err := decodeReply(rawFrame(t, conn, body))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWireCompatOldClientNewServer: a client of the JSON wire, writing
// length-prefixed JSON requests by hand, gets the typed floor refusal for
// every request it sends, writes and reads alike, and stores nothing; the
// connection survives each refusal, and a binary request on it is served.
func TestWireCompatOldClientNewServer(t *testing.T) {
	store := NewMemStore()
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	for _, req := range []string{
		`{"op":"add_vertex","event":{"id":"cam#1","cameraId":"cam","timestamp":"2020-12-07T00:00:00Z","histogram":{"bins":null}}}`,
		`{"op":"add_vertex_rec","rec":"AQ=="}`,
		`{"op":"add_edge","from":1,"to":2,"weight":0.5}`,
		`{"op":"add_batch","batch":[{"kind":"e","from":1,"to":2,"weight":0.5}]}`,
		`{"op":"stats"}`,
		`{"op":"best","eventId":"cam#1","bin":true}`,
		`{"op":"no_such_op"}`,
	} {
		a := roundTrip(t, conn, []byte(req))
		if a.kind != answerError || a.err.Code != codeJSONWire || !errors.Is(a.err, ErrJSONWire) {
			t.Fatalf("%s: answer %+v (error %v), want the %s refusal", req, a, a.err, codeJSONWire)
		}
	}
	if n := store.NumVertices() + store.NumEdges(); n != 0 {
		t.Errorf("%d records stored from refused requests", n)
	}
	stats := request{queryKey: queryKey{op: opStats}}
	body, err := stats.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a := roundTrip(t, conn, body); a.kind != answerStats {
		t.Errorf("binary stats after the refusals: %+v", a)
	}
}

// TestRefusedRequestsAreCounted: each request answered with an error
// counts once in coralpie_trajstore_requests_refused_total, under its
// reason, and a served request counts nowhere.
func TestRefusedRequestsAreCounted(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := buildGraph(t)
	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	encode := func(r request) []byte {
		body, err := r.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	for _, body := range [][]byte{
		[]byte(`{"op":"stats"}`),
		{requestV1, 0x7f},
		encode(request{queryKey: queryKey{op: opGetVertex, vertexID: 99}}),
		encode(request{queryKey: queryKey{op: opStats}}),
	} {
		roundTrip(t, conn, body)
	}
	for _, reason := range []string{"json_wire", "invalid", "rejected"} {
		if n := reg.Counter("coralpie_trajstore_requests_refused_total", "", "reason", reason).Value(); n != 1 {
			t.Errorf("%s refusals = %d, want 1", reason, n)
		}
	}
	if v := obs.LintMetricNames(reg.Snapshot()); len(v) != 0 {
		t.Errorf("server registry violates metric naming: %v", v)
	}
}

// TestWireCompatNewClientOldServer runs the client against a server that
// answers every request in JSON, as a server from before the binary wire
// answered those it read. Each call fails with ErrJSONWire after one
// request, with no retry and no fallback to another op, and the calls
// share one connection.
func TestWireCompatNewClientOldServer(t *testing.T) {
	addr, seen := fakeServer(t, func([]byte) []byte { return []byte(`{"ok":true,"vertexId":1}`) })
	client := dialTest(t, addr)
	ctx := context.Background()
	calls := map[string]func() error{
		"AddVertexContext": func() error { _, err := client.AddVertexContext(ctx, event("cam#1")); return err },
		"AddBatchContext": func() error {
			_, _, err := client.AddBatchContext(ctx, []protocol.TrajWrite{protocol.EdgeWrite(1, 2, 0.5)})
			return err
		},
		"StatsContext":       func() error { _, _, err := client.StatsContext(ctx); return err },
		"ReconstructContext": func() error { _, err := client.ReconstructContext(ctx, "cam#1", DefaultTraceLimits()); return err },
	}
	want := 0
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrJSONWire) {
			t.Errorf("%s against a JSON server: %v, want ErrJSONWire", name, err)
		}
		want++
		if conns, reqs := seen(); conns != 1 || reqs != want {
			t.Fatalf("after %s: %d connections, %d requests; want 1 and %d", name, conns, reqs, want)
		}
	}
}

// FuzzServeRequest feeds arbitrary bytes to the server as one request
// frame — through the wire codec's ReadRequest, then the op dispatch —
// against a fresh four-vertex, three-edge store. No input may panic the
// server, and every answer must encode as a reply frame within
// maxWireBytes. The checked-in corpus holds one binary request per op
// (add_batch several ways: mixed and traced, one vertex, one edge, a
// vertex with a NaN bin; reconstruct by event and by vertex; best and
// sightings with and without their optional parameters), one with an
// unknown op (in_edges) and one JSON request (trajectory), which is
// refused.
func FuzzServeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := wireCodec{}.ReadRequest(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		s, _ := buildGraph(t)
		srv := newServer(s, ServerOptions{Registry: obs.NewRegistry()})
		resp, err := srv.dispatch(context.Background(), req)
		if err == nil {
			err = wireCodec{}.WriteResponse(io.Discard, req, resp, nil)
		}
		if err != nil {
			t.Fatalf("op %q: answer does not encode: %v", req.Method, err)
		}
		if strings.HasPrefix(string(data[4:]), "{") && req.Method != "invalid" {
			t.Fatalf("JSON request read as op %q", req.Method)
		}
	})
}
