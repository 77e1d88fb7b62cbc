package trajstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/protocol"
)

// queryGoldenPath holds, for each of goldenQueries, the request line and
// then the JSON body the server answered it with. It was captured from the
// server that answered every query in JSON, before binary answers existed,
// and is not regenerated: it is the oracle the binary answers decode to.
var queryGoldenPath = filepath.Join("testdata", "query-golden", "answers.txt")

// goldenQueries are best, reconstruct and sightings requests in the JSON
// form of the wire they were captured on. They cover a found and an
// unknown sighting, both reconstruct keys, explicit limits, a vehicle with
// sightings and one without.
var goldenQueries = []string{
	`{"op":"best","eventId":"camA#1"}`,
	`{"op":"best","eventId":"camB#1","limits":{"MaxDepth":2,"MaxPaths":1}}`,
	`{"op":"best","eventId":"nope#1"}`,
	`{"op":"reconstruct","eventId":"camB#1","limits":{"MaxDepth":8,"MaxPaths":8}}`,
	`{"op":"reconstruct","id":5}`,
	`{"op":"reconstruct","id":99}`,
	`{"op":"sightings","vehicleId":"veh-1"}`,
	`{"op":"sightings","vehicleId":"veh-2","maxVertex":4}`,
	`{"op":"sightings","vehicleId":"nobody"}`,
}

// goldenRequest is a golden query line as the binary request the client
// sends for it: a missing limits field is DefaultTraceLimits, which is what
// the JSON wire's server read it as.
func goldenRequest(t *testing.T, line string) request {
	t.Helper()
	var q struct {
		Op        string
		EventID   protocol.EventID
		ID        int64
		Limits    *TraceLimits
		VehicleID string
		MaxVertex int64
	}
	if err := json.Unmarshal([]byte(line), &q); err != nil {
		t.Fatal(err)
	}
	r := request{queryKey: queryKey{eventID: q.EventID, vertexID: q.ID, limits: DefaultTraceLimits(), vehicleID: q.VehicleID, maxVertex: q.MaxVertex}}
	if q.Limits != nil {
		r.limits = *q.Limits
	}
	for op := range ops {
		if ops[op].name == q.Op {
			r.op = byte(op)
		}
	}
	return r
}

// goldenBody is an answer in the JSON response form the golden file holds.
func goldenBody(t *testing.T, op byte, a reply) []byte {
	t.Helper()
	var r struct {
		OK     bool    `json:"ok"`
		Err    string  `json:"err,omitempty"`
		Code   string  `json:"code,omitempty"`
		Tracks []Track `json:"tracks,omitempty"`
		Track  *Track  `json:"track,omitempty"`
		Hops   []Hop   `json:"hops,omitempty"`
	}
	switch {
	case a.kind == answerError:
		r.Err, r.Code = a.err.Msg, a.err.Code
	case op == opBest && len(a.tracks) == 1:
		r.OK, r.Track = true, &a.tracks[0]
	default:
		r.OK, r.Tracks, r.Hops = true, a.tracks, a.hops
	}
	return mustJSON(t, r)
}

// goldenStore is buildGraph plus a second vehicle's sighting stamped in a
// zone east of UTC, with a fractional second, reached from v2.
func goldenStore(t *testing.T) *Store {
	t.Helper()
	s, ids := buildGraph(t)
	e := sightingEvent("camY#1", "camY", 15*time.Second+250*time.Millisecond, "veh-2")
	e.Timestamp = e.Timestamp.In(time.FixedZone("", 5*3600+30*60))
	id, err := s.AddVertex(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(ids[1], id, 0.35); err != nil {
		t.Fatal(err)
	}
	return s
}

// rawFrame writes body as one length-prefixed frame on conn and returns
// the reply frame's body as it arrived.
func rawFrame(t *testing.T, conn net.Conn, body []byte) []byte {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// goldenAnswers serves goldenStore and returns the request/answer lines
// goldenQueries get over one connection, each sent as a binary request and
// its binary answer decoded into the JSON response form.
func goldenAnswers(t *testing.T) []byte {
	t.Helper()
	srv, err := ServeWith(goldenStore(t), "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var out bytes.Buffer
	for _, q := range goldenQueries {
		req := goldenRequest(t, q)
		body, err := req.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		a := roundTrip(t, conn, body)
		if a.kind != answerError && a.kind != ops[req.op].answer {
			t.Fatalf("%s: answer of kind 0x%02x", q, a.kind)
		}
		out.WriteString(q + "\n")
		out.Write(goldenBody(t, req.op, a))
		out.WriteString("\n")
	}
	return out.Bytes()
}

// TestWireGoldenOldClientQueries sends each golden query as a binary
// request and checks that its decoded answer is, byte for byte, the JSON
// body the server answered before binary answers existed.
func TestWireGoldenOldClientQueries(t *testing.T) {
	want, err := os.ReadFile(queryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenAnswers(t)
	gotLines, wantLines := bufio.NewScanner(bytes.NewReader(got)), bufio.NewScanner(bytes.NewReader(want))
	gotLines.Buffer(nil, 1<<20)
	wantLines.Buffer(nil, 1<<20)
	for i := 0; ; i++ {
		g, w := gotLines.Scan(), wantLines.Scan()
		if !g && !w {
			break
		}
		if g != w || !bytes.Equal(gotLines.Bytes(), wantLines.Bytes()) {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, queryGoldenPath, gotLines.Bytes(), wantLines.Bytes())
		}
	}
}
