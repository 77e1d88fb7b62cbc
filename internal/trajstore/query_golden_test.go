package trajstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// queryGoldenPath holds, for each of goldenQueries, the request line and
// then the JSON body the server answered it with. It was captured from the
// server that answered every query in JSON, before binary answers existed,
// and is not regenerated: a client that does not ask for a binary answer
// must keep getting exactly these bytes.
var queryGoldenPath = filepath.Join("testdata", "query-golden", "answers.txt")

// goldenQueries are raw best, reconstruct and sightings request bodies as a
// client that predates binary answers sends them: no bin field. They cover
// a found and an unknown sighting, both reconstruct keys, explicit limits,
// a vehicle with sightings and one without.
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
// goldenQueries get over one connection.
func goldenAnswers(t *testing.T) []byte {
	t.Helper()
	srv, err := Serve(goldenStore(t), "127.0.0.1:0")
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
		out.WriteString(q + "\n")
		out.Write(rawFrame(t, conn, []byte(q)))
		out.WriteString("\n")
	}
	return out.Bytes()
}

// TestWireGoldenOldClientQueries checks that a query without the bin
// field gets the JSON answer, byte for byte, that the server gave before
// binary answers existed.
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
