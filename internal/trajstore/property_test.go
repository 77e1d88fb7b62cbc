package trajstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/protocol"
)

// TestTraceInvariantsOnRandomDAGs checks structural invariants of
// trajectory traversal over randomly generated acyclic graphs:
// every returned path starts at the query vertex, follows real edges,
// never repeats a vertex, and is maximal (its endpoint has no unexplored
// continuation) unless a limit was hit.
func TestTraceInvariantsOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewMemStore()
		n := 2 + rng.Intn(20)
		ids := make([]int64, n)
		for i := 0; i < n; i++ {
			id, err := s.AddVertex(event("c#" + string(rune('A'+i))))
			if err != nil {
				return false
			}
			ids[i] = id
		}
		// Forward edges only (i -> j with i < j): acyclic by construction.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.15 {
					if err := s.AddEdge(ids[i], ids[j], rng.Float64()); err != nil {
						return false
					}
				}
			}
		}
		start := ids[rng.Intn(n)]
		limits := TraceLimits{MaxDepth: 32, MaxPaths: 64}
		paths, err := s.Snapshot().TraceForward(start, limits)
		if err != nil {
			return false
		}
		if len(paths) == 0 {
			return false // at minimum the single-vertex path
		}
		for _, p := range paths {
			if len(p) == 0 || p[0] != start {
				return false
			}
			seen := map[int64]bool{}
			for i, v := range p {
				if seen[v] {
					return false // repeated vertex
				}
				seen[v] = true
				if i > 0 {
					if !hasEdge(s, p[i-1], v) {
						return false // phantom edge
					}
				}
			}
			// Maximality: the path endpoint has no outgoing edge to an
			// unvisited vertex, unless the depth limit cut it short.
			if len(p) < limits.MaxDepth {
				for _, e := range s.OutEdges(p[len(p)-1]) {
					if !seen[e.To] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func hasEdge(s *Store, from, to int64) bool {
	for _, e := range s.OutEdges(from) {
		if e.To == to {
			return true
		}
	}
	return false
}

// TestBackwardIsReverseOfForward: on a simple chain, tracing backward
// from the end visits the same vertices as tracing forward from the
// start, reversed.
func TestBackwardIsReverseOfForward(t *testing.T) {
	f := func(rawLen uint8) bool {
		n := 2 + int(rawLen%10)
		s := NewMemStore()
		ids := make([]int64, n)
		for i := range ids {
			id, err := s.AddVertex(event("c#" + string(rune('0'+i))))
			if err != nil {
				return false
			}
			ids[i] = id
		}
		for i := 0; i+1 < n; i++ {
			if err := s.AddEdge(ids[i], ids[i+1], 0.1); err != nil {
				return false
			}
		}
		fwd, err := s.Snapshot().TraceForward(ids[0], DefaultTraceLimits())
		if err != nil || len(fwd) != 1 {
			return false
		}
		back, err := s.Snapshot().TraceBackward(ids[n-1], DefaultTraceLimits())
		if err != nil || len(back) != 1 {
			return false
		}
		if len(fwd[0]) != n || len(back[0]) != n {
			return false
		}
		for i := range fwd[0] {
			if fwd[0][i] != back[0][n-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// crashPointStore writes the crash-point tests' graph into a persistent
// store in dir, one log record per write, and returns it closed (its reads
// still answer).
func crashPointStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 24
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		e := event(fmt.Sprintf("c#%d", i))
		e.TruthID = fmt.Sprintf("veh-%d", i%3)
		if ids[i], err = s.AddVertex(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.08 {
				if err := s.AddEdge(ids[i], ids[j], rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkCrashPoint opens crashDir, which holds a log cut at byte cut, and
// checks the store answers reconstruct and sightings queries exactly as
// expected, built from the records that fully reached disk, does. The
// comparison is on marshalled bytes, so ranking order, weights, and
// timestamps must all survive the crash/replay cycle.
func checkCrashPoint(t *testing.T, crashDir string, cut int, expected *Store) {
	t.Helper()
	reopened, err := Open(crashDir)
	if err != nil {
		t.Fatalf("cut=%d: reopen after simulated crash: %v", cut, err)
	}
	defer func() { _ = reopened.Close() }()
	if got, want := reopened.NumVertices(), expected.NumVertices(); got != want {
		t.Fatalf("cut=%d: %d vertices after crash, want %d", cut, got, want)
	}
	limits := TraceLimits{MaxDepth: 32, MaxPaths: 64}
	gotSnap, wantSnap := reopened.Snapshot(), expected.Snapshot()
	for vid := int64(1); vid <= wantSnap.MaxVertexID(); vid++ {
		gotTracks, gotErr := ReconstructTracks(gotSnap, vid, limits)
		wantTracks, wantErr := ReconstructTracks(wantSnap, vid, limits)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("cut=%d vertex=%d: errors diverge: %v vs %v", cut, vid, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		g, _ := json.Marshal(gotTracks)
		w, _ := json.Marshal(wantTracks)
		if !bytes.Equal(g, w) {
			t.Fatalf("cut=%d vertex=%d: reconstruct diverged\n got: %s\nwant: %s", cut, vid, g, w)
		}
	}
	for v := 0; v < 3; v++ {
		vehicle := fmt.Sprintf("veh-%d", v)
		gotHops, _ := SightingsOf(gotSnap, gotSnap.MaxVertexID(), vehicle)
		wantHops, _ := SightingsOf(wantSnap, wantSnap.MaxVertexID(), vehicle)
		g, _ := json.Marshal(gotHops)
		w, _ := json.Marshal(wantHops)
		if !bytes.Equal(g, w) {
			t.Fatalf("cut=%d %s: sightings diverged\n got: %s\nwant: %s", cut, vehicle, g, w)
		}
	}
}

// TestWALCrashPointQueryEquivalence: for random crash points (the log
// truncated at an arbitrary byte offset, as a torn write would leave it),
// the reopened store answers queries identically to a store built from
// exactly the records that fully reached disk. That oracle walks the
// record framing by hand (4-byte length, CRC-32C, body) and inserts each
// record through the public write API, not through replay code.
func TestWALCrashPointQueryEquivalence(t *testing.T) {
	dir := t.TempDir()
	crashPointStore(t, dir)
	wal, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		cut := 1 + rng.Intn(len(wal))
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walFileName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		expected := NewMemStore()
		for b := wal[:cut]; len(b) >= 8; {
			n := int(binary.BigEndian.Uint32(b))
			if len(b) < 8+n {
				break // torn tail: the reopened store truncates it too
			}
			body := b[8 : 8+n]
			if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(b[4:]) {
				t.Fatalf("cut=%d: complete record fails its CRC", cut)
			}
			b = b[8+n:]
			a, k := binary.Varint(body[1:])
			switch body[0] {
			case 'v':
				ev, err := protocol.DecodeDetectionEvent(body[1+k:])
				if err != nil {
					t.Fatalf("cut=%d: undecodable complete record: %v", cut, err)
				}
				if id, err := expected.AddVertex(ev); err != nil || id != a {
					t.Fatalf("cut=%d: oracle vertex %d = %d, %v", cut, a, id, err)
				}
			case 'e':
				to, m := binary.Varint(body[1+k:])
				weight := math.Float64frombits(binary.LittleEndian.Uint64(body[1+k+m:]))
				if err := expected.AddEdge(a, to, weight); err != nil {
					t.Fatalf("cut=%d: oracle edge: %v", cut, err)
				}
			default:
				t.Fatalf("cut=%d: record op %q", cut, body[0])
			}
		}
		checkCrashPoint(t, crashDir, cut, expected)
	}
}

// TestPersistenceEquivalence: a store reloaded from disk answers
// trajectory queries identically to the original.
func TestPersistenceEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var ids []int64
	for i := 0; i < 25; i++ {
		id, err := s.AddVertex(event("c#" + string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 25; i++ {
		for j := i + 1; j < 25; j++ {
			if rng.Float64() < 0.1 {
				if err := s.AddEdge(ids[i], ids[j], rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want, err := s.Trajectory(ids[5], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reloaded, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reloaded.Close() }()
	got, err := reloaded.Trajectory(ids[5], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("paths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("path %d lengths differ", i)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("path %d differs at %d", i, j)
			}
		}
	}
}
