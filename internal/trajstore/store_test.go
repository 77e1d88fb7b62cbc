package trajstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/protocol"
)

func event(id string) protocol.DetectionEvent {
	h := feature.Histogram{Bins: make([]float64, feature.HistogramSize)}
	h.Bins[0] = 1
	return protocol.DetectionEvent{
		ID:        protocol.EventID(id),
		CameraID:  "cam",
		Timestamp: time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC),
		Histogram: h,
	}
}

func TestAddVertexAssignsSequentialIDs(t *testing.T) {
	s := NewMemStore()
	id1, err := s.AddVertex(event("cam#1"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.AddVertex(event("cam#2"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 1 || id2 != 2 {
		t.Errorf("ids = %d, %d", id1, id2)
	}
	v, err := s.Vertex(id1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Event.ID != "cam#1" || v.Event.VertexID != id1 {
		t.Errorf("vertex = %+v", v)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	s := NewMemStore()
	a, err := s.AddVertex(event("cam#1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AddVertex(event("cam#2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(a, 999, 0.1); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("missing target: %v", err)
	}
	if err := s.AddEdge(a, b, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(a, b, 0.2); !errors.Is(err, ErrEdgeExists) {
		t.Errorf("duplicate edge: %v", err)
	}
	if s.NumEdges() != 1 || s.NumVertices() != 2 {
		t.Errorf("counts %d/%d", s.NumVertices(), s.NumEdges())
	}
}

func TestMultipleEdgesPerVertexAllowed(t *testing.T) {
	// The paper allows multiple in/out edges so false positives do not
	// mask true positives.
	s := NewMemStore()
	a, _ := s.AddVertex(event("c#1"))
	b, _ := s.AddVertex(event("c#2"))
	c, _ := s.AddVertex(event("c#3"))
	if err := s.AddEdge(a, b, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(a, c, 0.3); err != nil {
		t.Fatal(err)
	}
	out := s.OutEdges(a)
	if len(out) != 2 {
		t.Errorf("out edges = %v", out)
	}
	if len(s.InEdges(b)) != 1 || len(s.InEdges(c)) != 1 {
		t.Error("in edges wrong")
	}
}

func TestFindByEventID(t *testing.T) {
	s := NewMemStore()
	if _, err := s.AddVertex(event("cam#7")); err != nil {
		t.Fatal(err)
	}
	v, err := s.FindByEventID("cam#7")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 {
		t.Errorf("found id = %d", v.ID)
	}
	if _, err := s.FindByEventID("nope#1"); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("missing event: %v", err)
	}
}

// buildChain creates a linear trajectory v1 -> v2 -> ... -> vn.
func buildChain(t *testing.T, s *Store, n int) []int64 {
	t.Helper()
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		id, err := s.AddVertex(event("cam#" + string(rune('0'+i))))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i+1 < n; i++ {
		if err := s.AddEdge(ids[i], ids[i+1], 0.1); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func TestTraceForwardLinear(t *testing.T) {
	s := NewMemStore()
	ids := buildChain(t, s, 4)
	paths, err := s.Snapshot().TraceForward(ids[0], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	for i, id := range ids {
		if paths[0][i] != id {
			t.Errorf("path = %v", paths[0])
			break
		}
	}
}

func TestTraceBackwardLinear(t *testing.T) {
	s := NewMemStore()
	ids := buildChain(t, s, 4)
	paths, err := s.Snapshot().TraceBackward(ids[3], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	if paths[0][0] != ids[3] || paths[0][3] != ids[0] {
		t.Errorf("backward path = %v", paths[0])
	}
}

func TestTraceForkProducesMultiplePaths(t *testing.T) {
	s := NewMemStore()
	a, _ := s.AddVertex(event("c#1"))
	b, _ := s.AddVertex(event("c#2"))
	c, _ := s.AddVertex(event("c#3"))
	d, _ := s.AddVertex(event("c#4"))
	if err := s.AddEdge(a, b, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(a, c, 0.4); err != nil { // false-positive branch
		t.Fatal(err)
	}
	if err := s.AddEdge(b, d, 0.1); err != nil {
		t.Fatal(err)
	}
	paths, err := s.Snapshot().TraceForward(a, DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestTrajectoryThroughMiddle(t *testing.T) {
	s := NewMemStore()
	ids := buildChain(t, s, 5)
	paths, err := s.Trajectory(ids[2], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 5 {
		t.Fatalf("paths = %v", paths)
	}
	for i, id := range ids {
		if paths[0][i] != id {
			t.Errorf("trajectory = %v, want %v", paths[0], ids)
			break
		}
	}
}

func TestTraceCycleTerminates(t *testing.T) {
	s := NewMemStore()
	a, _ := s.AddVertex(event("c#1"))
	b, _ := s.AddVertex(event("c#2"))
	if err := s.AddEdge(a, b, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(b, a, 0.1); err != nil {
		t.Fatal(err)
	}
	paths, err := s.Snapshot().TraceForward(a, DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Errorf("cycle paths = %v", paths)
	}
}

func TestTraceLimitsRespected(t *testing.T) {
	s := NewMemStore()
	ids := buildChain(t, s, 10)
	paths, err := s.Snapshot().TraceForward(ids[0], TraceLimits{MaxDepth: 3, MaxPaths: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[0]) != 3 {
		t.Errorf("depth-limited path = %v", paths[0])
	}
	if _, err := s.Snapshot().TraceForward(999, DefaultTraceLimits()); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("missing start: %v", err)
	}
}

func TestCloseBlocksWrites(t *testing.T) {
	s := NewMemStore()
	id, err := s.AddVertex(event("c#1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := s.AddVertex(event("c#2")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	// Reads still work.
	if _, err := s.Vertex(id); err != nil {
		t.Errorf("read after close: %v", err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := buildChain(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if s2.NumVertices() != 3 || s2.NumEdges() != 2 {
		t.Fatalf("reloaded %d vertices %d edges", s2.NumVertices(), s2.NumEdges())
	}
	paths, err := s2.Snapshot().TraceForward(ids[0], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Errorf("reloaded paths = %v", paths)
	}
	// IDs keep growing after reload (no reuse).
	id, err := s2.AddVertex(event("c#9"))
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Errorf("next id after reload = %d, want 4", id)
	}
}

// A zone offset with negative seconds, which time.UnmarshalBinary would
// shift (it adds the seconds byte unsigned): a log holding such a
// timestamp, written locally or over the wire, must reopen, and the
// vertex must still be served at the same instant.
func TestOddZoneTimestampSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1883, 11, 18, 12, 0, 0, 0, time.FixedZone("", -3661))
	local, remote := event("cam#1"), event("cam#2")
	local.Timestamp, remote.Timestamp = at, at
	if _, err := s.AddVertex(local); err != nil {
		t.Fatal(err)
	}
	if _, err := serveStore(t, s, ServerOptions{}).AddVertexContext(context.Background(), remote); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	cl := serveStore(t, s2, ServerOptions{})
	for id, want := range map[int64]protocol.EventID{1: "cam#1", 2: "cam#2"} {
		v, err := cl.VertexContext(context.Background(), id)
		if err != nil {
			t.Fatalf("vertex %d after reopen: %v", id, err)
		}
		if v.Event.ID != want || !v.Event.Timestamp.Equal(at) {
			t.Errorf("vertex %d = %s at %v, want %s at %v", id, v.Event.ID, v.Event.Timestamp, want, at)
		}
	}
}

// TestShiftedZoneVertexSurvivesReopen: a write at -00:05:17, an offset
// time.UnmarshalBinary would read back as -00:01:01, is taken and
// replayed from the log at the same instant.
func TestShiftedZoneVertexSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := event("cam#1")
	e.Timestamp = e.Timestamp.In(time.FixedZone("", -317))
	if _, err := s.AddVertex(e); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	v, err := s2.Vertex(1)
	if err != nil || !v.Event.Timestamp.Equal(e.Timestamp) {
		t.Fatalf("vertex after reopen = %v at %v, %v; want it at %v", v.Event.ID, v.Event.Timestamp, err, e.Timestamp)
	}
}

// TestNegativeSecondsOffsetReadsBackExactly: two linked sightings at
// -00:05:17 are written to a persistent store, which is reopened; over
// TCP, get_vertex and best answer them at that very offset.
// (time.UnmarshalBinary reads the offset's seconds byte unsigned: it
// would replay them at -00:01:01, which no answer can encode.)
func TestNegativeSecondsOffsetReadsBackExactly(t *testing.T) {
	zone := time.FixedZone("", -(5*60 + 17))
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids [2]int64
	for i, cam := range []string{"camA", "camB"} {
		e := sightingEvent(cam+"#1", cam, time.Duration(i)*10*time.Second, "veh-1")
		e.Timestamp = e.Timestamp.In(zone)
		if ids[i], err = s.AddVertex(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddEdge(ids[0], ids[1], 0.1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	cl := serveStore(t, s2, ServerOptions{})
	exact := func(what string, at time.Time, want time.Duration) {
		t.Helper()
		name, off := at.Zone()
		if !at.Equal(trackEpoch.Add(want)) || name != "" || off != -(5*60+17) {
			t.Errorf("%s at %v (zone %q, offset %ds), want %v at offset -317s", what, at, name, off, trackEpoch.Add(want))
		}
	}
	ctx := context.Background()
	for i, id := range ids {
		v, err := cl.VertexContext(ctx, id)
		if err != nil {
			t.Fatalf("get_vertex %d after reopen: %v", id, err)
		}
		exact(fmt.Sprintf("get_vertex %d", id), v.Event.Timestamp, time.Duration(i)*10*time.Second)
	}
	best, err := cl.BestContext(ctx, "camA#1", DefaultTraceLimits())
	if err != nil || len(best.Hops) != 2 {
		t.Fatalf("best after reopen: %d hops, %v; want 2", len(best.Hops), err)
	}
	for i, h := range best.Hops {
		exact(fmt.Sprintf("best hop %d", i), h.Time, time.Duration(i)*10*time.Second)
	}
}

func TestOpenEmptyDirErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir should error")
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	store := NewMemStore()
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	cl, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	a, err := cl.AddVertexContext(context.Background(), event("cam#1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.AddVertexContext(context.Background(), event("cam#2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, errs, err := cl.AddBatchContext(context.Background(), []protocol.TrajWrite{protocol.EdgeWrite(a, b, 0.15)}); err != nil || errs[0] != nil {
		t.Fatal(err, errs)
	}
	v, err := cl.VertexContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if v.Event.ID != "cam#1" {
		t.Errorf("vertex = %+v", v)
	}
	fv, err := cl.FindByEventIDContext(context.Background(), "cam#2")
	if err != nil || fv.ID != b {
		t.Errorf("find = %+v err %v", fv, err)
	}
	tracks, err := cl.ReconstructVertexContext(context.Background(), a, DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 1 || len(tracks[0].Hops) != 2 {
		t.Errorf("tracks = %+v", tracks)
	}
	nv, ne, err := cl.StatsContext(context.Background())
	if err != nil || nv != 2 || ne != 1 {
		t.Errorf("stats = %d/%d err %v", nv, ne, err)
	}
}

func TestClientErrorsPropagate(t *testing.T) {
	store := NewMemStore()
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cl, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	if _, err := cl.VertexContext(context.Background(), 42); err == nil {
		t.Error("missing vertex should error")
	}
	if _, errs, err := cl.AddBatchContext(context.Background(), []protocol.TrajWrite{protocol.EdgeWrite(1, 2, 0.5)}); err != nil || errs[0] == nil {
		t.Errorf("edge between missing vertices: %v, %v; want a record error", err, errs)
	}
	// The connection survives server-side errors.
	if _, err := cl.AddVertexContext(context.Background(), event("cam#1")); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
}

func TestClientReconnects(t *testing.T) {
	store := NewMemStore()
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl, err := DialContext(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if _, err := cl.AddVertexContext(context.Background(), event("cam#1")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := ServeWith(store, addr, ServerOptions{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer func() { _ = srv2.Close() }()
	// First call may fail on the stale connection; the next must recover.
	var ok bool
	for i := 0; i < 5; i++ {
		if _, err := cl.AddVertexContext(context.Background(), event("cam#2")); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Error("client never reconnected")
	}
}
