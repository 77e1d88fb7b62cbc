package trajstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
)

// --- Snapshot semantics ---

func TestSnapshotReflectsStoreAndCachesByVersion(t *testing.T) {
	s := NewMemStore()
	a, _ := s.AddVertex(event("cam#1"))
	b, _ := s.AddVertex(event("cam#2"))
	if err := s.AddEdge(a, b, 0.25); err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	if snap.NumVertices() != 2 || snap.NumEdges() != 1 || snap.MaxVertexID() != b {
		t.Fatalf("snapshot = %d vertices, %d edges, max %d",
			snap.NumVertices(), snap.NumEdges(), snap.MaxVertexID())
	}
	v, err := snap.Vertex(a)
	if err != nil || v.Event.ID != "cam#1" {
		t.Fatalf("snapshot vertex: %+v, %v", v, err)
	}
	out, _ := snap.OutEdges(a)
	if len(out) != 1 || out[0].To != b || out[0].Weight != 0.25 {
		t.Fatalf("snapshot out edges = %+v", out)
	}
	if _, err := snap.Vertex(999); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("missing vertex: %v", err)
	}

	// No writes since: the same snapshot is reused, no copy taken.
	if again := s.Snapshot(); again != snap {
		t.Error("unchanged store rebuilt its snapshot")
	}

	// A write invalidates the cached snapshot and bumps the version.
	c, _ := s.AddVertex(event("cam#3"))
	if err := s.AddEdge(b, c, 0.1); err != nil {
		t.Fatal(err)
	}
	fresh := s.Snapshot()
	if fresh == snap {
		t.Fatal("snapshot not rebuilt after a write")
	}
	if fresh.Version() <= snap.Version() {
		t.Errorf("version did not advance: %d -> %d", snap.Version(), fresh.Version())
	}
	if fresh.NumVertices() != 3 || fresh.NumEdges() != 2 {
		t.Errorf("fresh snapshot = %d vertices, %d edges", fresh.NumVertices(), fresh.NumEdges())
	}
}

func TestSnapshotIsolatedFromLaterWrites(t *testing.T) {
	s := NewMemStore()
	ids := make([]int64, 4)
	for i := range ids {
		ids[i], _ = s.AddVertex(event(fmt.Sprintf("cam#%d", i+1)))
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := s.AddEdge(ids[i], ids[i+1], 0.1); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	wantPaths, err := snap.Trajectory(ids[0], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the live store heavily after the snapshot was taken.
	prev := ids[len(ids)-1]
	for i := 0; i < 16; i++ {
		id, err := s.AddVertex(event(fmt.Sprintf("late#%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(prev, id, 0.2); err != nil {
			t.Fatal(err)
		}
		prev = id
	}

	if snap.NumVertices() != 4 || snap.NumEdges() != 3 {
		t.Fatalf("snapshot drifted: %d vertices, %d edges", snap.NumVertices(), snap.NumEdges())
	}
	gotPaths, err := snap.Trajectory(ids[0], DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPaths) != len(wantPaths) || len(gotPaths[0]) != len(ids) {
		t.Fatalf("snapshot trajectory changed under writes: %v", gotPaths)
	}
	if live, _ := s.Snapshot().Trajectory(ids[0], DefaultTraceLimits()); len(live[0]) != 20 {
		t.Fatalf("live store should see the new chain, got %d hops", len(live[0]))
	}
}

// chainBatch builds one atomic batch extending a chain by `grow` vertices
// and `grow` edges, predicting the IDs the store will allocate (valid
// because there is a single writer).
func chainBatch(head, nextID int64, round, grow int) []protocol.TrajWrite {
	var writes []protocol.TrajWrite
	from := head
	for k := 0; k < grow; k++ {
		to := nextID + int64(k)
		writes = append(writes,
			protocol.VertexWrite(event(fmt.Sprintf("w%d#%d", round, k))),
			protocol.EdgeWrite(from, to, 0.1))
		from = to
	}
	return writes
}

// TestSnapshotNeverObservesHalfAppliedBatch hammers Snapshot from
// concurrent readers while a writer extends a chain in atomic batches of
// 3 vertices + 3 edges. Every snapshot must sit exactly on a batch
// boundary: vertices ≡ 1 (mod 3), edges == vertices-1, and the single
// reconstructed track spans every vertex in the snapshot. Run under
// -race this also proves the copy-on-read path is data-race free.
func TestSnapshotNeverObservesHalfAppliedBatch(t *testing.T) {
	s := NewMemStore()
	head, err := s.AddVertex(event("root#0"))
	if err != nil {
		t.Fatal(err)
	}

	const (
		rounds  = 40
		grow    = 3
		readers = 4
	)
	limits := TraceLimits{MaxDepth: 1 + rounds*grow + 1, MaxPaths: 4}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				nv, ne := snap.NumVertices(), snap.NumEdges()
				if (nv-1)%grow != 0 || ne != nv-1 {
					errCh <- fmt.Errorf("half-applied batch visible: %d vertices, %d edges", nv, ne)
					return
				}
				tracks, err := ReconstructTracks(snap, head, limits)
				if err != nil || len(tracks) == 0 {
					errCh <- fmt.Errorf("reconstruct: %d tracks, %v", len(tracks), err)
					return
				}
				if got := len(tracks[0].Hops); got != nv {
					errCh <- fmt.Errorf("track spans %d of %d snapshot vertices", got, nv)
					return
				}
			}
		}()
	}

	chainHead, nextID := head, head+1
	for round := 0; round < rounds; round++ {
		writes := chainBatch(chainHead, nextID, round, grow)
		ids, recErrs, err := s.ApplyBatch(writes)
		if err != nil {
			t.Fatal(err)
		}
		for i, re := range recErrs {
			if re != nil {
				t.Fatalf("batch record %d: %v", i, re)
			}
		}
		for _, id := range ids {
			if id > 0 {
				chainHead, nextID = id, id+1
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestConcurrentRemoteQuerySnapshotStress is the same isolation invariant
// end-to-end: readers issue server-side reconstructs over TCP while one
// writer streams atomic batches; every answer must reflect a whole number
// of batches (hops ≡ 1 mod 3).
func TestConcurrentRemoteQuerySnapshotStress(t *testing.T) {
	s := NewMemStore()
	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	writerClient, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = writerClient.Close() }()

	head, err := writerClient.AddVertexContext(context.Background(), event("root#0"))
	if err != nil {
		t.Fatal(err)
	}

	const (
		rounds  = 25
		grow    = 3
		readers = 3
	)
	limits := TraceLimits{MaxDepth: 1 + rounds*grow + 1, MaxPaths: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = client.Close() }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tracks, err := client.ReconstructVertexContext(ctx, head, limits)
				if err != nil {
					errCh <- fmt.Errorf("remote reconstruct: %w", err)
					return
				}
				if len(tracks) == 0 {
					errCh <- errors.New("remote reconstruct returned no tracks")
					return
				}
				if n := len(tracks[0].Hops); (n-1)%grow != 0 {
					errCh <- fmt.Errorf("observed half-applied batch: track of %d hops", n)
					return
				}
			}
		}()
	}

	chainHead, nextID := head, head+1
	for round := 0; round < rounds; round++ {
		ids, recErrs, err := writerClient.AddBatchContext(ctx, chainBatch(chainHead, nextID, round, grow))
		if err != nil {
			t.Fatal(err)
		}
		for i, re := range recErrs {
			if re != nil {
				t.Fatalf("batch record %d: %v", i, re)
			}
		}
		for _, id := range ids {
			if id > 0 {
				chainHead, nextID = id, id+1
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// --- Server-side ops and result cache ---

func serveGraph(t *testing.T, opts ServerOptions) (*Store, *Server, *Client) {
	t.Helper()
	s := NewMemStore()
	if opts.Registry == nil {
		// Isolate each test server's coralpie_query_* counters; on the
		// shared default registry every server in the binary would
		// accumulate into the same handles.
		opts.Registry = obs.NewRegistry()
	}
	srv, err := ServeWith(s, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return s, srv, client
}

func seedChain(t *testing.T, s *Store, n int) []int64 {
	t.Helper()
	ids := make([]int64, n)
	for i := range ids {
		id, err := s.AddVertex(event(fmt.Sprintf("seed#%d", i)))
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

func TestQueryCacheHitMissAndWriteInvalidation(t *testing.T) {
	s, srv, client := serveGraph(t, ServerOptions{QueryCache: 8})
	ids := seedChain(t, s, 5)
	limits := DefaultTraceLimits()

	first, err := client.ReconstructVertexContext(context.Background(), ids[0], limits)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.ReconstructVertexContext(context.Background(), ids[0], limits)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.QueryStats()
	if st.CacheMisses != 1 || st.CacheHits != 1 || st.CacheLen != 1 {
		t.Fatalf("stats after repeat query = %+v", st)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatal("cached answer differs from computed answer")
	}

	// Different limits are a different key.
	if _, err := client.ReconstructVertexContext(context.Background(), ids[0], TraceLimits{MaxDepth: 2, MaxPaths: 2}); err != nil {
		t.Fatal(err)
	}
	if st := srv.QueryStats(); st.CacheMisses != 2 || st.CacheLen != 2 {
		t.Fatalf("stats after distinct-limits query = %+v", st)
	}

	// A write makes every cached answer unservable — the version tag, not
	// a purge: the entries stay until looked up or evicted — and the next
	// answer reflects it.
	tail, err := s.AddVertex(event("seed#new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(ids[len(ids)-1], tail, 0.3); err != nil {
		t.Fatal(err)
	}
	after, err := client.ReconstructVertexContext(context.Background(), ids[0], limits)
	if err != nil {
		t.Fatal(err)
	}
	if len(after[0].Hops) != len(first[0].Hops)+1 {
		t.Fatalf("post-write answer has %d hops, want %d", len(after[0].Hops), len(first[0].Hops)+1)
	}
	if st := srv.QueryStats(); st.CacheMisses != 3 || st.CacheHits != 1 || st.CacheLen != 2 {
		t.Fatalf("post-write query should miss and replace its stale entry: %+v", st)
	}
}

func TestQueryCacheLRUBound(t *testing.T) {
	s, srv, client := serveGraph(t, ServerOptions{QueryCache: 2})
	ids := seedChain(t, s, 4)
	limits := DefaultTraceLimits()

	for _, id := range ids[:3] {
		if _, err := client.ReconstructVertexContext(context.Background(), id, limits); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.QueryStats()
	if st.CacheLen != 2 {
		t.Fatalf("cache holds %d entries, want the configured bound 2", st.CacheLen)
	}
	// The oldest entry (ids[0]) was evicted: re-querying it misses, while
	// the most recent (ids[2]) still hits.
	if _, err := client.ReconstructVertexContext(context.Background(), ids[2], limits); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ReconstructVertexContext(context.Background(), ids[0], limits); err != nil {
		t.Fatal(err)
	}
	st = srv.QueryStats()
	if st.CacheHits != 1 || st.CacheMisses != 4 {
		t.Fatalf("LRU stats = %+v, want 1 hit / 4 misses", st)
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	s, srv, client := serveGraph(t, ServerOptions{QueryCache: -1})
	ids := seedChain(t, s, 3)
	for i := 0; i < 2; i++ {
		if _, err := client.ReconstructVertexContext(context.Background(), ids[0], DefaultTraceLimits()); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.QueryStats()
	if st.CacheHits != 0 || st.CacheMisses != 2 || st.CacheLen != 0 {
		t.Fatalf("disabled-cache stats = %+v", st)
	}
}

func TestQueryCacheVersionTagRejectsStaleEntry(t *testing.T) {
	c := newQueryCache(4)
	key := queryKey{op: opReconstruct, vertexID: 1}
	c.put(key, 7, "old answer")
	if _, ok := c.get(key, 8); ok {
		t.Fatal("stale entry served")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not evicted: %d entries", c.len())
	}
	c.put(key, 8, "new answer")
	if v, ok := c.get(key, 8); !ok || v != "new answer" {
		t.Fatalf("current entry = %v, %v", v, ok)
	}
}

func TestServerSideBestAndSightings(t *testing.T) {
	s, _, client := serveGraph(t, ServerOptions{})
	ids := seedChain(t, s, 3)
	_ = ids

	best, err := client.BestContext(context.Background(), "seed#0", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Hops) != 3 {
		t.Fatalf("best track = %+v", best.Cameras())
	}

	if _, err := client.BestContext(context.Background(), "ghost#0", DefaultTraceLimits()); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("unknown event over the wire: %v", err)
	}
	if _, err := client.ReconstructVertexContext(context.Background(), 999, DefaultTraceLimits()); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("unknown vertex over the wire: %v", err)
	}

	// Sightings scan with and without an explicit maxVertex bound.
	truth := event("truth#1")
	truth.TruthID = "veh-9"
	tid, err := s.AddVertex(truth)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := client.SightingsContext(context.Background(), "veh-9", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].VertexID != tid {
		t.Fatalf("sightings = %+v", hops)
	}
	bounded, err := client.SightingsContext(context.Background(), "veh-9", tid-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded) != 0 {
		t.Fatalf("bounded sightings should exclude vertex %d: %+v", tid, bounded)
	}
}

// TestServerErrorCodeMapping pins the wire error contract: codes map back
// to sentinel errors via errors.Is while the historical message string is
// preserved for old clients that match on text.
func TestServerErrorCodeMapping(t *testing.T) {
	nf := &ServerError{Code: codeNotFound, Msg: "vertex not found: 7"}
	if !errors.Is(nf, ErrVertexNotFound) {
		t.Error("not_found code does not unwrap to ErrVertexNotFound")
	}
	if nf.Error() != "trajstore: server: vertex not found: 7" {
		t.Errorf("message = %q", nf.Error())
	}
	nt := &ServerError{Code: codeNoTracks, Msg: "no tracks"}
	if !errors.Is(nt, ErrNoTracks) {
		t.Error("no_tracks code does not unwrap to ErrNoTracks")
	}
	if errors.Is(&ServerError{Msg: "plain"}, ErrVertexNotFound) {
		t.Error("codeless error gained a sentinel identity")
	}
}

// TestQueryRecordsChildSpan asserts a server-side query stitches a
// "query" child span into the caller's sampled trace.
func TestQueryRecordsChildSpan(t *testing.T) {
	s := NewMemStore()
	tracer := obs.NewTracerWith(obs.TracerConfig{Capacity: 16})
	s.UseTracer(tracer)
	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	ids := seedChain(t, s, 3)

	ctx := obs.ContextWithSpan(context.Background(), obs.SpanContext{
		TraceID: "trace-q1", SpanID: "span-root", Sampled: true,
	})
	if _, err := client.ReconstructVertexContext(ctx, ids[0], DefaultTraceLimits()); err != nil {
		t.Fatal(err)
	}
	// Repeat: the cache hit must still appear in the trace.
	if _, err := client.ReconstructVertexContext(ctx, ids[0], DefaultTraceLimits()); err != nil {
		t.Fatal(err)
	}

	var got []obs.Span
	for _, sp := range tracer.Recent() {
		if sp.Name == "query" && sp.Trace == "trace-q1" {
			got = append(got, sp)
		}
	}
	if len(got) != 2 {
		t.Fatalf("recorded %d query spans, want 2; spans: %+v", len(got), tracer.Recent())
	}
	for _, sp := range got {
		if sp.ParentID != "span-root" {
			t.Errorf("query span parent = %q, want span-root", sp.ParentID)
		}
	}
	hitSeen := false
	for _, sp := range got {
		for _, attr := range sp.Attrs {
			if attr.Name == "cache" && attr.Value == "hit" {
				hitSeen = true
			}
		}
	}
	if !hitSeen {
		t.Errorf("no query span tagged cache=hit; spans: %+v", got)
	}
}

// --- Graceful shutdown of in-flight queries ---

// slowQueryInterceptor delays reconstruct handling so the test can catch
// the server with a query genuinely in flight.
func slowQueryInterceptor(d time.Duration) rpc.Interceptor {
	return func(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
		if req.Method == "reconstruct" {
			time.Sleep(d)
		}
		return next(ctx, req)
	}
}

func TestShutdownDrainsInFlightQuery(t *testing.T) {
	before := runtime.NumGoroutine()

	s := NewMemStore()
	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{
		Interceptors: []rpc.Interceptor{slowQueryInterceptor(400 * time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := seedChain(t, s, 4)

	type result struct {
		tracks []Track
		err    error
	}
	done := make(chan result, 1)
	go func() {
		tracks, err := client.ReconstructVertexContext(context.Background(), ids[0], DefaultTraceLimits())
		done <- result{tracks, err}
	}()

	// Wait until the query is actually inside the server.
	deadline := time.Now().Add(2 * time.Second)
	for srv.QueryStats().InFlight == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown with a query in flight: %v", err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight query was dropped by shutdown: %v", res.err)
	}
	if len(res.tracks) == 0 || len(res.tracks[0].Hops) != 4 {
		t.Fatalf("drained query returned %+v", res.tracks)
	}
	_ = client.Close()

	// No goroutines may outlive the drained server (settle loop: the
	// runtime needs a moment to retire connection handlers).
	var after int
	for i := 0; i < 100; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before+2 {
		t.Errorf("goroutines leaked across query shutdown: %d -> %d", before, after)
	}
}

func TestShutdownBoundedByContextDuringSlowQuery(t *testing.T) {
	s := NewMemStore()
	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{
		Interceptors: []rpc.Interceptor{slowQueryInterceptor(3 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	ids := seedChain(t, s, 3)

	go func() {
		_, _ = client.ReconstructVertexContext(context.Background(), ids[0], DefaultTraceLimits())
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.QueryStats().InFlight == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_ = srv.Shutdown(ctx) // may report the abandoned connection; timing is the contract
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v despite a 150ms drain budget", elapsed)
	}
}
