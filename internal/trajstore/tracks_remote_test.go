package trajstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// serveStore serves s on a loopback port and dials it; both close at the
// end of the test.
func serveStore(t *testing.T, s *Store, opts ServerOptions) *Client {
	t.Helper()
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
	return client
}

// randomStore builds a random acyclic trajectory graph with ground-truth
// vehicle IDs, varied cameras, and increasing timestamps.
func randomStore(t *testing.T, seed int64) (*Store, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewMemStore()
	n := 3 + rng.Intn(18)
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		cam := fmt.Sprintf("cam%d", rng.Intn(6))
		e := sightingEvent(fmt.Sprintf("%s#%d", cam, i), cam,
			time.Duration(i*5+rng.Intn(5))*time.Second, fmt.Sprintf("veh-%d", rng.Intn(4)))
		id, err := s.AddVertex(e)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.12 {
				if err := s.AddEdge(ids[i], ids[j], rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return s, ids
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerSideEquivalenceRandomGraphs is the engine's core contract:
// on randomized graphs, the server-side reconstruct/best/sightings ops
// return byte-identical answers (marshalled JSON, so ordering, weights,
// and timestamps all count) to the local walk over a snapshot of the
// same store — and so does the client-side per-vertex fallback.
func TestServerSideEquivalenceRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, ids := randomStore(t, seed)
			client := serveStore(t, s, ServerOptions{})

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			local := s.Snapshot()
			limits := TraceLimits{MaxDepth: 32, MaxPaths: 64}

			rng := rand.New(rand.NewSource(seed + 1000))
			starts := []int64{ids[0], ids[len(ids)-1], ids[rng.Intn(len(ids))]}
			for _, start := range starts {
				want, err := ReconstructTracks(local, start, limits)
				if err != nil {
					t.Fatal(err)
				}
				got, err := client.ReconstructVertexContext(ctx, start, limits)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
					t.Fatalf("vertex %d: server-side reconstruct diverged\n got: %s\nwant: %s",
						start, mustJSON(t, got), mustJSON(t, want))
				}
				// The per-vertex fallback over the same wire must agree too.
				fb, err := ReconstructTracks(client.View(ctx), start, limits)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustJSON(t, fb), mustJSON(t, want)) {
					t.Fatalf("vertex %d: fallback reconstruct diverged", start)
				}

				v, err := s.Vertex(start)
				if err != nil {
					t.Fatal(err)
				}
				wantBest, wantErr := BestTrack(local, v.Event.ID, limits)
				gotBest, gotErr := client.BestContext(ctx, v.Event.ID, limits)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("best errors diverge: %v vs %v", gotErr, wantErr)
				}
				if wantErr == nil && !bytes.Equal(mustJSON(t, gotBest), mustJSON(t, wantBest)) {
					t.Fatalf("event %q: best diverged", v.Event.ID)
				}
			}

			for v := 0; v < 4; v++ {
				vehicle := fmt.Sprintf("veh-%d", v)
				want, err := SightingsOf(local, int64(s.NumVertices()), vehicle)
				if err != nil {
					t.Fatal(err)
				}
				got, err := client.SightingsContext(ctx, vehicle, int64(s.NumVertices()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
					t.Fatalf("%s: sightings diverged\n got: %s\nwant: %s",
						vehicle, mustJSON(t, got), mustJSON(t, want))
				}
			}
		})
	}
}

// rpcCounter is a server interceptor counting the requests that reach
// the server, per op and per (op, vertex ID).
type rpcCounter struct {
	mu    sync.Mutex
	calls int
	byID  map[string]map[int64]int
}

func newRPCCounter() *rpcCounter { return &rpcCounter{byID: map[string]map[int64]int{}} }

func (c *rpcCounter) intercept(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
	c.mu.Lock()
	c.calls++
	if c.byID[req.Method] == nil {
		c.byID[req.Method] = map[int64]int{}
	}
	c.byID[req.Method][req.Body.(*request).ID]++
	c.mu.Unlock()
	return next(ctx, req)
}

func (c *rpcCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// perID returns a copy of op's per-vertex-ID request counts.
func (c *rpcCounter) perID(op string) map[int64]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int64]int, len(c.byID[op]))
	for id, n := range c.byID[op] {
		out[id] = n
	}
	return out
}

// TestReconstructMemoizesFetchesWithinOneCall: on a branching graph whose
// candidate paths share long prefixes, the fallback walk over one
// Client.View must fetch each vertex and edge list at most once per query
// — not once per path hop (the N+1 pattern this memoization removes).
// Fetches are counted where they land: at the server.
func TestReconstructMemoizesFetchesWithinOneCall(t *testing.T) {
	s := NewMemStore()
	mk := func(id, cam string, at time.Duration) int64 {
		vid, err := s.AddVertex(sightingEvent(id, cam, at, ""))
		if err != nil {
			t.Fatal(err)
		}
		return vid
	}
	// A chain a->b->c that fans out into four leaves at c: every candidate
	// path repeats the a,b,c prefix.
	a := mk("a#1", "a", 0)
	b := mk("b#1", "b", time.Second)
	c := mk("c#1", "c", 2*time.Second)
	leaves := make([]int64, 4)
	for i := range leaves {
		leaves[i] = mk(fmt.Sprintf("leaf%d#1", i), fmt.Sprintf("leaf%d", i), 3*time.Second)
	}
	for _, e := range []struct {
		from, to int64
	}{{a, b}, {b, c}} {
		if err := s.AddEdge(e.from, e.to, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	for _, leaf := range leaves {
		if err := s.AddEdge(c, leaf, 0.2); err != nil {
			t.Fatal(err)
		}
	}

	counter := newRPCCounter()
	client := serveStore(t, s, ServerOptions{Interceptors: []rpc.ServerInterceptor{counter.intercept}})
	tracks, err := ReconstructTracks(client.View(context.Background()), a, DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != len(leaves) {
		t.Fatalf("tracks = %d, want %d", len(tracks), len(leaves))
	}
	totalHops := 0
	for _, tr := range tracks {
		totalHops += len(tr.Hops)
	}
	if totalHops <= 7 {
		t.Fatalf("graph not branching enough to exercise memoization: %d total hops", totalHops)
	}
	for id, n := range counter.perID(opGetVertex) {
		if n > 1 {
			t.Errorf("vertex %d fetched %d times within one query", id, n)
		}
	}
	for id, n := range counter.perID(opOutEdges) {
		if n > 1 {
			t.Errorf("out edges of %d fetched %d times within one query", id, n)
		}
	}
	// 7 distinct vertices + 3 distinct edge-list fetches + 1 trajectory:
	// far below the naive sum over path hops.
	if calls := counter.total(); calls > 11 {
		t.Errorf("%d reads for a query the memoized walk answers in <= 11", calls)
	}
}

// TestFallbackHonoursCancelledContext: a walk over the view of a
// cancelled query fails with context.Canceled, and at most one RPC
// reaches the server.
func TestFallbackHonoursCancelledContext(t *testing.T) {
	s, ids := buildGraph(t)
	counter := newRPCCounter()
	client := serveStore(t, s, ServerOptions{Interceptors: []rpc.ServerInterceptor{counter.intercept}})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReconstructTracks(client.View(ctx), ids[0], DefaultTraceLimits())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("walk under a cancelled context: %v, want context.Canceled", err)
	}
	if n := counter.total(); n > 1 {
		t.Errorf("%d RPCs reached the server after cancel, want <= 1", n)
	}
}

// TestFallbackHonoursExpiredDeadline: a query whose deadline has already
// passed fails with context.DeadlineExceeded instead of walking.
func TestFallbackHonoursExpiredDeadline(t *testing.T) {
	s, _ := buildGraph(t)
	client := serveStore(t, s, ServerOptions{})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := FindTracks(client.View(ctx), "camA#1", DefaultTraceLimits()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("walk past its deadline: %v, want context.DeadlineExceeded", err)
	}
}

// TestFallbackRPCCountAgainstServer repeats the memoization check over a
// real connection, counting actual RPC round trips via the client's
// metrics.
func TestFallbackRPCCountAgainstServer(t *testing.T) {
	s, _ := buildGraph(t) // 4 vertices, paths share the v1 prefix
	client := serveStore(t, s, ServerOptions{})
	ctx := context.Background()

	before := client.Metrics().Calls.Value()
	tracks, err := FindTracks(client.View(ctx), "camA#1", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	rpcs := client.Metrics().Calls.Value() - before
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	// find_by_event + trajectory + 4 vertices + at most 2 edge lists: the
	// unmemoized walk needed one vertex fetch per hop (5 hops across the
	// two overlapping tracks) plus repeated edge lists.
	if rpcs > 8 {
		t.Errorf("fallback reconstruct used %d RPCs, want <= 8 with memoization", rpcs)
	}

	// Server-side: the same question in exactly one round trip.
	before = client.Metrics().Calls.Value()
	if _, err := client.ReconstructContext(ctx, "camA#1", DefaultTraceLimits()); err != nil {
		t.Fatal(err)
	}
	if rpcs := client.Metrics().Calls.Value() - before; rpcs != 1 {
		t.Errorf("server-side reconstruct used %d RPCs, want 1", rpcs)
	}
}

// TestRemoteSentinelErrors: sentinel identity survives the wire for both
// query styles, so callers can errors.Is regardless of where the walk
// ran.
func TestRemoteSentinelErrors(t *testing.T) {
	s, _ := buildGraph(t)
	client := serveStore(t, s, ServerOptions{})
	ctx := context.Background()

	if _, err := client.ReconstructContext(ctx, "ghost#9", DefaultTraceLimits()); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("server-side unknown event: %v", err)
	}
	if _, err := client.BestContext(ctx, "ghost#9", DefaultTraceLimits()); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("server-side best of unknown event: %v", err)
	}
	if _, err := FindTracks(client.View(ctx), "ghost#9", DefaultTraceLimits()); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("fallback unknown event: %v", err)
	}
	if _, err := BestTrack(client.View(ctx), "ghost#9", DefaultTraceLimits()); !errors.Is(err, ErrVertexNotFound) {
		t.Errorf("fallback best of unknown event: %v", err)
	}
}

// TestRemoteBestAndSightingsMatchLocal covers Best and Sightings over the
// remote client path against their local answers.
func TestRemoteBestAndSightingsMatchLocal(t *testing.T) {
	s, _ := buildGraph(t)
	client := serveStore(t, s, ServerOptions{})
	ctx := context.Background()

	local := s.Snapshot()
	wantBest, err := BestTrack(local, "camA#1", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	gotBest, err := client.BestContext(ctx, "camA#1", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, gotBest), mustJSON(t, wantBest)) {
		t.Errorf("remote best diverged:\n got: %s\nwant: %s", mustJSON(t, gotBest), mustJSON(t, wantBest))
	}

	wantHops, err := SightingsOf(local, int64(s.NumVertices()), "veh-1")
	if err != nil {
		t.Fatal(err)
	}
	gotHops, err := client.SightingsContext(ctx, "veh-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotHops) != 3 || !bytes.Equal(mustJSON(t, gotHops), mustJSON(t, wantHops)) {
		t.Errorf("remote sightings diverged:\n got: %s\nwant: %s", mustJSON(t, gotHops), mustJSON(t, wantHops))
	}
	// The fallback SightingsOf over the per-vertex ops agrees too.
	fbHops, err := SightingsOf(client.View(ctx), int64(s.NumVertices()), "veh-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, fbHops), mustJSON(t, wantHops)) {
		t.Errorf("fallback sightings diverged")
	}
}

// TestRemoteQueryDeadline: a server-side query that outlives the caller's
// context surfaces as a deadline error through the rpc middleware, and
// the client's deadline counter records it.
func TestRemoteQueryDeadline(t *testing.T) {
	s, _ := buildGraph(t)
	slow := func(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
		if req.Method == "reconstruct" {
			time.Sleep(500 * time.Millisecond)
		}
		return next(ctx, req)
	}
	client := serveStore(t, s, ServerOptions{Interceptors: []rpc.ServerInterceptor{slow}})

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	before := client.Metrics().DeadlineExceeded.Value()
	_, err := client.ReconstructContext(ctx, "camA#1", DefaultTraceLimits())
	if err == nil {
		t.Fatal("query against a slow server beat an 80ms deadline")
	}
	if !rpc.IsDeadlineError(err) {
		t.Errorf("error is not a deadline error: %v", err)
	}
	if got := client.Metrics().DeadlineExceeded.Value(); got != before+1 {
		t.Errorf("deadline counter = %d, want %d", got, before+1)
	}
}
