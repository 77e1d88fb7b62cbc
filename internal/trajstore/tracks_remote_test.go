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
// vehicle IDs, varied cameras, and increasing timestamps. Given zones,
// sighting i's timestamp is expressed in zones[i%len(zones)].
func randomStore(t *testing.T, seed int64, zones ...*time.Location) (*Store, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewMemStore()
	n := 3 + rng.Intn(18)
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		cam := fmt.Sprintf("cam%d", rng.Intn(6))
		e := sightingEvent(fmt.Sprintf("%s#%d", cam, i), cam,
			time.Duration(i*5+rng.Intn(5))*time.Second, fmt.Sprintf("veh-%d", rng.Intn(4)))
		if len(zones) > 0 {
			e.Timestamp = e.Timestamp.In(zones[i%len(zones)])
		}
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
// same store.
func TestServerSideEquivalenceRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, ids := randomStore(t, seed)
			checkServerSideEquivalence(t, s, ids, seed)
		})
	}
}

// TestServerSideEquivalenceLocalZone is the same contract with time.Local
// set to a zone that is not UTC, and the sightings stamped in it, in UTC
// and in two fixed zones, one of them with a seconds offset. A binary
// answer keeps each hop time's offset, so the remote answers still
// marshal to the local walk's bytes.
func TestServerSideEquivalenceLocalZone(t *testing.T) {
	saved := time.Local
	time.Local = time.FixedZone("ACST", 9*3600+30*60)
	t.Cleanup(func() { time.Local = saved })
	zones := []*time.Location{time.Local, time.UTC,
		time.FixedZone("", -(3*3600 + 30*60)), time.FixedZone("LMT", 5*3600+53*60+28)}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, ids := randomStore(t, seed, zones...)
			checkServerSideEquivalence(t, s, ids, seed)
		})
	}
}

// checkServerSideEquivalence serves s and checks that the client's
// reconstruct, best and sightings answers marshal to the same JSON as the
// local walk over a snapshot.
func checkServerSideEquivalence(t *testing.T, s *Store, ids []int64, seed int64) {
	t.Helper()
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
}

// rpcCounter is a server interceptor counting the requests that reach
// the server.
type rpcCounter struct {
	mu    sync.Mutex
	calls int
}

func (c *rpcCounter) intercept(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return next(ctx, req)
}

func (c *rpcCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// TestFallbackHonoursCancelledContext (named for the client-side walk it
// first covered): a query under a cancelled context fails with
// context.Canceled, and at most one RPC reaches the server.
func TestFallbackHonoursCancelledContext(t *testing.T) {
	s, ids := buildGraph(t)
	counter := &rpcCounter{}
	client := serveStore(t, s, ServerOptions{Interceptors: []rpc.Interceptor{counter.intercept}})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := client.ReconstructVertexContext(ctx, ids[0], DefaultTraceLimits())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("query under a cancelled context: %v, want context.Canceled", err)
	}
	if n := counter.total(); n > 1 {
		t.Errorf("%d RPCs reached the server after cancel, want <= 1", n)
	}
}

// TestFallbackRPCCountAgainstServer (named for the client-side walk it
// once measured): a whole reconstruction is exactly one round trip,
// counted via the client's metrics over a real connection.
func TestFallbackRPCCountAgainstServer(t *testing.T) {
	s, _ := buildGraph(t)
	client := serveStore(t, s, ServerOptions{})

	before := client.Metrics().Calls.Value()
	tracks, err := client.ReconstructContext(context.Background(), "camA#1", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	if rpcs := client.Metrics().Calls.Value() - before; rpcs != 1 {
		t.Errorf("server-side reconstruct used %d RPCs, want 1", rpcs)
	}
}

// TestRemoteSentinelErrors: sentinel identity survives the wire, so
// remote callers can errors.Is just as local ones do.
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
	client := serveStore(t, s, ServerOptions{Interceptors: []rpc.Interceptor{slow}})

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
