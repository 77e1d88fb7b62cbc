package trajstore

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/protocol"
)

// BenchmarkQueryPath measures the read path of the trajectory store over
// loopback TCP on a 20-hop trajectory: the server-side reconstruct op,
// one round trip against a snapshot, its answer a binary record. A
// background writer streams batches of unrelated vertices throughout, so
// queries run beside writes, as in a deployment. It reports rpcs/op, the
// round-trip count per reconstructed trajectory, and allocations.
func BenchmarkQueryPath(b *testing.B) {
	const hops = 20 // 21 vertices, 20 links
	s := NewMemStore()
	ids := make([]int64, hops+1)
	for i := range ids {
		id, err := s.AddVertex(sightingEvent(fmt.Sprintf("cam%d#1", i), fmt.Sprintf("cam%d", i),
			time.Duration(i)*5*time.Second, "veh-0"))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := s.AddEdge(ids[i], ids[i+1], 0.1); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	limits := TraceLimits{MaxDepth: 64, MaxPaths: 8}
	ctx := context.Background()

	startWriter := func(b *testing.B) func() {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			w, err := DialContext(ctx, srv.Addr(), ClientConfig{})
			if err != nil {
				return
			}
			defer func() { _ = w.Close() }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := []protocol.TrajWrite{
					protocol.VertexWrite(sightingEvent(fmt.Sprintf("bg%d#a", i), "bg", 0, "")),
					protocol.VertexWrite(sightingEvent(fmt.Sprintf("bg%d#b", i), "bg", 0, "")),
				}
				if _, _, err := w.AddBatchContext(ctx, batch); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		return func() { close(stop); <-done }
	}

	b.Run("serverside", func(b *testing.B) {
		client, err := DialContext(ctx, srv.Addr(), ClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = client.Close() }()
		stopWriter := startWriter(b)
		defer stopWriter()
		callsBefore := client.Metrics().Calls.Value()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tracks, err := client.ReconstructVertexContext(ctx, ids[0], limits)
			if err != nil {
				b.Fatal(err)
			}
			if len(tracks) == 0 || len(tracks[0].Hops) != hops+1 {
				b.Fatalf("got %d tracks", len(tracks))
			}
		}
		b.StopTimer()
		rpcs := client.Metrics().Calls.Value() - callsBefore
		b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/op")
	})
}
