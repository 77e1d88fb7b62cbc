// Command trajquery is the query interface the paper defers to future
// work (Section 8): it connects to a running trajectory store server and
// reconstructs the space-time track of a vehicle from any known sighting.
//
// The reconstruction executes inside the server: one round trip against
// a consistent snapshot via the reconstruct/best/sightings ops, over the
// binary request/answer wire. A server that answers in JSON, from before
// that wire, fails the call with trajstore.ErrJSONWire.
//
// Usage:
//
//	trajquery -server 127.0.0.1:7001 -event cam1#42
//	trajquery -server 127.0.0.1:7001 -event cam1#42 -best
//	trajquery -server 127.0.0.1:7001 -vertex 7 -max-depth 16
//	trajquery -server 127.0.0.1:7001 -vehicle veh-03
//	trajquery -server 127.0.0.1:7001 -stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/protocol"
	"repro/internal/rpc"
	"repro/internal/trajstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		server   = flag.String("server", "127.0.0.1:7001", "trajectory store server address")
		eventID  = flag.String("event", "", "start from a detection event id (camera#track)")
		vertexID = flag.Int64("vertex", 0, "start from a trajectory-graph vertex id")
		vehicle  = flag.String("vehicle", "", "list the ground-truth sightings of a vehicle id")
		best     = flag.Bool("best", false, "print only the top-ranked track")
		maxDepth = flag.Int("max-depth", 64, "traversal depth limit")
		maxPaths = flag.Int("max-paths", 32, "candidate path limit")
		stats    = flag.Bool("stats", false, "print store statistics and exit")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-RPC deadline for store calls (overrides -rpc-call-timeout)")
	)
	rpcFlags := rpc.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	cfg := trajstore.ClientConfigFromFlags(rpcFlags)
	cfg.CallTimeout = *timeout
	client, err := trajstore.DialContext(ctx, *server, cfg)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	if *stats {
		vertices, edges, err := client.StatsContext(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("trajectory graph: %d events, %d re-identification links\n", vertices, edges)
		return nil
	}

	if *vehicle != "" {
		hops, err := client.SightingsContext(ctx, *vehicle, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%d ground-truth sighting(s) of %s:\n", len(hops), *vehicle)
		for i, h := range hops {
			fmt.Printf("  %2d. %s at %s (vertex %d)\n",
				i+1, h.Camera, h.Time.Format("2006-01-02 15:04:05 MST"), h.VertexID)
		}
		return nil
	}

	limits := trajstore.TraceLimits{MaxDepth: *maxDepth, MaxPaths: *maxPaths}

	var start trajstore.Vertex
	switch {
	case *eventID != "":
		start, err = client.FindByEventIDContext(ctx, protocol.EventID(*eventID))
	case *vertexID > 0:
		start, err = client.VertexContext(ctx, *vertexID)
	default:
		return fmt.Errorf("one of -event, -vertex, -vehicle, or -stats is required")
	}
	if err != nil {
		return err
	}

	var tracks []trajstore.Track
	if *best {
		var track trajstore.Track
		track, err = client.BestContext(ctx, start.Event.ID, limits)
		tracks = []trajstore.Track{track}
	} else {
		tracks, err = client.ReconstructVertexContext(ctx, start.ID, limits)
	}
	if err != nil {
		return err
	}

	fmt.Printf("sighting: %s at %s (%s)\n",
		start.Event.ID, start.Event.CameraID,
		start.Event.Timestamp.Format("2006-01-02 15:04:05 MST"))
	fmt.Printf("%d candidate space-time track(s), most plausible first:\n", len(tracks))
	for i, track := range tracks {
		hops := make([]string, 0, len(track.Hops))
		for _, h := range track.Hops {
			hops = append(hops, fmt.Sprintf("%s@%s", h.Camera, h.Time.Format("15:04:05")))
		}
		fmt.Printf("  %2d. %s  (%d hops, %v, mean link distance %.3f)\n",
			i+1, strings.Join(hops, " -> "), len(track.Hops),
			track.Duration.Round(time.Second), track.MeanWeight)
	}
	return nil
}
