// Command coral-sim runs a complete simulated Coral-Pie deployment on the
// discrete-event simulator: cameras along a corridor (or on the campus
// network), synthetic traffic, the topology server, trajectory and frame
// stores — then prints per-camera statistics and the reconstructed
// trajectory of a chosen vehicle.
//
// Usage:
//
//	coral-sim -cameras 5 -vehicles 20 -fail cam3@40s
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/rpc/faultinject"
	"repro/internal/sim"
	"repro/internal/trajstore"
)

var (
	cameras   = flag.Int("cameras", 5, "cameras along the corridor")
	spacing   = flag.Float64("spacing", 150, "intersection spacing in meters")
	vehicles  = flag.Int("vehicles", 12, "vehicles driving the corridor")
	seed      = flag.Int64("seed", 42, "randomness seed")
	heartbeat = flag.Duration("heartbeat", 2*time.Second, "camera heartbeat interval")
	failSpec  = flag.String("fail", "", "fail a camera mid-run, e.g. cam2@40s")

	storeFrames   = flag.Bool("store-frames", false, "ship raw frames to the simulated frame store")
	frameReplicas = flag.Int("frame-replicas", 1, "frame-store replicas; >1 fans every frame out to all of them")
	monitor       = flag.Bool("monitor", false, "run the in-sim fleet monitor and serve /cluster* on -obs-listen")

	faultDrop    = flag.Float64("fault-drop-rate", 0, "drop each network message with this probability, in [0,1)")
	faultErr     = flag.Float64("fault-error-rate", 0, "fail each network send with an injected error with this probability, in [0,1)")
	faultLatency = flag.Duration("fault-latency", 0, "extra latency added to every network message")
	faultJitter  = flag.Duration("fault-latency-jitter", 0, "uniform extra latency in [0,jitter) per message, drawn from the seeded fault RNG")
	track        = flag.String("track", "veh-00", "vehicle whose trajectory to reconstruct")
	dumpObs      = flag.Bool("dump-metrics", false, "print the final Prometheus metric snapshot")
)

func main() { daemon.Main("coral-sim", "", daemon.Trace, run) }

func run(rt *daemon.Runtime) error {
	logger, ctx := rt.Logger, rt.Context()

	graph, nodes, err := roadnet.Corridor(*cameras, *spacing, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(core.Config{
		Graph:             graph,
		Seed:              *seed,
		HeartbeatInterval: *heartbeat,
		TraceSampleEvery:  rt.TraceSample,
		StoreFrames:       *storeFrames,
		FrameReplicas:     *frameReplicas,
		EnableMonitor:     *monitor,
		// The fault RNG is derived from -seed inside NewSystem, so two
		// runs with the same seed inject the same faults.
		Fault: faultinject.Config{
			DropRate:      *faultDrop,
			ErrorRate:     *faultErr,
			Latency:       *faultLatency,
			LatencyJitter: *faultJitter,
		},
	})
	if err != nil {
		return err
	}
	// Flushes and closes the simulated stores; Stop and FlushAll below
	// have already run by then.
	rt.OnDrain("system", sys.Shutdown)
	rt.UseTracer(sys.Tracer())

	var camIDs []string
	for i, node := range nodes {
		id := fmt.Sprintf("cam%d", i)
		if err := sys.AddCameraAt(id, node, 0); err != nil {
			return err
		}
		camIDs = append(camIDs, id)
	}

	if err := sim.AddDemoTraffic(sys.World(), nodes, *vehicles, *seed); err != nil {
		return err
	}

	// The mux serves the simulated deployment's registry, not the
	// process default; -monitor adds the in-sim /cluster* routes.
	if err := rt.Serve(sys.Telemetry(), nil, sys.Monitor()); err != nil {
		return err
	}

	sys.Start(ctx)

	if *failSpec != "" {
		victim, at, err := parseFail(*failSpec)
		if err != nil {
			return err
		}
		sys.Sim().Schedule(at, func() {
			if err := sys.FailCamera(victim); err != nil {
				logger.Error("fail camera", "camera", victim, "err", err)
				return
			}
			logger.Info("camera failed", "camera", victim, "t", sys.Sim().Now())
		})
	}

	horizon := sys.World().LastVehicleDone() + 30*time.Second
	fmt.Printf("running %d cameras, %d vehicles for %v of virtual time...\n",
		*cameras, *vehicles, horizon.Round(time.Second))
	sys.Run(horizon)
	if ctx.Err() != nil {
		logger.Info("interrupted; flushing", "t", sys.Sim().Now())
	}
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		return err
	}

	fmt.Println("\nper-camera statistics:")
	fmt.Printf("  %-8s %8s %8s %12s %12s %12s\n", "camera", "frames", "events", "informsSent", "informsRecv", "reidMatches")
	for _, id := range camIDs {
		node, err := sys.Node(id)
		if err != nil {
			return err
		}
		st := node.Stats()
		fmt.Printf("  %-8s %8d %8d %12d %12d %12d\n",
			id, st.FramesProcessed, st.EventsGenerated, st.InformsSent, st.InformsReceived, st.ReidMatches)
	}

	if m := sys.Monitor(); m != nil {
		sum := m.Summary()
		fmt.Printf("\nfleet health: %d alive, %d dead\n", sum.Alive, sum.Dead)
		for _, tr := range sum.Transitions {
			fmt.Printf("  %-12s %s -> %s at t=%s\n", tr.NodeID, tr.From, tr.To, tr.At.Format("15:04:05"))
		}
	}

	store := sys.TrajStore()
	fmt.Printf("\ntrajectory graph: %d vertices, %d edges\n", store.NumVertices(), store.NumEdges())
	if err := printTrajectory(store, *track); err != nil {
		fmt.Printf("trajectory of %s: %v\n", *track, err)
	}

	if *dumpObs {
		fmt.Println("\nfinal metric snapshot:")
		if err := sys.Telemetry().WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}

	return nil // daemon.Main shuts down telemetry and the system's stores
}

// parseFail splits "cam2@40s" into its camera and instant.
func parseFail(spec string) (string, time.Duration, error) {
	parts := strings.SplitN(spec, "@", 2)
	if len(parts) != 2 {
		return "", 0, fmt.Errorf("bad -fail spec %q, want camera@duration", spec)
	}
	at, err := time.ParseDuration(parts[1])
	if err != nil {
		return "", 0, fmt.Errorf("bad -fail time: %w", err)
	}
	return parts[0], at, nil
}

// printTrajectory reconstructs and prints the space-time track of a
// ground-truth vehicle, starting from its earliest event.
func printTrajectory(store *trajstore.Store, vehicleID string) error {
	var starts []trajstore.Vertex
	for vid := int64(1); vid <= int64(store.NumVertices()); vid++ {
		v, err := store.Vertex(vid)
		if err != nil {
			continue
		}
		if v.Event.TruthID == vehicleID {
			starts = append(starts, v)
		}
	}
	if len(starts) == 0 {
		return fmt.Errorf("no events recorded")
	}
	sort.Slice(starts, func(i, j int) bool {
		return starts[i].Event.Timestamp.Before(starts[j].Event.Timestamp)
	})
	paths, err := store.Trajectory(starts[0].ID, trajstore.DefaultTraceLimits())
	if err != nil {
		return err
	}
	fmt.Printf("space-time track of %s (%d candidate path(s)):\n", vehicleID, len(paths))
	for _, path := range paths {
		var hops []string
		for _, vid := range path {
			v, err := store.Vertex(vid)
			if err != nil {
				return err
			}
			hops = append(hops, fmt.Sprintf("%s@%s", v.Event.CameraID, v.Event.Timestamp.Format("15:04:05")))
		}
		fmt.Printf("  %s\n", strings.Join(hops, " -> "))
	}
	return nil
}
