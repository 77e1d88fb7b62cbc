// Command coral-node runs one Coral-Pie camera node over real TCP: the
// per-camera continuous processing (detection, SORT tracking, feature
// extraction, the informing/confirming protocol, re-identification) plus
// the storage clients, fed by a synthetic camera stream.
//
// All nodes of a deployment simulate the same deterministic traffic on a
// shared corridor, anchored at a shared epoch, so cross-camera
// re-identification works across processes exactly as it would with real
// synchronized cameras. A typical 3-camera deployment:
//
//	coral-node -dump-graph corridor.json -corridor-cameras 3
//	topology-server -listen :7000 -graph corridor.json
//	trajstore-server -listen :7001
//	epoch=$(($(date +%s)+5))
//	coral-node -id cam0 -corridor-index 0 -listen :7100 -epoch $epoch &
//	coral-node -id cam1 -corridor-index 1 -listen :7101 -epoch $epoch &
//	coral-node -id cam2 -corridor-index 2 -listen :7102 -epoch $epoch &
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/camnode"
	"repro/internal/clock"
	"repro/internal/daemon"
	"repro/internal/des"
	"repro/internal/framestore"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

var (
	id          = flag.String("id", "cam0", "camera identity")
	listen      = flag.String("listen", "127.0.0.1:0", "inter-camera listen address")
	topoAddr    = flag.String("topology", "127.0.0.1:7000", "topology server address")
	trajAddr    = flag.String("trajstore", "127.0.0.1:7001", "trajectory store address")
	frameAddr   = flag.String("framestore", "", "comma-separated frame store addresses; >1 replicates every frame to all of them (empty = do not store frames)")
	frameQuorum = flag.Int("framestore-quorum", 1, "replicas that must accept a frame for the send to count as delivered")
	heartbeat   = flag.Duration("heartbeat", 2*time.Second, "heartbeat interval")

	cameras   = flag.Int("corridor-cameras", 3, "cameras on the shared demo corridor")
	index     = flag.Int("corridor-index", 0, "this node's position on the corridor")
	spacing   = flag.Float64("spacing", 150, "corridor intersection spacing in meters")
	vehicles  = flag.Int("vehicles", 8, "demo vehicles driving the corridor")
	seed      = flag.Int64("seed", 1, "traffic seed (must match across nodes)")
	duration  = flag.Duration("duration", time.Minute, "stream duration")
	epochUnix = flag.Int64("epoch", 0, "shared traffic epoch (unix seconds; 0 = now+3s)")

	dumpGraph = flag.String("dump-graph", "", "write the corridor road graph JSON here and exit")
)

func main() {
	daemon.Main("coral-node", "127.0.0.1:0", daemon.Trace|daemon.Node, run)
}

func run(rt *daemon.Runtime) error {
	if rt.Fleet.NodeID == "" {
		rt.Fleet.NodeID = *id // the camera identity is the natural fleet identity
	}
	rt.Logger = rt.Logger.With("camera", *id)
	logger, ctx := rt.Logger, rt.Context()

	origin := geo.Point{Lat: 33.7756, Lon: -84.3963}
	graph, nodes, err := roadnet.Corridor(*cameras, *spacing, origin)
	if err != nil {
		return err
	}

	if *dumpGraph != "" {
		f, err := os.Create(*dumpGraph)
		if err != nil {
			return err
		}
		if err := graph.WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d-intersection corridor graph to %s\n", graph.NumNodes(), *dumpGraph)
		return nil
	}

	if *index < 0 || *index >= len(nodes) {
		return fmt.Errorf("corridor-index %d out of [0,%d)", *index, len(nodes))
	}
	myNode, err := graph.Node(nodes[*index])
	if err != nil {
		return err
	}

	// Shared deterministic traffic: every node builds the identical world.
	camera, err := buildDemoWorld(graph, nodes, myNode.Pos, *index)
	if err != nil {
		return err
	}

	ep, err := transport.ListenTCPConfig(*listen, transport.TCPConfigFromFlags(rt.RPC))
	if err != nil {
		return err
	}
	rt.OnIntake("transport", ep.Shutdown)
	ep.Use(obs.Default())
	// The ID prefix keeps span IDs globally unique across the deployment's
	// nodes, so a cross-camera trace assembles without collisions.
	tracer := rt.NewTracer(4096, *id+"-")

	trajCfg := trajstore.ClientConfigFromFlags(rt.RPC)
	trajCfg.Registry = obs.Default()
	trajClient, err := trajstore.DialContext(ctx, *trajAddr, trajCfg)
	if err != nil {
		return fmt.Errorf("trajectory store: %w", err)
	}
	// Buffer edge writes client-side: a re-id edge leaves at once when the
	// line is idle and rides the next add_batch when it is not. Close
	// drains the buffer before the underlying client goes away.
	trajWriter := trajstore.NewBatchWriter(trajClient, trajstore.BatchWriterConfig{Registry: obs.Default()})
	rt.OnClose("trajstore writer", trajWriter.Close)
	rt.OnClose("trajstore client", trajClient.Close)

	detector, err := vision.NewSimDetector(vision.DefaultSimDetectorConfig(*seed))
	if err != nil {
		return err
	}
	cfg := camnode.Config{
		CameraID:           *id,
		Position:           myNode.Pos,
		HeadingDeg:         0,
		TopologyServerAddr: *topoAddr,
		Detector:           detector,
		PostProcess:        vision.PostProcessConfig{MinConfidence: vision.DefaultMinConfidence},
		Tracker:            tracker.Config{MaxAge: 3, MinHits: 3, IoUThreshold: 0.25},
		Matcher:            reid.DefaultMatcherConfig(),
		Pool:               reid.DefaultPoolConfig(),
		TrajStore:          trajWriter,
		Clock:              clock.Real{},
		Registry:           obs.Default(),
		Tracer:             tracer,
	}
	if *frameAddr != "" {
		addrs := strings.Split(*frameAddr, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		mc, err := framestore.NewMultiClient(ep, addrs, framestore.MultiClientConfig{
			CallTimeout: rt.RPC.CallTimeout,
			RetryBudget: rt.RPC.RetryBudget,
			Quorum:      *frameQuorum,
			Registry:    obs.Default(),
		})
		if err != nil {
			return err
		}
		cfg.FrameStore = mc
		cfg.StoreFrames = true
	}
	node, err := camnode.New(cfg, ep)
	if err != nil {
		return err
	}
	if err := node.Topology().StartHeartbeats(ctx, *heartbeat); err != nil {
		return err
	}
	rt.OnClose("topology client", node.Topology().Close)

	checks := []obs.NamedCheck{
		{Name: "pipeline", Check: nil}, // liveness of the process itself
		// The batch writer surfaces the last flush failure; a node
		// that cannot commit edges is serving but not healthy.
		{Name: "trajstore", Check: trajWriter.Err},
	}
	if err := rt.Serve(obs.Default(), checks, nil); err != nil {
		return err
	}

	epoch := time.Unix(*epochUnix, 0)
	if *epochUnix == 0 {
		epoch = time.Now().Add(3 * time.Second)
	}
	source, err := sim.NewRealtimeSourceAt(camera, epoch, *duration)
	if err != nil {
		return err
	}

	logger.Info("listening",
		"addr", ep.Addr(),
		"corridor", fmt.Sprintf("%d/%d", *index, *cameras),
		"epoch", epoch.Format(time.RFC3339))
	// RunLive exits on stream end or on SIGINT/SIGTERM (ctx cancel); a
	// cancelled run still flushes live tracks and returns nil, so the
	// process exits 0 on a clean signal-driven stop.
	if err := node.RunLive(ctx, source); err != nil {
		return err
	}
	if ctx.Err() != nil {
		logger.Info("interrupted; draining")
	}
	rt.Shutdown()

	st := node.Stats()
	logger.Info("done",
		"frames", fmt.Sprint(st.FramesProcessed),
		"events", fmt.Sprint(st.EventsGenerated),
		"informsSent", fmt.Sprint(st.InformsSent),
		"informsRecv", fmt.Sprint(st.InformsReceived),
		"reidMatches", fmt.Sprint(st.ReidMatches))
	return nil
}

// buildDemoWorld constructs the deterministic shared traffic and this
// node's camera view. The discrete-event simulator inside the world is
// unused (rendering is driven by wall-clock Render calls); it only
// anchors timestamps.
func buildDemoWorld(graph *roadnet.Graph, nodes []roadnet.NodeID, pos geo.Point, index int) (*sim.Camera, error) {
	world, err := sim.NewWorld(sim.WorldConfig{
		Sim:   des.New(time.Unix(0, 0).UTC()),
		Graph: graph,
	})
	if err != nil {
		return nil, err
	}
	if err := sim.AddDemoTraffic(world, nodes, *vehicles, *seed); err != nil {
		return nil, err
	}
	return world.AddCamera(sim.DefaultCameraSpec(fmt.Sprintf("view-%d", index), pos, 0), func(*vision.Frame) {})
}
