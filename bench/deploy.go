package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/camnode"
	"repro/internal/clock"
	"repro/internal/framestore"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/rpc"
	"repro/internal/topology"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

// The daemons' flag defaults (cmd/*, rpc.RegisterFlags), which the
// in-process deployment reuses so it is wired as the binaries are.
const (
	heartbeatEvery  = 2 * time.Second
	snapToNodeM     = 30
	rpcCallTimeout  = 5 * time.Second
	rpcDialTimeout  = 2 * time.Second
	rpcBackoffBase  = 50 * time.Millisecond
	rpcBackoffMax   = time.Second
	rpcRetryBudget  = 1
	frameReplicas   = 2
	frameQuorum     = 2
	shutdownTimeout = 5 * time.Second
)

func tcpConfig() transport.TCPConfig {
	return transport.TCPConfig{
		DialTimeout:     rpcDialTimeout,
		SendTimeout:     rpcCallTimeout,
		DialBackoffBase: rpcBackoffBase,
		DialBackoffMax:  rpcBackoffMax,
		RetryBudget:     rpcRetryBudget,
	}
}

func trajClientConfig(reg *obs.Registry) trajstore.ClientConfig {
	return trajstore.ClientConfig{
		CallTimeout:     rpcCallTimeout,
		DialBackoffBase: rpcBackoffBase,
		DialBackoffMax:  rpcBackoffMax,
		RetryBudget:     rpcRetryBudget,
		Registry:        reg,
	}
}

// storeWriter is one process's write handle on the trajectory store:
// trajstore.Client + BatchWriter with defaults, as coral-node builds
// them, behind the benchmark's probes.
type storeWriter struct {
	client *trajstore.Client
	writer *trajstore.BatchWriter
	store  *storeProbe
	probe  *writerProbe
}

func dialStoreWriter(ctx context.Context, addr string, reg *obs.Registry, rec *recorder, rootName string) (*storeWriter, error) {
	client, err := trajstore.DialContext(ctx, addr, trajClientConfig(reg))
	if err != nil {
		return nil, err
	}
	probe := newWriterProbe(rec, rootName)
	var bc trajstore.BatchClient = client
	if rec != nil {
		bc = &batchClientProbe{inner: client, p: probe}
	}
	writer := trajstore.NewBatchWriter(bc, trajstore.BatchWriterConfig{})
	return &storeWriter{client: client, writer: writer, probe: probe,
		store: &storeProbe{inner: writer, p: probe}}, nil
}

func (w *storeWriter) close() error {
	return errors.Join(w.writer.Close(), w.client.Close())
}

// camNode is one coral-node: its endpoint, store writer, frame client and
// registry, all its own as they would be in its own process.
type camNode struct {
	id   string
	node *camnode.Node
	ep   *transport.TCP
	reg  *obs.Registry
	sw   *storeWriter
}

// frameReplica is one framestore-server.
type frameReplica struct {
	store *framestore.Store
	ep    *transport.TCP
	srv   *framestore.Server
	reg   *obs.Registry
}

type setupTiming struct {
	convergeS float64 // last node booted → every node holds its full MDCS table
	totalS    float64
}

// deployment is the whole system on loopback TCP inside this process.
type deployment struct {
	dir   string
	world *ingestWorld

	topoEP  *transport.TCP
	topoSrv *topology.Server

	store   *trajstore.Store
	trajSrv *trajstore.Server

	replicas []*frameReplica
	nodes    []*camNode

	graph   *queryGraph
	frames  *frameLog
	informs *informLog
	setup   setupTiming
}

type deployConfig struct {
	sc          scale
	seed        int64
	tmpRoot     string    // run data goes in a fresh directory under here
	storeFrames bool      // ship every frame to the frame stores (frame_flood)
	rec         *recorder // nil: untraced pass
}

// deploy boots topology server, trajectory store (WAL on disk), frame
// store replicas and camera nodes, waits until every node holds its full
// MDCS table, and preloads the query graph. The elapsed time is setup_s.
func deploy(ctx context.Context, cfg deployConfig) (d *deployment, err error) {
	start := time.Now()
	d = &deployment{
		frames:  &frameLog{seed: uint32(cfg.seed), sampleEvery: cfg.sc.frameSampleEvery, sums: make(map[frameKey]uint32)},
		informs: &informLog{sent: make(map[informKey]time.Time)},
	}
	defer func() {
		if err != nil {
			_ = d.close()
		}
	}()
	if d.dir, err = os.MkdirTemp(cfg.tmpRoot, "run-*"); err != nil {
		return nil, err
	}
	if d.world, err = newIngestWorld(cfg.sc, cfg.seed); err != nil {
		return nil, err
	}

	// topology-server
	topoReg := obs.NewRegistry()
	if d.topoEP, err = transport.ListenTCPConfig("127.0.0.1:0", tcpConfig()); err != nil {
		return nil, err
	}
	d.topoEP.Use(topoReg)
	d.topoSrv, err = topology.NewServer(d.world.graph.Clone(), d.topoEP, clock.Real{}, topology.ServerConfig{
		LivenessTimeout:  2 * heartbeatEvery,
		SnapToNodeMeters: snapToNodeM,
		Registry:         topoReg,
	})
	if err != nil {
		return nil, err
	}
	if err = d.topoSrv.Start(ctx, heartbeatEvery/2); err != nil {
		return nil, err
	}

	// trajstore-server -dir <tmp>
	trajReg := obs.NewRegistry()
	if d.store, err = trajstore.OpenWithConfig(filepath.Join(d.dir, "traj"), trajstore.StoreConfig{}); err != nil {
		return nil, err
	}
	d.store.Instrument(trajReg, nil)
	d.store.UseTracer(obs.NewTracerWith(obs.TracerConfig{Capacity: 4096, IDPrefix: "traj-", SampleEvery: 1}))
	d.trajSrv, err = trajstore.ServeWith(d.store, "127.0.0.1:0", trajstore.ServerOptions{
		WriteTimeout: rpcCallTimeout,
		Logger:       obs.NewLogger(os.Stderr, obs.LevelInfo, obs.FormatText).WithComponent("trajstore-server"),
		Registry:     trajReg,
		QueryCache:   trajstore.DefaultQueryCacheSize,
	})
	if err != nil {
		return nil, err
	}

	// framestore-server × replicas, retention on so GC runs
	var frameAddrs []string
	for i := 0; i < frameReplicas; i++ {
		r := &frameReplica{reg: obs.NewRegistry()}
		d.replicas = append(d.replicas, r)
		r.store, err = framestore.OpenStoreConfig(filepath.Join(d.dir, fmt.Sprintf("frames%d", i)), framestore.Config{
			SegmentBytes: cfg.sc.segmentBytes,
			RetainBytes:  cfg.sc.retainBytes,
		})
		if err != nil {
			return nil, err
		}
		r.store.Instrument(r.reg, nil)
		r.store.UseTracer(obs.NewTracerWith(obs.TracerConfig{Capacity: 1024, IDPrefix: "fs-"}))
		if r.ep, err = transport.ListenTCPConfig("127.0.0.1:0", tcpConfig()); err != nil {
			return nil, err
		}
		r.ep.Use(r.reg)
		if r.srv, err = framestore.NewServer(r.store, r.ep); err != nil {
			return nil, err
		}
		r.srv.Use(r.reg, nil)
		frameAddrs = append(frameAddrs, r.ep.Addr())
	}

	// coral-node × cameras
	for i, id := range d.world.camIDs {
		n, err := d.bootNode(ctx, cfg, id, d.world.camPos[i], frameAddrs)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	booted := time.Now()
	if err = d.awaitMDCS(ctx); err != nil {
		return nil, err
	}
	converged := time.Now()

	if d.graph, err = preloadQueryGraph(d.store, cfg.sc, cfg.seed); err != nil {
		return nil, err
	}
	d.setup = setupTiming{convergeS: converged.Sub(booted).Seconds(), totalS: time.Since(start).Seconds()}
	return d, nil
}

func (d *deployment) bootNode(ctx context.Context, cfg deployConfig, id string, pos geo.Point, frameAddrs []string) (n *camNode, err error) {
	n = &camNode{id: id, reg: obs.NewRegistry()}
	if n.ep, err = transport.ListenTCPConfig("127.0.0.1:0", tcpConfig()); err != nil {
		return nil, err
	}
	n.ep.Use(n.reg)
	defer func() {
		if err != nil {
			_ = n.ep.Close()
			if n.sw != nil {
				_ = n.sw.close()
			}
		}
	}()
	if n.sw, err = dialStoreWriter(ctx, d.trajSrv.Addr(), n.reg, cfg.rec, "handoff"); err != nil {
		return nil, fmt.Errorf("%s: trajectory store: %w", id, err)
	}
	var ep transport.Endpoint = n.ep
	detector, err := vision.NewSimDetector(vision.DefaultSimDetectorConfig(cfg.seed))
	if err != nil {
		return nil, err
	}
	var det vision.Detector = detector
	if cfg.rec != nil {
		ep = &endpointProbe{inner: n.ep, p: n.sw.probe, informs: d.informs}
		det = &detectorProbe{inner: detector, p: n.sw.probe}
	}
	nodeCfg := camnode.Config{
		CameraID:           id,
		Position:           pos,
		TopologyServerAddr: d.topoEP.Addr(),
		Detector:           det,
		PostProcess:        vision.PostProcessConfig{MinConfidence: vision.DefaultMinConfidence},
		Tracker:            tracker.Config{MaxAge: 3, MinHits: 3, IoUThreshold: 0.25},
		Matcher:            reid.DefaultMatcherConfig(),
		Pool:               reid.DefaultPoolConfig(),
		TrajStore:          n.sw.store,
		Clock:              clock.Real{},
		Registry:           n.reg,
		Tracer: obs.NewTracerWith(obs.TracerConfig{
			Clock: clock.Real{}, Capacity: 4096, IDPrefix: id + "-", SampleEvery: 1,
		}),
	}
	if cfg.storeFrames {
		mc, err := framestore.NewMultiClient(ep, frameAddrs, framestore.MultiClientConfig{
			CallTimeout: rpcCallTimeout,
			RetryBudget: rpcRetryBudget,
			Quorum:      frameQuorum,
			Registry:    n.reg,
		})
		if err != nil {
			return nil, err
		}
		nodeCfg.FrameStore = &sinkProbe{inner: mc, log: d.frames, rec: cfg.rec}
		nodeCfg.StoreFrames = true
	}
	if cfg.rec != nil {
		addr := n.ep.Addr()
		nodeCfg.Hooks.OnInformReceived = func(e protocol.DetectionEvent, at time.Time) {
			d.informs.received(informKey{e.ID, addr}, at)
		}
	}
	if n.node, err = camnode.New(nodeCfg, ep); err != nil {
		return nil, err
	}
	if err = n.node.Topology().StartHeartbeats(ctx, heartbeatEvery); err != nil {
		return nil, err
	}
	return n, nil
}

// awaitMDCS blocks until every node's MDCS table is the one the road
// graph implies with all cameras placed, each peer with an address.
func (d *deployment) awaitMDCS(ctx context.Context) error {
	truth := d.world.graph.Clone()
	for i, id := range d.world.camIDs {
		if err := truth.PlaceCameraAtNode(id, roadnet.NodeID(i)); err != nil {
			return err
		}
	}
	want := make(map[string]map[geo.Direction][]string)
	for _, id := range d.world.camIDs {
		table, err := truth.MDCSAll(id)
		if err != nil {
			return err
		}
		want[id] = table
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, n := range d.nodes {
			if !tableMatches(n.node.Topology().Table(), want[n.id]) {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("MDCS tables did not converge within 10s")
		}
		if err := rpc.Sleep(ctx, time.Millisecond); err != nil {
			return err
		}
	}
}

func tableMatches(got map[geo.Direction][]protocol.CameraRef, want map[geo.Direction][]string) bool {
	for dir, ids := range want {
		refs := got[dir]
		if len(refs) != len(ids) {
			return false
		}
		for i, ref := range refs {
			if ref.ID != ids[i] || ref.Addr == "" {
				return false
			}
		}
	}
	return true
}

// close stops every component in the order the daemons drain — cameras
// first, then the stores they write to — and removes the run's data.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	var errs []error
	for _, n := range d.nodes {
		errs = append(errs, n.node.Topology().Close(), n.sw.close(), n.ep.Shutdown(ctx))
	}
	for _, r := range d.replicas {
		if r.ep != nil {
			errs = append(errs, r.ep.Shutdown(ctx))
		}
		if r.srv != nil {
			errs = append(errs, r.srv.Shutdown(ctx)) // closes the store
		} else if r.store != nil {
			errs = append(errs, r.store.Close())
		}
	}
	if d.trajSrv != nil {
		errs = append(errs, d.trajSrv.Shutdown(ctx))
	}
	if d.store != nil {
		errs = append(errs, d.store.Close())
	}
	if d.topoSrv != nil {
		errs = append(errs, d.topoSrv.Shutdown(ctx))
	}
	if d.topoEP != nil {
		errs = append(errs, d.topoEP.Shutdown(ctx))
	}
	if d.dir != "" {
		errs = append(errs, os.RemoveAll(d.dir))
	}
	return errors.Join(errs...)
}
