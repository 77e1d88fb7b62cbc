// Package core assembles a complete Coral-Pie deployment: the world
// simulator, one camera node per camera, the camera topology server, the
// trajectory graph store, and the frame store, all wired over a simulated
// network on a discrete-event simulator. It is the paper's end-to-end
// system in deterministic, laptop-runnable form; the cmd/ binaries
// assemble the same components over real TCP.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/camnode"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/framestore"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/rpc/faultinject"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

// topologyAddr is the simulated bus address of the topology server.
const topologyAddr = "topology-server"

// framestoreAddr is the simulated bus address of the frame store.
const framestoreAddr = "frame-store"

// Config assembles a simulated deployment.
type Config struct {
	// Graph is the road network (cameras are registered via heartbeats,
	// so supply it without cameras).
	Graph *roadnet.Graph
	// Epoch anchors virtual time to wall-clock timestamps.
	Epoch time.Time
	// NetworkLatency is the one-way message latency on the simulated
	// network (the paper measures 2 ms on the campus LAN).
	NetworkLatency time.Duration
	// Fault configures deterministic network-fault injection (drop,
	// latency, error) on the simulated bus. When Fault.RNG is nil the
	// fault stream is derived from Seed, so same-seed runs inject the
	// same faults.
	Fault faultinject.Config
	// HeartbeatInterval is the camera heartbeat period (paper: 2 s / 5 s).
	HeartbeatInterval time.Duration
	// LivenessMultiple sets the server's liveness timeout as a multiple
	// of the heartbeat interval (default 2).
	LivenessMultiple int
	// LivenessCheckInterval is how often the server scans leases
	// (default: HeartbeatInterval / 2).
	LivenessCheckInterval time.Duration

	// EnableMonitor runs an in-process fleet monitor: every component
	// (cameras, topology server, trajectory store, frame-store replicas)
	// gets a heartbeat agent on a simulator ticker, and the monitor
	// sweeps liveness on LivenessCheckInterval. Everything runs on the
	// simulator's virtual clock, so dead-node detection times and alert
	// transitions are byte-identical across same-seed runs.
	EnableMonitor bool
	// MonitorLivenessMultiple sets the fleet monitor's liveness timeout
	// as a multiple of HeartbeatInterval (default 3 — one more beat of
	// slack than the topology server's lease timeout, so the data-plane
	// handoff reacts before the health plane pages anyone).
	MonitorLivenessMultiple int
	// AlertRules are the fleet monitor's metric alert rules, evaluated
	// on every sweep against the system registry (carried by the
	// topology server's heartbeat — components share one registry in
	// simulation, so exactly one agent reports it). With EnableMonitor
	// set, NewSystem refuses an invalid rule.
	AlertRules []fleet.Rule

	// DetectorFactory builds the pluggable detector per camera. Default:
	// the calibrated SimDetector seeded per camera.
	DetectorFactory func(cameraID string) (vision.Detector, error)
	// Seed drives all randomness derived by the system.
	Seed int64

	// Registry receives all coralpie_* telemetry from the system's
	// components. Nil allocates a fresh registry per system (NOT the
	// process-wide obs.Default()), so two same-seed runs produce
	// byte-identical metric snapshots and concurrent systems in tests
	// never share counters.
	Registry *obs.Registry

	// TraceSampleEvery records every Nth trace root (0 or 1 records all).
	// The decision is made per root, so a sampled trace keeps every one of
	// its spans. Span IDs come from a per-system sequence, so two
	// same-seed runs allocate byte-identical trace topologies.
	TraceSampleEvery int

	// Vision-stack parameters (zero values use the paper prototype's).
	Tracker     tracker.Config
	Matcher     reid.MatcherConfig
	Pool        reid.PoolConfig
	PostProcess vision.PostProcessConfig

	// StoreFrames ships raw frames to the frame store (off by default:
	// frame storage is not on the critical path and slows large sweeps).
	StoreFrames bool
	// FrameReplicas runs N frame-store servers (at bus addresses
	// "frame-store-0" … "frame-store-<N-1>") and fans every camera's
	// frames out to all of them through framestore.MultiClient, so a
	// single store failure (FailFrameStore) loses no evidence. 0 or 1
	// keeps the single store at "frame-store" (a one-replica MultiClient).
	FrameReplicas int
	// Camera geometry overrides (zero values use sim defaults).
	CameraFPS    float64
	CameraWidth  int
	CameraHeight int
	PxPerMeter   float64
	// BrightnessJitter gives each camera a deterministic per-camera
	// exposure offset in [-BrightnessJitter, +BrightnessJitter],
	// modeling the cross-camera appearance differences that make
	// color-histogram re-identification imperfect.
	BrightnessJitter int
}

// applyDefaults fills zero values with the paper prototype's parameters.
func (c *Config) applyDefaults() {
	if c.Epoch.IsZero() {
		c.Epoch = time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)
	}
	if c.NetworkLatency <= 0 {
		c.NetworkLatency = 2 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.LivenessMultiple <= 0 {
		c.LivenessMultiple = 2
	}
	if c.LivenessCheckInterval <= 0 {
		c.LivenessCheckInterval = c.HeartbeatInterval / 2
	}
	if c.MonitorLivenessMultiple <= 0 {
		c.MonitorLivenessMultiple = 3
	}
	if c.Tracker == (tracker.Config{}) {
		c.Tracker = tracker.DefaultConfig()
	}
	if c.Matcher == (reid.MatcherConfig{}) {
		c.Matcher = reid.DefaultMatcherConfig()
	}
	if c.PostProcess.MinConfidence == 0 {
		c.PostProcess.MinConfidence = vision.DefaultMinConfidence
	}
	if c.CameraFPS <= 0 {
		c.CameraFPS = 15
	}
}

// cameraRig bundles one camera's moving parts.
type cameraRig struct {
	node      *camnode.Node
	camera    *sim.Camera
	client    *topology.Client
	heartbeat *des.Ticker
	endpoint  transport.Endpoint
	agent     *fleet.Agent
	procErrs  int
}

// System is a running simulated deployment.
type System struct {
	cfg        Config
	sim        *des.Simulator
	bus        *transport.Bus
	world      *sim.World
	topo       *topology.Server
	traj       *trajstore.Store
	frames     []*framestore.Store
	frameAddrs []string

	rigs     map[string]*cameraRig
	liveness *des.Ticker
	started  bool
	stopped  bool
	ctx      context.Context

	monitor      *fleet.Monitor
	fleetAgents  map[string]*fleet.Agent // service agents by node ID
	fleetTickers []*des.Ticker
	monitorSweep *des.Ticker

	reg    *obs.Registry
	tracer *obs.Tracer
	drain  *obs.Histogram
}

// NewSystem wires the shared services (topology server, stores, network)
// and returns a system ready for AddCamera/AddVehicle.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Graph == nil {
		return nil, errors.New("core: road graph required")
	}
	cfg.applyDefaults()

	dsim := des.New(cfg.Epoch)
	simClock := clock.Func(dsim.Time)
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The monitor comes first: it refuses invalid alert rules before
	// anything else is built.
	var monitor *fleet.Monitor
	if cfg.EnableMonitor {
		var err error
		monitor, err = fleet.NewMonitor(fleet.MonitorConfig{
			Clock:           simClock,
			LivenessTimeout: time.Duration(cfg.MonitorLivenessMultiple) * cfg.HeartbeatInterval,
			Rules:           cfg.AlertRules,
			Registry:        reg,
		})
		if err != nil {
			return nil, err
		}
	}
	tracer := obs.NewTracerWith(obs.TracerConfig{
		Clock:       simClock,
		Capacity:    4096,
		SampleEvery: cfg.TraceSampleEvery,
	})

	bus := transport.NewSimBus(dsim, cfg.NetworkLatency)
	bus.Use(reg)
	fault := cfg.Fault
	if fault.DropRate != 0 || fault.Enabled() {
		if fault.RNG == nil {
			// Same seed derivation the retired loss model used, so
			// existing seeded loss studies reproduce bit-for-bit.
			fault.RNG = rand.New(rand.NewSource(cfg.Seed ^ 0x10552a7e))
		}
		if err := bus.InjectFaults(fault); err != nil {
			return nil, err
		}
	}
	world, err := sim.NewWorld(sim.WorldConfig{Sim: dsim, Graph: cfg.Graph})
	if err != nil {
		return nil, err
	}

	topoEP, err := bus.Endpoint(topologyAddr)
	if err != nil {
		return nil, err
	}
	topoSrv, err := topology.NewServer(cfg.Graph, topoEP, simClock, topology.ServerConfig{
		LivenessTimeout:  time.Duration(cfg.LivenessMultiple) * cfg.HeartbeatInterval,
		SnapToNodeMeters: 30,
		Registry:         reg,
	})
	if err != nil {
		return nil, err
	}

	traj := trajstore.NewMemStore()
	traj.Instrument(reg, simClock)
	traj.UseTracer(tracer)

	// One frame store by default; FrameReplicas > 1 runs N independent
	// stores so replicated puts have somewhere to land.
	frameAddrs := []string{framestoreAddr}
	if cfg.FrameReplicas > 1 {
		frameAddrs = make([]string, cfg.FrameReplicas)
		for i := range frameAddrs {
			frameAddrs[i] = fmt.Sprintf("%s-%d", framestoreAddr, i)
		}
	}
	frames := make([]*framestore.Store, len(frameAddrs))
	for i, addr := range frameAddrs {
		st, err := framestore.OpenStore("")
		if err != nil {
			return nil, err
		}
		st.Instrument(reg, simClock)
		st.UseTracer(tracer)
		ep, err := bus.Endpoint(addr)
		if err != nil {
			return nil, err
		}
		if _, err := framestore.NewServer(st, ep); err != nil {
			return nil, err
		}
		frames[i] = st
	}

	s := &System{
		cfg:         cfg,
		sim:         dsim,
		bus:         bus,
		world:       world,
		monitor:     monitor,
		topo:        topoSrv,
		traj:        traj,
		frames:      frames,
		frameAddrs:  frameAddrs,
		rigs:        make(map[string]*cameraRig),
		fleetAgents: make(map[string]*fleet.Agent),
		ctx:         context.Background(),
		reg:         reg,
		tracer:      tracer,
		drain: reg.Histogram("coralpie_system_shutdown_drain_seconds",
			"graceful system shutdown duration", nil),
	}
	if monitor != nil {
		// Service agents. Components share the system registry, so the
		// topology server's heartbeat carries the metric snapshot and
		// every other agent omits it — federating the same registry once
		// per agent would multiply every counter by the fleet size.
		s.fleetAgents[topologyAddr] = s.newFleetAgent(topologyAddr, "topology-server", topologyAddr, false)
		s.fleetAgents["trajstore"] = s.newFleetAgent("trajstore", "trajstore", "", true)
		for _, addr := range frameAddrs {
			s.fleetAgents[addr] = s.newFleetAgent(addr, "framestore", addr, true)
		}
	}
	return s, nil
}

// newFleetAgent builds one simulated component's heartbeat agent. Its
// send path delivers straight into the in-process monitor, but only
// while busAddr (when non-empty) is attached to the bus — a partitioned
// node's heartbeats fail exactly like its data traffic.
func (s *System) newFleetAgent(nodeID, component, busAddr string, omitMetrics bool) *fleet.Agent {
	return fleet.NewAgent(fleet.AgentConfig{
		NodeID:      nodeID,
		Component:   component,
		Clock:       clock.Func(s.sim.Time),
		Registry:    s.reg,
		OmitMetrics: omitMetrics,
		Send: func(ctx context.Context, hb *fleet.Heartbeat) error {
			if busAddr != "" && !s.bus.Attached(busAddr) {
				return fmt.Errorf("core: %q is partitioned", busAddr)
			}
			return s.monitor.Ingest(hb)
		},
	})
}

// Sim exposes the simulator (for custom scheduling in experiments).
func (s *System) Sim() *des.Simulator { return s.sim }

// World exposes the world model.
func (s *System) World() *sim.World { return s.world }

// TrajStore exposes the shared trajectory graph.
func (s *System) TrajStore() *trajstore.Store { return s.traj }

// FrameStore exposes the first (or only) frame store.
func (s *System) FrameStore() *framestore.Store { return s.frames[0] }

// FrameStores exposes every frame-store replica, in address order.
func (s *System) FrameStores() []*framestore.Store { return s.frames }

// FailFrameStore kills frame-store replica i: the bus partitions its
// address, so frame sends to it fail while the other replicas keep
// receiving. Use with Config.FrameReplicas > 1 for outage studies.
func (s *System) FailFrameStore(i int) error {
	if i < 0 || i >= len(s.frameAddrs) {
		return fmt.Errorf("core: frame store %d not found (%d replicas)", i, len(s.frameAddrs))
	}
	s.bus.Partition(s.frameAddrs[i])
	return nil
}

// TopologyServer exposes the topology server.
func (s *System) TopologyServer() *topology.Server { return s.topo }

// Telemetry exposes the system's metric registry: every component's
// coralpie_* metrics land here. Serve it with obs.NewMuxWith, render it with
// WritePrometheus, or inspect it with Snapshot.
func (s *System) Telemetry() *obs.Registry { return s.reg }

// Tracer exposes the system's handoff span tracer.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// Node returns a camera's processing node.
func (s *System) Node(cameraID string) (*camnode.Node, error) {
	rig, ok := s.rigs[cameraID]
	if !ok {
		return nil, fmt.Errorf("core: camera %q not found", cameraID)
	}
	return rig.node, nil
}

// CameraIDs lists the installed cameras in sorted order.
func (s *System) CameraIDs() []string {
	out := make([]string, 0, len(s.rigs))
	for id := range s.rigs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AddCameraAt installs a camera at a road-network node, wiring its
// processing node, simulated camera, and heartbeats.
func (s *System) AddCameraAt(cameraID string, node roadnet.NodeID, headingDeg float64) error {
	n, err := s.cfg.Graph.Node(node)
	if err != nil {
		return err
	}
	return s.AddCamera(cameraID, n.Pos, headingDeg)
}

// AddCamera installs a camera at an arbitrary position (the topology
// server snaps it to the nearest intersection or lane).
func (s *System) AddCamera(cameraID string, pos geo.Point, headingDeg float64) error {
	if _, ok := s.rigs[cameraID]; ok {
		return fmt.Errorf("core: camera %q already exists", cameraID)
	}
	ep, err := s.bus.Endpoint(cameraID)
	if err != nil {
		return err
	}

	detector := s.cfg.DetectorFactory
	if detector == nil {
		detector = func(id string) (vision.Detector, error) {
			return vision.NewSimDetector(vision.DefaultSimDetectorConfig(s.cfg.Seed ^ int64(hash64(id))))
		}
	}
	det, err := detector(cameraID)
	if err != nil {
		return err
	}

	nodeCfg := camnode.Config{
		CameraID:           cameraID,
		Position:           pos,
		HeadingDeg:         headingDeg,
		TopologyServerAddr: topologyAddr,
		Detector:           det,
		PostProcess:        s.cfg.PostProcess,
		Tracker:            s.cfg.Tracker,
		Matcher:            s.cfg.Matcher,
		Pool:               s.cfg.Pool,
		TrajStore:          s.traj,
		Clock:              clock.Func(s.sim.Time),
		Registry:           s.reg,
		Tracer:             s.tracer,
	}
	if s.cfg.StoreFrames {
		mc, err := framestore.NewMultiClient(ep, s.frameAddrs, framestore.MultiClientConfig{
			Registry: s.reg,
		})
		if err != nil {
			return err
		}
		nodeCfg.FrameStore = mc
		nodeCfg.StoreFrames = true
	}
	camNode, err := camnode.New(nodeCfg, ep)
	if err != nil {
		return err
	}

	rig := &cameraRig{node: camNode, client: camNode.Topology(), endpoint: ep}
	camSpec := sim.DefaultCameraSpec(cameraID, pos, headingDeg)
	camSpec.FPS = s.cfg.CameraFPS
	if s.cfg.CameraWidth > 0 {
		camSpec.Width = s.cfg.CameraWidth
	}
	if s.cfg.CameraHeight > 0 {
		camSpec.Height = s.cfg.CameraHeight
	}
	if s.cfg.PxPerMeter > 0 {
		camSpec.PxPerMeter = s.cfg.PxPerMeter
	}
	if j := s.cfg.BrightnessJitter; j > 0 {
		camSpec.BrightnessOffset = int(hash64(cameraID)%uint64(2*j+1)) - j
	}
	camera, err := s.world.AddCamera(camSpec, func(f *vision.Frame) {
		if err := camNode.ProcessFrameContext(s.ctx, f); err != nil {
			rig.procErrs++
		}
	})
	if err != nil {
		return err
	}
	rig.camera = camera
	if s.monitor != nil {
		rig.agent = s.newFleetAgent(cameraID, "coral-node", cameraID, true)
	}
	s.rigs[cameraID] = rig

	if s.started {
		s.startRig(rig)
	}
	return nil
}

func hash64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// startRig begins a camera's heartbeats and frames. The first heartbeat
// fires immediately so registration precedes the first frames. The
// fleet heartbeat rides the same ticker as the topology lease renewal:
// one failure mode (FailCamera stops the ticker, the partition blocks
// the send) silences both planes together, as it would on real
// hardware.
func (s *System) startRig(rig *cameraRig) {
	beat := func() {
		_ = rig.client.SendHeartbeatContext(s.ctx)
		if rig.agent != nil {
			_ = rig.agent.Push(s.ctx)
		}
	}
	beat()
	rig.heartbeat = s.sim.Every(s.cfg.HeartbeatInterval, beat)
}

// Start begins heartbeats, liveness checks, and camera frames. Call
// after the initial cameras are installed. ctx is the system's root
// lifecycle context: once it is cancelled, Run stops advancing virtual
// time at its next chunk boundary (nil means Background).
func (s *System) Start(ctx context.Context) {
	if s.started {
		return
	}
	if ctx != nil {
		s.ctx = ctx
	}
	s.started = true
	// Deterministic order: iterating the rig map directly would register
	// cameras (and so order their telemetry) differently run to run.
	for _, id := range s.CameraIDs() {
		s.startRig(s.rigs[id])
	}
	s.liveness = s.sim.Every(s.cfg.LivenessCheckInterval, func() {
		s.topo.CheckLivenessContext(s.ctx)
	})
	if s.monitor != nil {
		// Service agents start in sorted node order, then the monitor
		// sweep: a fixed event order is what makes liveness transitions
		// and alert sequences byte-identical across same-seed runs.
		ids := make([]string, 0, len(s.fleetAgents))
		for id := range s.fleetAgents {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			ag := s.fleetAgents[id]
			_ = ag.Push(s.ctx)
			s.fleetTickers = append(s.fleetTickers, s.sim.Every(s.cfg.HeartbeatInterval, func() {
				_ = ag.Push(s.ctx)
			}))
		}
		s.monitorSweep = s.sim.Every(s.cfg.LivenessCheckInterval, func() {
			s.monitor.Sweep()
		})
	}
	// Let registration and the first topology push settle before frames
	// start flowing.
	s.sim.Schedule(4*s.cfg.NetworkLatency, func() {
		s.world.StartCameras()
	})
}

// Run advances the simulation by d. The advance is chunked so a
// cancelled root context (from Start) stops the run at the next chunk
// boundary instead of simulating the full span; chunking is identical
// across runs, so determinism is preserved.
func (s *System) Run(d time.Duration) {
	const chunks = 16
	chunk := d / chunks
	if chunk <= 0 {
		chunk = d
	}
	for remaining := d; remaining > 0; remaining -= chunk {
		if s.ctx.Err() != nil {
			return
		}
		step := chunk
		if remaining < step {
			step = remaining
		}
		s.sim.RunFor(step)
	}
}

// FailCamera kills a camera: frames stop, heartbeats stop, and the
// network partitions it. The topology server notices via heartbeat loss.
func (s *System) FailCamera(cameraID string) error {
	rig, ok := s.rigs[cameraID]
	if !ok {
		return fmt.Errorf("core: camera %q not found", cameraID)
	}
	if rig.heartbeat != nil {
		rig.heartbeat.Stop()
	}
	if err := s.world.StopCamera(cameraID); err != nil {
		return err
	}
	s.bus.Partition(cameraID)
	return nil
}

// RecoverCamera reverses FailCamera: the bus heals the camera's
// partition, its simulated frames resume, and its heartbeats (topology
// lease and fleet) restart — so the topology server re-registers it and
// the fleet monitor transitions it back to alive, resolving its
// node_down alert on the next sweep.
func (s *System) RecoverCamera(cameraID string) error {
	rig, ok := s.rigs[cameraID]
	if !ok {
		return fmt.Errorf("core: camera %q not found", cameraID)
	}
	if err := s.bus.Heal(cameraID); err != nil {
		return err
	}
	if err := s.world.StartCamera(cameraID); err != nil {
		return err
	}
	if s.started && !s.stopped {
		s.startRig(rig)
	}
	return nil
}

// RecoverFrameStore reverses FailFrameStore: replica i's partition
// heals, so frame puts and its fleet heartbeats flow again.
func (s *System) RecoverFrameStore(i int) error {
	if i < 0 || i >= len(s.frameAddrs) {
		return fmt.Errorf("core: frame store %d not found (%d replicas)", i, len(s.frameAddrs))
	}
	return s.bus.Heal(s.frameAddrs[i])
}

// Monitor exposes the fleet monitor, or nil unless Config.EnableMonitor
// was set.
func (s *System) Monitor() *fleet.Monitor { return s.monitor }

// FlushAll retires all live tracks on every camera, emitting their
// events; call at the end of a bounded experiment. The flush outlives a
// cancelled root context (a stopped run still keeps its live tracks) but
// carries its values.
func (s *System) FlushAll() error {
	ctx := context.WithoutCancel(s.ctx)
	for _, id := range s.CameraIDs() {
		if err := s.rigs[id].node.FlushContext(ctx); err != nil {
			return fmt.Errorf("core: flush %s: %w", id, err)
		}
	}
	return nil
}

// Stop halts tickers and cameras so the simulator can drain. Idempotent.
func (s *System) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, id := range s.CameraIDs() {
		if hb := s.rigs[id].heartbeat; hb != nil {
			hb.Stop()
		}
	}
	if s.liveness != nil {
		s.liveness.Stop()
	}
	for _, t := range s.fleetTickers {
		t.Stop()
	}
	if s.monitorSweep != nil {
		s.monitorSweep.Stop()
	}
	s.world.StopCameras()
}

// Shutdown tears the deployment down gracefully: tickers and cameras
// stop, every camera's live tracks are flushed so their events are not
// lost, and the stores are closed (flushing the trajectory WAL and the
// per-camera frame logs when the stores are disk-backed). The total
// drain duration is recorded in coralpie_system_shutdown_drain_seconds.
// ctx bounds the flush: if it is already expired the flush is skipped
// and its error returned. Idempotent; later calls are no-ops.
func (s *System) Shutdown(ctx context.Context) error {
	start := time.Now()
	s.Stop()
	var firstErr error
	if err := ctx.Err(); err != nil {
		firstErr = fmt.Errorf("core: shutdown: %w", err)
	} else if err := s.FlushAll(); err != nil {
		firstErr = err
	}
	if err := s.traj.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	for _, st := range s.frames {
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.drain.Observe(time.Since(start).Seconds())
	return firstErr
}
