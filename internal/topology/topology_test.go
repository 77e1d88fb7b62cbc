package topology

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/roadnet"
	"repro/internal/transport"
)

var epoch = time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)

// harness wires a topology server and n camera clients over a simulated
// bus with 5 ms network latency.
type harness struct {
	t       *testing.T
	sim     *des.Simulator
	bus     *transport.Bus
	server  *Server
	graph   *roadnet.Graph
	sites   []roadnet.NodeID
	clients map[string]*Client
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	sim := des.New(epoch)
	bus := transport.NewSimBus(sim, 5*time.Millisecond)
	graph, sites, err := roadnet.Campus()
	if err != nil {
		t.Fatal(err)
	}
	ep, err := bus.Endpoint("topology-server")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(graph, ep, clock.Func(sim.Time), DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:       t,
		sim:     sim,
		bus:     bus,
		server:  srv,
		graph:   graph,
		sites:   sites,
		clients: make(map[string]*Client),
	}
}

// addCamera registers a client for the i-th campus site and returns it.
func (h *harness) addCamera(name string, site int) *Client {
	h.t.Helper()
	node, err := h.graph.Node(h.sites[site])
	if err != nil {
		h.t.Fatal(err)
	}
	ep, err := h.bus.Endpoint(name)
	if err != nil {
		h.t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{
		CameraID:   name,
		ServerAddr: "topology-server",
		Position:   node.Pos,
	}, ep, clock.Func(h.sim.Time))
	if err != nil {
		h.t.Fatal(err)
	}
	ep.SetHandler(func(_ context.Context, env protocol.Envelope) {
		msg, err := protocol.Open(env)
		if err != nil {
			return
		}
		if u, ok := msg.(protocol.TopologyUpdate); ok {
			cl.ApplyUpdate(u)
		}
	})
	h.clients[name] = cl
	return cl
}

func TestServerValidation(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	g := roadnet.NewGraph()
	if _, err := NewServer(nil, ep, clock.Real{}, DefaultServerConfig()); err == nil {
		t.Error("nil graph accepted")
	}
	bad := DefaultServerConfig()
	bad.LivenessTimeout = 0
	if _, err := NewServer(g, ep, clock.Real{}, bad); err == nil {
		t.Error("zero liveness timeout accepted")
	}
	bad = DefaultServerConfig()
	bad.SnapToNodeMeters = -1
	if _, err := NewServer(g, ep, clock.Real{}, bad); err == nil {
		t.Error("negative snap radius accepted")
	}
}

func TestClientValidation(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ClientConfig{ServerAddr: "s"}, ep, clock.Real{}); err == nil {
		t.Error("missing camera id accepted")
	}
	if _, err := NewClient(ClientConfig{CameraID: "c"}, ep, clock.Real{}); err == nil {
		t.Error("missing server addr accepted")
	}
	if _, err := NewClient(ClientConfig{CameraID: "c", ServerAddr: "s"}, nil, clock.Real{}); err == nil {
		t.Error("nil endpoint accepted")
	}
}

func TestRegistrationPushesMDCS(t *testing.T) {
	h := newHarness(t)
	// Three cameras in a row on the campus grid's top row (sites 0,1,2).
	a := h.addCamera("camA", 0)
	b := h.addCamera("camB", 1)
	c := h.addCamera("camC", 2)
	for _, cl := range []*Client{a, b, c} {
		if err := cl.SendHeartbeatContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		h.sim.RunFor(20 * time.Millisecond)
	}
	h.sim.RunFor(100 * time.Millisecond)

	// camB sits between camA and camC: east -> camC, west -> camA.
	refs := b.Lookup(geo.East)
	if len(refs) != 1 || refs[0].ID != "camC" {
		t.Errorf("camB east MDCS = %v", refs)
	}
	refs = b.Lookup(geo.West)
	if len(refs) != 1 || refs[0].ID != "camA" {
		t.Errorf("camB west MDCS = %v", refs)
	}
	if refs[0].Addr != "camA" {
		t.Errorf("MDCS ref should carry the peer address, got %q", refs[0].Addr)
	}
	if b.Version() == 0 {
		t.Error("client never received an update")
	}
}

func TestNewCameraUpdatesAffectedPeers(t *testing.T) {
	h := newHarness(t)
	a := h.addCamera("camA", 0)
	c := h.addCamera("camC", 2)
	if err := a.SendHeartbeatContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.SendHeartbeatContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.sim.RunFor(100 * time.Millisecond)
	if refs := a.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "camC" {
		t.Fatalf("before: camA east = %v", refs)
	}

	// camB joins between them; camA's east MDCS must switch to camB.
	b := h.addCamera("camB", 1)
	if err := b.SendHeartbeatContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	h.sim.RunFor(100 * time.Millisecond)
	if refs := a.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "camB" {
		t.Errorf("after join: camA east = %v", refs)
	}
	if refs := b.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "camC" {
		t.Errorf("camB east = %v", refs)
	}
}

func TestHeartbeatLossTriggersHealing(t *testing.T) {
	h := newHarness(t)
	a := h.addCamera("camA", 0)
	b := h.addCamera("camB", 1)
	c := h.addCamera("camC", 2)

	// Heartbeats every 2 s from every camera; liveness timeout is 4 s.
	for _, cl := range []*Client{a, b, c} {
		cl := cl
		h.sim.Every(2*time.Second, func() { _ = cl.SendHeartbeatContext(context.Background()) })
	}
	h.sim.Every(time.Second, func() { h.server.CheckLivenessContext(context.Background()) })
	h.sim.RunFor(5 * time.Second)
	if refs := a.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "camB" {
		t.Fatalf("setup: camA east = %v", refs)
	}

	// Kill camB: partition it so its heartbeats stop.
	h.bus.Partition("camB")
	killedAt := h.sim.Now()
	h.sim.RunFor(10 * time.Second)

	if refs := a.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "camC" {
		t.Errorf("after failure: camA east = %v, want camC", refs)
	}
	if got := h.server.Cameras(); len(got) != 2 {
		t.Errorf("server still tracks %v", got)
	}
	_ = killedAt // recovery-time measurement is exercised by the Figure 11 experiment
}

func TestStaleUpdateDiscarded(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("cam")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{CameraID: "cam", ServerAddr: "srv"}, ep, clock.Fixed{T: epoch})
	if err != nil {
		t.Fatal(err)
	}
	cl.ApplyUpdate(protocol.TopologyUpdate{CameraID: "cam", Version: 5, MDCS: map[geo.Direction][]protocol.CameraRef{
		geo.East: {{ID: "x"}},
	}})
	cl.ApplyUpdate(protocol.TopologyUpdate{CameraID: "cam", Version: 3, MDCS: map[geo.Direction][]protocol.CameraRef{
		geo.East: {{ID: "stale"}},
	}})
	if refs := cl.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "x" {
		t.Errorf("stale update applied: %v", refs)
	}
	// Updates addressed to another camera are ignored.
	cl.ApplyUpdate(protocol.TopologyUpdate{CameraID: "other", Version: 9})
	if cl.Version() != 5 {
		t.Errorf("version = %d", cl.Version())
	}
}

func TestOnUpdateCallback(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("cam")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{CameraID: "cam", ServerAddr: "srv"}, ep, clock.Fixed{T: epoch})
	if err != nil {
		t.Fatal(err)
	}
	var versions []int64
	cl.OnUpdate(func(v int64) { versions = append(versions, v) })
	cl.ApplyUpdate(protocol.TopologyUpdate{CameraID: "cam", Version: 1})
	cl.ApplyUpdate(protocol.TopologyUpdate{CameraID: "cam", Version: 2})
	cl.ApplyUpdate(protocol.TopologyUpdate{CameraID: "cam", Version: 2}) // duplicate
	if len(versions) != 2 || versions[0] != 1 || versions[1] != 2 {
		t.Errorf("callback versions = %v", versions)
	}
}

func TestEdgeCameraPlacementFromHeartbeat(t *testing.T) {
	// A camera reporting a position mid-lane (far from any intersection)
	// must be placed on the lane.
	sim := des.New(epoch)
	bus := transport.NewSimBus(sim, time.Millisecond)
	g, ids, err := roadnet.Corridor(2, 400, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	nodeA, err := g.Node(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := g.Node(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	ep, err := bus.Endpoint("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(g, ep, clock.Func(sim.Time), DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	mid := nodeA.Pos.Lerp(nodeB.Pos, 0.5)
	srv.HandleHeartbeatContext(context.Background(), protocol.Heartbeat{CameraID: "midcam", Position: mid, Addr: "midcam", Time: sim.Time()})
	place, err := g.CameraPlaceOf("midcam")
	if err != nil {
		t.Fatalf("camera not placed: %v", err)
	}
	if !place.OnEdge() {
		t.Errorf("mid-lane camera placed at node: %+v", place)
	}
	if place.Frac < 0.4 || place.Frac > 0.6 {
		t.Errorf("frac = %v, want ~0.5", place.Frac)
	}
}

func TestRealTimeLoops(t *testing.T) {
	// Smoke-test the goroutine-based heartbeat and liveness loops with
	// the real clock over a short wall-clock window.
	bus := transport.NewBus()
	g, ids, err := roadnet.Corridor(3, 100, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	sep, err := bus.Endpoint("srv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{LivenessTimeout: 200 * time.Millisecond, SnapToNodeMeters: 30}
	srv, err := NewServer(g, sep, clock.Real{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background(), 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background(), 50*time.Millisecond); err == nil {
		t.Error("double start accepted")
	}
	defer func() { _ = srv.Close() }()

	node, err := g.Node(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	cep, err := bus.Endpoint("cam")
	if err != nil {
		t.Fatal(err)
	}
	cep.SetHandler(func(context.Context, protocol.Envelope) {})
	cl, err := NewClient(ClientConfig{CameraID: "cam", ServerAddr: "srv", Position: node.Pos}, cep, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.StartHeartbeats(context.Background(), 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Cameras()) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if len(srv.Cameras()) != 1 {
		t.Fatal("camera never registered")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	// After heartbeats stop, liveness expires the camera.
	deadline = time.Now().Add(3 * time.Second)
	for len(srv.Cameras()) != 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.Cameras(); len(got) != 0 {
		t.Errorf("camera not expired: %v", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMDCSVersionAccessor(t *testing.T) {
	h := newHarness(t)
	if v := h.server.MDCSVersion("nope"); v != 0 {
		t.Errorf("unknown camera version = %d", v)
	}
	a := h.addCamera("camA", 0)
	b := h.addCamera("camB", 1)
	_ = a.SendHeartbeatContext(context.Background())
	_ = b.SendHeartbeatContext(context.Background())
	h.sim.RunFor(time.Second)
	if v := h.server.MDCSVersion("camA"); v == 0 {
		t.Error("camA should have a pushed version")
	}
}
