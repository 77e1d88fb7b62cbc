package camnode

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

var epoch = time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)

const (
	frameW = 200
	frameH = 100
)

// makeFrame renders one synthetic frame: dark background plus an optional
// vehicle rectangle with ground truth.
func makeFrame(camera string, seq int64, vehicleX int, truthID string, color imaging.Color) *vision.Frame {
	img := imaging.MustNewFrame(frameW, frameH)
	img.Fill(imaging.Color{R: 40, G: 40, B: 40})
	f := &vision.Frame{
		CameraID: camera,
		Seq:      seq,
		Time:     epoch.Add(time.Duration(seq) * 100 * time.Millisecond),
		Image:    img,
	}
	if truthID != "" {
		box := imaging.Rect{X: vehicleX, Y: 40, W: 30, H: 20}
		img.FillRect(box, color)
		f.Truth = []vision.TruthObject{{ID: truthID, Label: vision.LabelCar, Box: box}}
	}
	return f
}

// nodeConfig returns a baseline config for tests.
func nodeConfig(camera string, store TrajStore) Config {
	return Config{
		CameraID:           camera,
		HeadingDeg:         0, // image-up is north; rightward motion is East
		TopologyServerAddr: "topo-server",
		Detector:           vision.PerfectDetector{},
		PostProcess:        vision.PostProcessConfig{MinConfidence: 0.2},
		Tracker:            tracker.DefaultConfig(),
		Matcher:            reid.DefaultMatcherConfig(),
		Pool:               reid.DefaultPoolConfig(),
		TrajStore:          store,
		Clock:              clock.Fixed{T: epoch},
	}
}

func newTestNode(t *testing.T, bus *transport.Bus, name string, cfg Config) *Node {
	t.Helper()
	ep, err := bus.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// driveVehicleThrough runs a vehicle left-to-right through the camera and
// then enough empty frames to trigger departure.
func driveVehicleThrough(t *testing.T, n *Node, truthID string, color imaging.Color, startSeq int64) int64 {
	t.Helper()
	seq := startSeq
	for x := 10; x <= 150; x += 10 {
		if err := n.ProcessFrameContext(context.Background(), makeFrame(n.CameraID(), seq, x, truthID, color)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for i := 0; i < 6; i++ { // > MaxAge empty frames
		if err := n.ProcessFrameContext(context.Background(), makeFrame(n.CameraID(), seq, 0, "", color)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	return seq
}

func TestConfigValidation(t *testing.T) {
	bus := transport.NewBus()
	store := trajstore.NewMemStore()
	base := nodeConfig("cam", store)

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"missing camera id", func(c *Config) { c.CameraID = "" }},
		{"missing detector", func(c *Config) { c.Detector = nil }},
		{"missing store", func(c *Config) { c.TrajStore = nil }},
		{"missing clock", func(c *Config) { c.Clock = nil }},
		{"store frames without sink", func(c *Config) { c.StoreFrames = true }},
		{"bad tracker", func(c *Config) { c.Tracker.MaxAge = 0 }},
		{"bad matcher", func(c *Config) { c.Matcher.BhattThreshold = 0 }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := bus.Endpoint(tc.name + string(rune('a'+i)))
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			tc.mutate(&cfg)
			if _, err := New(cfg, ep); err == nil {
				t.Errorf("config %q accepted", tc.name)
			}
		})
	}
	if _, err := New(base, nil); err == nil {
		t.Error("nil endpoint accepted")
	}
}

func TestSingleCameraGeneratesOneEvent(t *testing.T) {
	bus := transport.NewBus()
	store := trajstore.NewMemStore()
	var events []protocol.DetectionEvent
	cfg := nodeConfig("camA", store)
	cfg.Hooks.OnEvent = func(e protocol.DetectionEvent, matched bool, _ protocol.EventID, _ float64) {
		events = append(events, e)
		if matched {
			t.Error("nothing to match against")
		}
	}
	n := newTestNode(t, bus, "camA", cfg)

	driveVehicleThrough(t, n, "veh-1", imaging.Red, 0)

	if len(events) != 1 {
		t.Fatalf("events = %d, want 1 (de-duplication across %d detections)", len(events), 15)
	}
	ev := events[0]
	if ev.CameraID != "camA" || ev.TruthID != "veh-1" {
		t.Errorf("event = %+v", ev)
	}
	if ev.Direction != geo.East {
		t.Errorf("direction = %v, want East", ev.Direction)
	}
	if ev.VertexID == 0 {
		t.Error("event missing trajectory vertex")
	}
	if store.NumVertices() != 1 {
		t.Errorf("store has %d vertices", store.NumVertices())
	}
	st := n.Stats()
	if st.EventsGenerated != 1 || st.VerticesInserted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.DetectionsKept != 15 {
		t.Errorf("kept = %d", st.DetectionsKept)
	}
}

// TestFlickerTracksFreeAccumulators: a track that departs below MinHits (a
// one-frame flicker or false positive) produces no event and must not keep
// its 4 KB feature accumulator, on the frame path or at FlushContext.
func TestFlickerTracksFreeAccumulators(t *testing.T) {
	const flickers = 20
	n := newTestNode(t, transport.NewBus(), "camA", nodeConfig("camA", trajstore.NewMemStore()))
	seq := int64(0)
	frame := func(x int, truth string) {
		t.Helper()
		if err := n.ProcessFrameContext(context.Background(), makeFrame("camA", seq, x, truth, imaging.Red)); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for i := 0; i < flickers; i++ {
		frame(10+7*i, fmt.Sprintf("flicker-%d", i))
		for k := 0; k < 5; k++ { // > MaxAge empty frames: the track departs
			frame(0, "")
		}
	}
	frame(50, "flicker-at-flush")
	if err := n.FlushContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	driveVehicleThrough(t, n, "veh-1", imaging.Red, seq)

	if got := n.Stats().EventsGenerated; got != 1 {
		t.Errorf("events = %d, want 1 (flickers are not events)", got)
	}
	n.mu.Lock()
	left := len(n.accum)
	n.mu.Unlock()
	if left != 0 {
		t.Errorf("%d feature accumulators left after %d departed flickers", left, flickers+1)
	}
}

// wireTwoCameras builds A -> B (and optionally C) with manual MDCS
// tables, sharing one trajectory store.
func wireTwoCameras(t *testing.T, withC bool) (bus *transport.Bus, store *trajstore.Store, a, b, c *Node) {
	t.Helper()
	bus = transport.NewBus()
	store = trajstore.NewMemStore()
	a = newTestNode(t, bus, "camA", nodeConfig("camA", store))
	b = newTestNode(t, bus, "camB", nodeConfig("camB", store))
	refs := []protocol.CameraRef{{ID: "camB", Addr: "camB"}}
	if withC {
		c = newTestNode(t, bus, "camC", nodeConfig("camC", store))
		refs = append(refs, protocol.CameraRef{ID: "camC", Addr: "camC"})
	}
	a.Topology().ApplyUpdate(protocol.TopologyUpdate{
		CameraID: "camA",
		Version:  1,
		MDCS:     map[geo.Direction][]protocol.CameraRef{geo.East: refs},
	})
	return bus, store, a, b, c
}

func TestInformingStage(t *testing.T) {
	_, _, a, b, _ := wireTwoCameras(t, false)

	var informs []protocol.DetectionEvent
	b.cfg.Hooks.OnInformReceived = func(e protocol.DetectionEvent, _ time.Time) {
		informs = append(informs, e)
	}

	driveVehicleThrough(t, a, "veh-1", imaging.Red, 0)

	if len(informs) != 1 {
		t.Fatalf("informs = %d", len(informs))
	}
	if informs[0].CameraID != "camA" {
		t.Errorf("inform from %q", informs[0].CameraID)
	}
	if b.Pool().Size() != 1 {
		t.Errorf("pool size = %d", b.Pool().Size())
	}
	if a.Stats().InformsSent != 1 || b.Stats().InformsReceived != 1 {
		t.Errorf("stats: A=%+v B=%+v", a.Stats(), b.Stats())
	}
}

func TestReidentificationAndConfirm(t *testing.T) {
	_, store, a, b, _ := wireTwoCameras(t, false)

	var matched bool
	var matchedUp protocol.EventID
	b.cfg.Hooks.OnEvent = func(_ protocol.DetectionEvent, m bool, up protocol.EventID, _ float64) {
		matched = m
		matchedUp = up
	}

	driveVehicleThrough(t, a, "veh-1", imaging.Red, 0)
	driveVehicleThrough(t, b, "veh-1", imaging.Red, 100)

	if !matched {
		t.Fatal("B never re-identified the vehicle")
	}
	if matchedUp == "" {
		t.Error("matched upstream event id missing")
	}
	if store.NumEdges() != 1 {
		t.Errorf("trajectory edges = %d, want 1", store.NumEdges())
	}
	if b.Stats().ConfirmsSent != 1 {
		t.Errorf("B confirms sent = %d", b.Stats().ConfirmsSent)
	}
	if a.Stats().ConfirmsReceived != 1 {
		t.Errorf("A confirms received = %d", a.Stats().ConfirmsReceived)
	}
	// B marked the upstream event matched in its own pool.
	if b.Pool().Unmatched() != 0 {
		t.Errorf("B pool unmatched = %d", b.Pool().Unmatched())
	}
	// Trajectory query sees A -> B.
	v, err := store.FindByEventID(matchedUp)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := store.Trajectory(v.ID, trajstore.DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Errorf("trajectory = %v", paths)
	}
}

func TestConfirmTriggersRetireAtThirdCamera(t *testing.T) {
	_, _, a, b, c := wireTwoCameras(t, true)

	driveVehicleThrough(t, a, "veh-1", imaging.Red, 0)
	if b.Pool().Size() != 1 || c.Pool().Size() != 1 {
		t.Fatalf("pools B=%d C=%d", b.Pool().Size(), c.Pool().Size())
	}

	driveVehicleThrough(t, b, "veh-1", imaging.Red, 100)

	// A received B's confirm and retired the event at C.
	if a.Stats().RetiresSent != 1 {
		t.Errorf("A retires sent = %d", a.Stats().RetiresSent)
	}
	if c.Stats().RetiresReceived != 1 {
		t.Errorf("C retires received = %d", c.Stats().RetiresReceived)
	}
	if c.Pool().Unmatched() != 0 {
		t.Errorf("C pool unmatched = %d, want 0 after retire", c.Pool().Unmatched())
	}
	// The entry is annotated, not removed (lazy GC).
	if c.Pool().Size() != 1 {
		t.Errorf("C pool size = %d, want 1 (annotated, not pruned)", c.Pool().Size())
	}
}

func TestDistinctVehiclesDoNotCrossMatch(t *testing.T) {
	_, store, a, b, _ := wireTwoCameras(t, false)

	var bMatches int
	b.cfg.Hooks.OnEvent = func(_ protocol.DetectionEvent, m bool, _ protocol.EventID, _ float64) {
		if m {
			bMatches++
		}
	}

	// A sees a red vehicle; B then sees a blue one. Histograms differ, so
	// no match and no trajectory edge.
	driveVehicleThrough(t, a, "veh-red", imaging.Red, 0)
	driveVehicleThrough(t, b, "veh-blue", imaging.Blue, 100)

	if bMatches != 0 {
		t.Error("blue vehicle matched red signature")
	}
	if store.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", store.NumEdges())
	}
	if b.Pool().Unmatched() != 1 {
		t.Errorf("unmatched = %d, want the red event still pending", b.Pool().Unmatched())
	}
}

func TestFlushEmitsLiveTracks(t *testing.T) {
	bus := transport.NewBus()
	store := trajstore.NewMemStore()
	var events int
	cfg := nodeConfig("camA", store)
	cfg.Hooks.OnEvent = func(protocol.DetectionEvent, bool, protocol.EventID, float64) { events++ }
	n := newTestNode(t, bus, "camA", cfg)

	for seq := int64(0); seq < 5; seq++ {
		if err := n.ProcessFrameContext(context.Background(), makeFrame("camA", seq, 10+int(seq)*10, "veh-1", imaging.Red)); err != nil {
			t.Fatal(err)
		}
	}
	if events != 0 {
		t.Fatal("event emitted before departure")
	}
	if err := n.FlushContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if events != 1 {
		t.Errorf("events after flush = %d", events)
	}
}

func TestOnFirstSeenHook(t *testing.T) {
	bus := transport.NewBus()
	store := trajstore.NewMemStore()
	var seen []string
	var seenAt []time.Time
	cfg := nodeConfig("camA", store)
	cfg.Hooks.OnFirstSeen = func(id string, at time.Time) {
		seen = append(seen, id)
		seenAt = append(seenAt, at)
	}
	n := newTestNode(t, bus, "camA", cfg)
	driveVehicleThrough(t, n, "veh-7", imaging.Red, 0)
	if len(seen) != 1 || seen[0] != "veh-7" {
		t.Errorf("seen = %v", seen)
	}
	if !seenAt[0].Equal(epoch) {
		t.Errorf("seen at %v, want frame-0 time", seenAt[0])
	}
}

// TestFirstSightingsOnlyForHook: without an OnFirstSeen hook nobody reads
// first sightings, so the node must not remember every vehicle it sees.
func TestFirstSightingsOnlyForHook(t *testing.T) {
	n := newTestNode(t, transport.NewBus(), "camA", nodeConfig("camA", trajstore.NewMemStore()))
	seq := driveVehicleThrough(t, n, "veh-1", imaging.Red, 0)
	driveVehicleThrough(t, n, "veh-2", imaging.Blue, seq)
	n.mu.Lock()
	seen := len(n.seen)
	n.mu.Unlock()
	if seen != 0 {
		t.Errorf("seen holds %d truth IDs with no OnFirstSeen hook", seen)
	}
}

// TestStatsMatchRegistry: Stats is read from the node's telemetry, so
// every field must be its coralpie_camnode_* counter, and nodes with a
// nil Registry must not share counters even under one camera ID.
func TestStatsMatchRegistry(t *testing.T) {
	bus := transport.NewBus()
	store := trajstore.NewMemStore()
	regs := map[string]*obs.Registry{}
	nodes := map[string]*Node{}
	for _, id := range []string{"camA", "camB", "camC"} {
		cfg := nodeConfig(id, store)
		regs[id] = obs.NewRegistry()
		cfg.Registry = regs[id]
		nodes[id] = newTestNode(t, bus, id, cfg)
	}
	nodes["camA"].Topology().ApplyUpdate(protocol.TopologyUpdate{
		CameraID: "camA",
		Version:  1,
		MDCS: map[geo.Direction][]protocol.CameraRef{
			geo.East: {{ID: "camB", Addr: "camB"}, {ID: "camC", Addr: "camC"}},
		},
	})
	// A informs B and C; B re-identifies and confirms; A retires at C.
	driveVehicleThrough(t, nodes["camA"], "veh-1", imaging.Red, 0)
	driveVehicleThrough(t, nodes["camB"], "veh-1", imaging.Red, 100)
	if got := nodes["camC"].Stats().RetiresReceived; got != 1 {
		t.Fatalf("C retires received = %d, want 1", got)
	}

	for id, n := range nodes {
		st := n.Stats()
		for _, f := range []struct {
			name string
			got  int64
		}{
			{"frames_total", st.FramesProcessed},
			{"detections_raw_total", st.DetectionsRaw},
			{"detections_kept_total", st.DetectionsKept},
			{"events_total", st.EventsGenerated},
			{"informs_sent_total", st.InformsSent},
			{"informs_received_total", st.InformsReceived},
			{"confirms_sent_total", st.ConfirmsSent},
			{"confirms_received_total", st.ConfirmsReceived},
			{"retires_sent_total", st.RetiresSent},
			{"retires_received_total", st.RetiresReceived},
			{"reid_matches_total", st.ReidMatches},
			{"vertices_total", st.VerticesInserted},
			{"edges_total", st.EdgesInserted},
			{"send_errors_total", st.SendErrors},
		} {
			want := regs[id].Counter("coralpie_camnode_"+f.name, "", "camera", id).Value()
			if f.got != want {
				t.Errorf("%s: Stats field for %s = %d, registry = %d", id, f.name, f.got, want)
			}
		}
	}

	// Same camera ID, nil Registry: each node counts only itself.
	twin1 := newTestNode(t, bus, "twin1", nodeConfig("camT", store))
	twin2 := newTestNode(t, bus, "twin2", nodeConfig("camT", store))
	driveVehicleThrough(t, twin1, "veh-2", imaging.Blue, 0)
	if got := twin1.Stats().FramesProcessed; got == 0 {
		t.Error("twin1 counted no frames")
	}
	if got := twin2.Stats().FramesProcessed; got != 0 {
		t.Errorf("twin2 frames = %d, want 0: nil-Registry nodes share counters", got)
	}
}

// sliceSource feeds pre-rendered frames.
type sliceSource struct {
	frames []*vision.Frame
	i      int
}

func (s *sliceSource) Next() (*vision.Frame, error) {
	if s.i >= len(s.frames) {
		return nil, io.EOF
	}
	f := s.frames[s.i]
	s.i++
	return f, nil
}

func TestRunLiveMatchesSequential(t *testing.T) {
	bus := transport.NewBus()
	store := trajstore.NewMemStore()
	var events int
	cfg := nodeConfig("camL", store)
	cfg.Hooks.OnEvent = func(protocol.DetectionEvent, bool, protocol.EventID, float64) { events++ }
	n := newTestNode(t, bus, "camL", cfg)

	var frames []*vision.Frame
	seq := int64(0)
	for x := 10; x <= 150; x += 10 {
		frames = append(frames, makeFrame("camL", seq, x, "veh-1", imaging.Red))
		seq++
	}
	for i := 0; i < 6; i++ {
		frames = append(frames, makeFrame("camL", seq, 0, "", imaging.Red))
		seq++
	}
	if err := n.RunLive(context.Background(), &sliceSource{frames: frames}); err != nil {
		t.Fatal(err)
	}
	if events != 1 {
		t.Errorf("live events = %d, want 1", events)
	}
	if n.Stats().FramesProcessed != int64(len(frames)) {
		t.Errorf("frames processed = %d", n.Stats().FramesProcessed)
	}
}

// TestRunLiveOverRealtimeSource streams a simulated camera through the
// live pipeline, which holds several frames at once while the camera
// renders the next: each frame must own its pixels (run with -race).
func TestRunLiveOverRealtimeSource(t *testing.T) {
	g, ids, err := roadnet.Corridor(3, 200, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	world, err := sim.NewWorld(sim.WorldConfig{Sim: des.New(epoch), Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := world.AddVehicle(sim.VehicleSpec{ID: "veh-1", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
		t.Fatal(err)
	}
	node, err := g.Node(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	cam, err := world.AddCamera(sim.DefaultCameraSpec("camR", node.Pos, 0), func(*vision.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	// Anchored in the past, so every frame is due at once: no sleeping,
	// and the vehicle passes the camera 10 s into the stream.
	src, err := sim.NewRealtimeSourceAt(cam, time.Now().Add(-time.Minute), 13*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var events int
	cfg := nodeConfig("camR", trajstore.NewMemStore())
	cfg.Hooks.OnEvent = func(protocol.DetectionEvent, bool, protocol.EventID, float64) { events++ }
	n := newTestNode(t, transport.NewBus(), "camR", cfg)
	if err := n.RunLive(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	if events != 1 {
		t.Errorf("live events = %d, want 1", events)
	}
	if got := n.Stats().FramesProcessed; got != 13*15+1 {
		t.Errorf("frames processed = %d, want %d", got, 13*15+1)
	}
}

func TestRunLiveNilSource(t *testing.T) {
	bus := transport.NewBus()
	n := newTestNode(t, bus, "camX", nodeConfig("camX", trajstore.NewMemStore()))
	if err := n.RunLive(context.Background(), nil); err == nil {
		t.Error("nil source accepted")
	}
}

type countingSink struct{ n int }

func (c *countingSink) StoreFrameContext(context.Context, protocol.FrameRecord) error {
	c.n++
	return nil
}

func TestStoreFramesSendsRecords(t *testing.T) {
	bus := transport.NewBus()
	store := trajstore.NewMemStore()
	sink := &countingSink{}
	cfg := nodeConfig("camF", store)
	cfg.FrameStore = sink
	cfg.StoreFrames = true
	n := newTestNode(t, bus, "camF", cfg)
	for seq := int64(0); seq < 4; seq++ {
		if err := n.ProcessFrameContext(context.Background(), makeFrame("camF", seq, 20, "v", imaging.Red)); err != nil {
			t.Fatal(err)
		}
	}
	if sink.n != 4 {
		t.Errorf("stored %d frames", sink.n)
	}
}

func TestProcessFrameNil(t *testing.T) {
	bus := transport.NewBus()
	n := newTestNode(t, bus, "camN", nodeConfig("camN", trajstore.NewMemStore()))
	if err := n.ProcessFrameContext(context.Background(), nil); err == nil {
		t.Error("nil frame accepted")
	}
}
