package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/camnode"
	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trajstore"
	"repro/internal/vision"
)

// corridorSystem builds a 5-intersection corridor (150 m spacing) with
// cameras on intersections 0, 2, 4 and a perfect detector for protocol-
// level tests.
func corridorSystem(t *testing.T, perfect bool) (*System, []roadnet.NodeID) {
	t.Helper()
	g, ids, err := roadnet.Corridor(5, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, Seed: 42}
	if perfect {
		cfg.DetectorFactory = func(string) (vision.Detector, error) {
			return vision.PerfectDetector{}, nil
		}
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4} {
		if err := sys.AddCameraAt(camID(i), ids[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	return sys, ids
}

func camID(i int) string { return "cam" + string(rune('A'+i)) }

func addVehicle(t *testing.T, sys *System, id string, colorIdx int, route []roadnet.NodeID, depart time.Duration) {
	t.Helper()
	err := sys.World().AddVehicle(sim.VehicleSpec{
		ID:       id,
		Color:    sim.PaletteColor(colorIdx),
		SpeedMPS: 15,
		Route:    route,
		Depart:   depart,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Error("missing graph accepted")
	}
}

// TestNewSystemRefusesRulesThatNeverFire: an alert rule on a name no
// metric family can have, or with a non-finite value, is a config error.
func TestNewSystemRefusesRulesThatNeverFire(t *testing.T) {
	g, _, err := roadnet.Corridor(2, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []fleet.Rule{
		{Name: "x", Metric: "coralpie_fleet_nodes", Kind: fleet.RuleThreshold, Op: ">", Value: math.NaN()},
		{Name: "x", Metric: "coralpie_fleet_nodes", Kind: fleet.RuleRate, Op: "<", Value: math.Inf(1)},
		{Name: "x", Metric: " coralpie_fleet_nodes ", Kind: fleet.RuleThreshold, Op: ">", Value: 1},
		{Name: "a", Metric: "b=coralpie_fleet_nodes", Kind: fleet.RuleThreshold, Op: ">", Value: 1},
	} {
		if _, err := NewSystem(Config{Graph: g, EnableMonitor: true, AlertRules: []fleet.Rule{r}}); err == nil {
			t.Errorf("NewSystem accepted alert rule %+v", r)
		}
	}
}

// TestPoolWithOnlyOnEvictAddsCamera: a pool config that sets only the
// eviction hook keeps the prototype's pool bound, so a camera starts.
func TestPoolWithOnlyOnEvictAddsCamera(t *testing.T) {
	g, ids, err := roadnet.Corridor(2, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{Graph: g, Pool: reid.PoolConfig{OnEvict: func(reid.Entry) {}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCameraAt(camID(0), ids[0], 0); err != nil {
		t.Fatalf("AddCameraAt with an OnEvict-only pool config: %v", err)
	}
}

func TestEndToEndSingleVehicle(t *testing.T) {
	sys, ids := corridorSystem(t, true)
	addVehicle(t, sys, "veh-1", 0, ids, 5*time.Second)

	sys.Start(context.Background())
	sys.Run(90 * time.Second)
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Each of the three cameras generated exactly one event.
	store := sys.TrajStore()
	if store.NumVertices() != 3 {
		t.Fatalf("vertices = %d, want 3", store.NumVertices())
	}
	// Re-identification chained them: camA -> camC -> camE.
	if store.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", store.NumEdges())
	}
	v, err := store.FindByEventID(firstEventID(t, store, camID(0)))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := store.Trajectory(v.ID, trajstore.DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("trajectory = %v", paths)
	}
	wantCams := []string{camID(0), camID(2), camID(4)}
	for i, vid := range paths[0] {
		vv, err := store.Vertex(vid)
		if err != nil {
			t.Fatal(err)
		}
		if vv.Event.CameraID != wantCams[i] {
			t.Errorf("hop %d at %q, want %q", i, vv.Event.CameraID, wantCams[i])
		}
		if vv.Event.TruthID != "veh-1" {
			t.Errorf("hop %d truth %q", i, vv.Event.TruthID)
		}
	}

	// Communication protocol counters: A informed C, C informed E; C and
	// E confirmed upstream.
	nodeA, err := sys.Node(camID(0))
	if err != nil {
		t.Fatal(err)
	}
	nodeC, err := sys.Node(camID(2))
	if err != nil {
		t.Fatal(err)
	}
	nodeE, err := sys.Node(camID(4))
	if err != nil {
		t.Fatal(err)
	}
	if nodeA.Stats().InformsSent != 1 {
		t.Errorf("A informs sent = %d", nodeA.Stats().InformsSent)
	}
	if nodeC.Stats().InformsReceived != 1 || nodeC.Stats().ConfirmsSent != 1 {
		t.Errorf("C stats = %+v", nodeC.Stats())
	}
	if nodeE.Stats().ReidMatches != 1 {
		t.Errorf("E reid matches = %d", nodeE.Stats().ReidMatches)
	}
	if nodeA.Stats().ConfirmsReceived != 1 {
		t.Errorf("A confirms received = %d", nodeA.Stats().ConfirmsReceived)
	}
}

// firstEventID fetches the event ID of the only event from a camera.
func firstEventID(t *testing.T, store *trajstore.Store, camera string) protocol.EventID {
	t.Helper()
	for vid := int64(1); ; vid++ {
		v, err := store.Vertex(vid)
		if err != nil {
			t.Fatalf("no event found for %s", camera)
		}
		if v.Event.CameraID == camera {
			return v.Event.ID
		}
	}
}

func TestEndToEndTwoVehiclesKeepIdentities(t *testing.T) {
	sys, ids := corridorSystem(t, true)
	addVehicle(t, sys, "veh-red", 0, ids, 2*time.Second)
	addVehicle(t, sys, "veh-blue", 1, ids, 12*time.Second)

	sys.Start(context.Background())
	sys.Run(2 * time.Minute)
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		t.Fatal(err)
	}

	store := sys.TrajStore()
	if store.NumVertices() != 6 {
		t.Fatalf("vertices = %d, want 6", store.NumVertices())
	}
	if store.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", store.NumEdges())
	}
	// Every edge links same-vehicle events.
	for vid := int64(1); vid <= 6; vid++ {
		v, err := store.Vertex(vid)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range store.OutEdges(vid) {
			to, err := store.Vertex(e.To)
			if err != nil {
				t.Fatal(err)
			}
			if to.Event.TruthID != v.Event.TruthID {
				t.Errorf("edge %d->%d crosses identities %q -> %q",
					e.From, e.To, v.Event.TruthID, to.Event.TruthID)
			}
		}
	}
}

func TestInformArrivesBeforeVehicle(t *testing.T) {
	// The property behind Figure 10(a): the informing message reaches the
	// downstream camera well before the vehicle does.
	sys, ids := corridorSystem(t, true)
	addVehicle(t, sys, "veh-1", 0, ids, 5*time.Second)

	var informAt, vehicleAt time.Duration
	nodeC, err := sys.Node(camID(2))
	if err != nil {
		t.Fatal(err)
	}
	epoch := sys.Sim().Epoch()
	nodeC.SetHooks(camnode.Hooks{
		OnInformReceived: func(_ protocol.DetectionEvent, at time.Time) {
			if informAt == 0 {
				informAt = at.Sub(epoch)
			}
		},
		OnFirstSeen: func(_ string, at time.Time) {
			if vehicleAt == 0 {
				vehicleAt = at.Sub(epoch)
			}
		},
	})

	sys.Start(context.Background())
	sys.Run(90 * time.Second)
	sys.Stop()

	if informAt == 0 || vehicleAt == 0 {
		t.Fatalf("informAt=%v vehicleAt=%v", informAt, vehicleAt)
	}
	if informAt >= vehicleAt {
		t.Errorf("inform at %v should precede vehicle arrival at %v", informAt, vehicleAt)
	}
	// The gap should be dominated by the inter-camera travel time
	// (300 m at 15 m/s = 20 s), not by network latency.
	if gap := vehicleAt - informAt; gap < 5*time.Second {
		t.Errorf("gap = %v, expected several seconds of head start", gap)
	}
}

func TestSelfHealingAfterCameraFailure(t *testing.T) {
	sys, ids := corridorSystem(t, true)

	sys.Start(context.Background())
	sys.Run(10 * time.Second) // let registration and MDCS pushes settle

	nodeA, err := sys.Node(camID(0))
	if err != nil {
		t.Fatal(err)
	}
	// Before the failure, camA's east MDCS is camC.
	refs := nodeA.Topology().Lookup(geo.East)
	if len(refs) != 1 || refs[0].ID != camID(2) {
		t.Fatalf("pre-failure MDCS = %v", refs)
	}

	if err := sys.FailCamera(camID(2)); err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Second) // heartbeat loss + healing

	refs = nodeA.Topology().Lookup(geo.East)
	if len(refs) != 1 || refs[0].ID != camID(4) {
		t.Errorf("post-failure MDCS = %v, want camE", refs)
	}

	// A vehicle driving through now chains A -> E directly.
	addVehicle(t, sys, "veh-1", 0, ids, sys.Sim().Now()+2*time.Second)
	sys.Run(2 * time.Minute)
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		t.Fatal(err)
	}
	store := sys.TrajStore()
	if store.NumVertices() != 2 {
		t.Fatalf("vertices = %d, want 2 (camC is dead)", store.NumVertices())
	}
	if store.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 (A -> E)", store.NumEdges())
	}
	if err := sys.FailCamera("ghost"); err == nil {
		t.Error("unknown camera accepted")
	}
}

func TestAddCameraWhileRunning(t *testing.T) {
	sys, ids := corridorSystem(t, true)
	sys.Start(context.Background())
	sys.Run(10 * time.Second)

	// camB joins mid-run between A and C; A's MDCS must switch to it.
	if err := sys.AddCameraAt("camB", ids[1], 0); err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * time.Second)
	nodeA, err := sys.Node(camID(0))
	if err != nil {
		t.Fatal(err)
	}
	refs := nodeA.Topology().Lookup(geo.East)
	if len(refs) != 1 || refs[0].ID != "camB" {
		t.Errorf("MDCS after join = %v", refs)
	}
	sys.Stop()
}

func TestDuplicateCameraRejected(t *testing.T) {
	sys, ids := corridorSystem(t, true)
	if err := sys.AddCameraAt(camID(0), ids[1], 0); err == nil {
		t.Error("duplicate camera accepted")
	}
	if _, err := sys.Node("ghost"); err == nil {
		t.Error("unknown node lookup accepted")
	}
}

func TestStoreFramesIntegration(t *testing.T) {
	g, ids, err := roadnet.Corridor(2, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Graph:       g,
		Seed:        1,
		StoreFrames: true,
		DetectorFactory: func(string) (vision.Detector, error) {
			return vision.PerfectDetector{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCameraAt("camA", ids[0], 0); err != nil {
		t.Fatal(err)
	}
	sys.Start(context.Background())
	sys.Run(3 * time.Second)
	sys.Stop()
	if got := sys.FrameStore().Count("camA"); got < 30 {
		t.Errorf("frame store holds %d frames", got)
	}
}

func TestFrameReplicationSurvivesOutage(t *testing.T) {
	g, ids, err := roadnet.Corridor(2, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Graph:         g,
		Seed:          1,
		StoreFrames:   true,
		FrameReplicas: 2,
		DetectorFactory: func(string) (vision.Detector, error) {
			return vision.PerfectDetector{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCameraAt("camA", ids[0], 0); err != nil {
		t.Fatal(err)
	}
	sys.Start(context.Background())
	sys.Run(2 * time.Second)

	// Both replicas saw identical traffic before the outage.
	stores := sys.FrameStores()
	if len(stores) != 2 {
		t.Fatalf("FrameStores() returned %d stores, want 2", len(stores))
	}
	before := stores[0].Count("camA")
	if before == 0 || before != stores[1].Count("camA") {
		t.Fatalf("replicas diverge before outage: %d vs %d",
			before, stores[1].Count("camA"))
	}

	// Kill replica 0 mid-run: the camera keeps streaming and every frame
	// must still land on the survivor.
	if err := sys.FailFrameStore(0); err != nil {
		t.Fatal(err)
	}
	sys.Run(2 * time.Second)
	sys.Stop()

	if got := stores[0].Count("camA"); got != before {
		t.Errorf("dead replica grew from %d to %d frames", before, got)
	}
	after := stores[1].Count("camA")
	if after <= before {
		t.Errorf("survivor stalled at %d frames (had %d before outage)", after, before)
	}
}
