package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/rpc/faultinject"
	"repro/internal/vision"
)

// TestSystemSurvivesLossyNetwork injects 10% message loss and checks the
// system degrades gracefully: no panics or deadlocks, every camera keeps
// generating events, and topology management recovers from lost
// heartbeats and updates (a camera falsely expired by a lost heartbeat
// re-registers on its next one).
func TestSystemSurvivesLossyNetwork(t *testing.T) {
	g, ids, err := roadnet.Corridor(5, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Graph: g,
		Seed:  21,
		Fault: faultinject.Config{DropRate: 0.10},
		DetectorFactory: func(string) (vision.Detector, error) {
			return vision.PerfectDetector{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 4} {
		if err := sys.AddCameraAt(camID(i), ids[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 4; v++ {
		addVehicle(t, sys, "veh-"+string(rune('0'+v)), v, ids, time.Duration(v)*15*time.Second)
	}
	sys.Start(context.Background())
	sys.Run(sys.World().LastVehicleDone() + 30*time.Second)
	// The run may end inside an eviction window: a camera whose last
	// couple of heartbeats were all lost is expired and has not yet had a
	// heartbeat through to re-register. Healing is the property under
	// test, so give it a few heartbeat cycles rather than sampling the
	// racy instant at the cutoff.
	for i := 0; i < 5 && len(sys.TopologyServer().Cameras()) < 3; i++ {
		sys.Run(2 * sys.cfg.HeartbeatInterval)
	}
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Despite loss, every camera saw every vehicle and produced events.
	for _, i := range []int{0, 2, 4} {
		node, err := sys.Node(camID(i))
		if err != nil {
			t.Fatal(err)
		}
		st := node.Stats()
		if st.EventsGenerated < 4 {
			t.Errorf("%s generated %d events, want >= 4", camID(i), st.EventsGenerated)
		}
	}
	// The store holds all 12 events; some re-id edges may be missing
	// (lost informs), but a clear majority should have survived 10% loss.
	store := sys.TrajStore()
	if store.NumVertices() < 12 {
		t.Errorf("vertices = %d, want >= 12", store.NumVertices())
	}
	if store.NumEdges() < 4 {
		t.Errorf("edges = %d: loss should not destroy most re-identification", store.NumEdges())
	}
	// All three cameras are still registered (lost heartbeats healed).
	if got := len(sys.TopologyServer().Cameras()); got != 3 {
		t.Errorf("registered cameras = %d, want 3", got)
	}
}

func TestLossRateValidationInConfig(t *testing.T) {
	g, _, err := roadnet.Corridor(2, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(Config{Graph: g, Fault: faultinject.Config{DropRate: 1.5}}); err == nil {
		t.Error("loss rate > 1 accepted")
	}
	if _, err := NewSystem(Config{Graph: g, Fault: faultinject.Config{ErrorRate: 2}}); err == nil {
		t.Error("error rate > 1 accepted")
	}
}

// TestFaultInjectionDeterministic runs the same seeded simulation twice
// with every fault class enabled (drop, error, latency with jitter) and
// requires byte-identical Prometheus renderings: the injected fault
// stream must be a pure function of the seed, so robustness experiments
// stay reproducible.
func TestFaultInjectionDeterministic(t *testing.T) {
	render := func() []byte {
		g, ids, err := roadnet.Corridor(3, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(Config{
			Graph: g,
			Seed:  99,
			Fault: faultinject.Config{
				DropRate:      0.05,
				ErrorRate:     0.02,
				Latency:       500 * time.Microsecond,
				LatencyJitter: time.Millisecond,
			},
			DetectorFactory: func(string) (vision.Detector, error) {
				return vision.PerfectDetector{}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, node := range ids {
			if err := sys.AddCameraAt(camID(i), node, 0); err != nil {
				t.Fatal(err)
			}
		}
		for v := 0; v < 2; v++ {
			addVehicle(t, sys, "veh-"+string(rune('0'+v)), v, ids, time.Duration(v)*15*time.Second)
		}
		sys.Start(context.Background())
		sys.Run(sys.World().LastVehicleDone() + 10*time.Second)
		sys.Stop()
		if err := sys.FlushAll(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sys.Telemetry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("empty metric rendering")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed faulty runs rendered different metrics:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}
