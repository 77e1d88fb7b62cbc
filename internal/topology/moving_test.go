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

// TestMovingCameraReplacement exercises the moving-camera extension: a
// known camera whose heartbeat position drifts past the threshold is
// re-placed in the road graph and the affected peers are healed.
func TestMovingCameraReplacement(t *testing.T) {
	sim := des.New(epoch)
	bus := transport.NewSimBus(sim, time.Millisecond)
	graph, ids, err := roadnet.Corridor(4, 200, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := bus.Endpoint("srv")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultServerConfig()
	cfg.MoveThresholdMeters = 50
	srv, err := NewServer(graph, ep, clock.Func(sim.Time), cfg)
	if err != nil {
		t.Fatal(err)
	}

	posOf := func(i int) geo.Point {
		t.Helper()
		n, err := graph.Node(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		return n.Pos
	}

	// A static observer camera at node 0 and the mover at node 1.
	obs := registerClient(t, bus, sim, "obs", posOf(0))
	srv.HandleHeartbeatContext(context.Background(), protocol.Heartbeat{CameraID: "obs", Position: posOf(0), Addr: "obs", Time: sim.Time()})
	srv.HandleHeartbeatContext(context.Background(), protocol.Heartbeat{CameraID: "mover", Position: posOf(1), Addr: "mover", Time: sim.Time()})
	sim.RunFor(time.Second)

	place, err := graph.CameraPlaceOf("mover")
	if err != nil || place.AtNode != ids[1] {
		t.Fatalf("initial placement = %+v err %v", place, err)
	}
	if refs := obs.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "mover" {
		t.Fatalf("obs east MDCS = %v", refs)
	}

	// Small drift below threshold: no re-placement.
	srv.HandleHeartbeatContext(context.Background(), protocol.Heartbeat{CameraID: "mover", Position: posOf(1).Lerp(posOf(2), 0.1), Addr: "mover", Time: sim.Time()})
	sim.RunFor(time.Second)
	place, err = graph.CameraPlaceOf("mover")
	if err != nil || place.AtNode != ids[1] {
		t.Fatalf("sub-threshold drift moved the camera: %+v", place)
	}

	// Large move to node 3.
	srv.HandleHeartbeatContext(context.Background(), protocol.Heartbeat{CameraID: "mover", Position: posOf(3), Addr: "mover", Time: sim.Time()})
	sim.RunFor(time.Second)
	place, err = graph.CameraPlaceOf("mover")
	if err != nil {
		t.Fatal(err)
	}
	if place.OnEdge() || place.AtNode != ids[3] {
		t.Errorf("post-move placement = %+v, want node %d", place, ids[3])
	}
	// The observer's MDCS still reaches the mover — now via the longer
	// path (the corridor has no other cameras).
	if refs := obs.Lookup(geo.East); len(refs) != 1 || refs[0].ID != "mover" {
		t.Errorf("obs east MDCS after move = %v", refs)
	}
}

// registerClient wires a topology client whose endpoint routes updates.
func registerClient(t *testing.T, bus *transport.Bus, sim *des.Simulator, id string, pos geo.Point) *Client {
	t.Helper()
	ep, err := bus.Endpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(ClientConfig{CameraID: id, ServerAddr: "srv", Position: pos}, ep, clock.Func(sim.Time))
	if err != nil {
		t.Fatal(err)
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
	return cl
}

// TestMovingCameraDisabledByDefault: without a threshold, position drift
// never re-places a camera.
func TestMovingCameraDisabledByDefault(t *testing.T) {
	sim := des.New(epoch)
	bus := transport.NewSimBus(sim, time.Millisecond)
	graph, ids, err := roadnet.Corridor(3, 200, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := bus.Endpoint("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(graph, ep, clock.Func(sim.Time), DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	n0, err := graph.Node(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	n2, err := graph.Node(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	srv.HandleHeartbeatContext(context.Background(), protocol.Heartbeat{CameraID: "cam", Position: n0.Pos, Addr: "cam", Time: sim.Time()})
	srv.HandleHeartbeatContext(context.Background(), protocol.Heartbeat{CameraID: "cam", Position: n2.Pos, Addr: "cam", Time: sim.Time()})
	place, err := graph.CameraPlaceOf("cam")
	if err != nil || place.AtNode != ids[0] {
		t.Errorf("camera moved with the feature disabled: %+v err %v", place, err)
	}
}
