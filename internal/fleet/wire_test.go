package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestWirePushRoundTrip(t *testing.T) {
	m := NewMonitor(MonitorConfig{Registry: obs.NewRegistry()})
	srv, err := ServeWith(m, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := Dial(srv.Addr(), ClientConfig{Registry: obs.NewRegistry()})
	defer c.Close()

	reg := obs.NewRegistry()
	reg.Counter("coralpie_frames_total", "").Add(42)
	snap := reg.Snapshot()
	hb := &Heartbeat{
		NodeID:    "cam1",
		Component: "coral-node",
		Seq:       1,
		SentAt:    time.Unix(100, 0),
		Checks:    []ComponentCheck{{Component: "pipeline", OK: true}},
		Metrics:   &snap,
	}
	if err := c.Push(context.Background(), hb); err != nil {
		t.Fatal(err)
	}

	sum := m.Summary()
	if len(sum.Nodes) != 1 || sum.Nodes[0].NodeID != "cam1" || sum.Nodes[0].State != NodeAlive {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Nodes[0].Checks) != 1 || sum.Nodes[0].Checks[0].Component != "pipeline" {
		t.Fatalf("checks did not survive the wire: %+v", sum.Nodes[0].Checks)
	}
	// The metric snapshot crossed the wire intact.
	fed := m.FederateSnapshot()
	if ms, ok := series(fed, "coralpie_frames_total", "node", "cam1"); !ok || ms.Value != 42 {
		t.Fatalf("federated series = %+v ok=%v", ms, ok)
	}
}

func TestWireRejectsAnonymousHeartbeat(t *testing.T) {
	m := NewMonitor(MonitorConfig{Registry: obs.NewRegistry()})
	srv, err := ServeWith(m, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := Dial(srv.Addr(), ClientConfig{Registry: obs.NewRegistry()})
	defer c.Close()
	if err := c.Push(context.Background(), &Heartbeat{}); err == nil {
		t.Fatal("push without node id accepted")
	}
	if len(m.Nodes()) != 0 {
		t.Fatalf("rejected heartbeat registered a node: %v", m.Nodes())
	}
}

// TestWireLazyDialSurvivesDownMonitor is the degraded-mode contract: a
// node whose monitor is unreachable gets push errors, not a crash, and
// recovers as soon as the monitor appears on the same address.
func TestWireLazyDialSurvivesDownMonitor(t *testing.T) {
	m := NewMonitor(MonitorConfig{Registry: obs.NewRegistry()})
	srv, err := ServeWith(m, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	_ = srv.Close() // monitor goes away before the first push

	c := Dial(addr, ClientConfig{Registry: obs.NewRegistry()})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := c.Push(ctx, &Heartbeat{NodeID: "cam1"}); err == nil {
		t.Fatal("push to a dead monitor succeeded")
	}

	// Monitor comes back on the same address: the cached-dial client
	// reconnects within the push.
	srv2, err := ServeWith(m, addr, ServerOptions{})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if err := c.Push(context.Background(), &Heartbeat{NodeID: "cam1"}); err != nil {
		t.Fatalf("push after monitor recovery: %v", err)
	}
	if got := m.Nodes(); len(got) != 1 || got[0] != "cam1" {
		t.Fatalf("nodes = %v", got)
	}
}

func TestAgentPushesThroughWire(t *testing.T) {
	m := NewMonitor(MonitorConfig{Registry: obs.NewRegistry()})
	srv, err := ServeWith(m, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := Dial(srv.Addr(), ClientConfig{Registry: obs.NewRegistry()})
	defer c.Close()

	agentReg := obs.NewRegistry()
	agentReg.Counter("coralpie_frames_total", "").Add(3)
	a := NewAgent(AgentConfig{
		NodeID:    "cam9",
		Component: "coral-node",
		Registry:  agentReg,
		Checks:    []obs.NamedCheck{{Name: "pipeline", Check: nil}},
		Send:      c.Push,
	})
	if err := a.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Push(context.Background()); err != nil {
		t.Fatal(err)
	}

	sum := m.Summary()
	if len(sum.Nodes) != 1 || sum.Nodes[0].Heartbeats != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Nodes[0].Component != "coral-node" || len(sum.Nodes[0].Checks) != 1 {
		t.Fatalf("node row = %+v", sum.Nodes[0])
	}
	// The agent counts its own sends in its registry.
	if v := counterValue(t, agentReg, "coralpie_fleet_heartbeats_sent_total"); v != 2 {
		t.Fatalf("sent counter = %d, want 2", v)
	}
}
