package fleet

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestLivenessLifecycle(t *testing.T) {
	clk := &stepClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry()
	m := mustMonitor(t, MonitorConfig{
		Clock:           clk,
		LivenessTimeout: 6 * time.Second,
		Registry:        reg,
	})

	if err := m.Ingest(&Heartbeat{NodeID: "cam1", Component: "coral-node"}); err != nil {
		t.Fatal(err)
	}
	_ = m.Ingest(&Heartbeat{NodeID: "cam0"})
	if got := m.Nodes(); len(got) != 2 || got[0] != "cam0" || got[1] != "cam1" {
		t.Fatalf("nodes = %v, want sorted [cam0 cam1]", got)
	}
	if alive := m.Sweep(); alive != 2 {
		t.Fatalf("alive = %d, want 2", alive)
	}

	// cam0 keeps beating, cam1 goes silent past the timeout.
	clk.advance(4 * time.Second)
	_ = m.Ingest(&Heartbeat{NodeID: "cam0"})
	clk.advance(4 * time.Second)
	_ = m.Ingest(&Heartbeat{NodeID: "cam0"})
	if alive := m.Sweep(); alive != 1 {
		t.Fatalf("alive after silence = %d, want 1", alive)
	}

	sum := m.Summary()
	if sum.Alive != 1 || sum.Dead != 1 {
		t.Fatalf("summary alive/dead = %d/%d", sum.Alive, sum.Dead)
	}
	if sum.Nodes[1].NodeID != "cam1" || sum.Nodes[1].State != NodeDead {
		t.Fatalf("cam1 row = %+v", sum.Nodes[1])
	}

	// The built-in node_down alert fires for the dead node only.
	active, _ := m.Alerts()
	if alertState(active, NodeDownRule, "cam1") != AlertFiring {
		t.Fatalf("node_down not firing for cam1: %+v", active)
	}
	if alertState(active, NodeDownRule, "cam0") == AlertFiring {
		t.Fatalf("node_down firing for live cam0: %+v", active)
	}

	// Recovery is detected at push time, and the alert resolves on the
	// next sweep.
	clk.advance(time.Second)
	_ = m.Ingest(&Heartbeat{NodeID: "cam1"})
	if sum := m.Summary(); sum.Dead != 0 {
		t.Fatalf("dead after recovery push = %d, want 0", sum.Dead)
	}
	m.Sweep()
	active, hist := m.Alerts()
	if alertState(active, NodeDownRule, "cam1") != AlertResolved {
		t.Fatalf("node_down not resolved: %+v", active)
	}
	if len(hist) != 2 {
		t.Fatalf("alert history = %+v, want fire+resolve", hist)
	}

	// Liveness transitions: cam0 alive, cam1 alive, cam1 dead, cam1 alive.
	trs := m.Transitions()
	if len(trs) != 4 {
		t.Fatalf("transitions = %+v", trs)
	}
	for i, want := range []struct {
		node string
		to   NodeState
	}{{"cam1", NodeAlive}, {"cam0", NodeAlive}, {"cam1", NodeDead}, {"cam1", NodeAlive}} {
		if trs[i].NodeID != want.node || trs[i].To != want.to || trs[i].Seq != i+1 {
			t.Fatalf("transition %d = %+v, want %v->%v", i, trs[i], want.node, want.to)
		}
	}
}

func TestIngestRejectsAnonymousHeartbeat(t *testing.T) {
	reg := obs.NewRegistry()
	m := mustMonitor(t, MonitorConfig{Registry: reg})
	if err := m.Ingest(&Heartbeat{}); err == nil {
		t.Fatal("heartbeat without node id accepted")
	}
	if err := m.Ingest(nil); err == nil {
		t.Fatal("nil heartbeat accepted")
	}
	if v := counterValue(t, reg, "coralpie_fleet_heartbeat_rejects_total"); v != 2 {
		t.Fatalf("rejects counter = %d, want 2", v)
	}
}

func TestTransitionHistoryBounded(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0)}
	m := mustMonitor(t, MonitorConfig{
		Clock:           clk,
		LivenessTimeout: time.Second,
		Registry:        obs.NewRegistry(),
		MaxTransitions:  4,
	})
	// Flap one node: each cycle is one dead + one alive transition.
	_ = m.Ingest(&Heartbeat{NodeID: "n"})
	for i := 0; i < 10; i++ {
		clk.advance(2 * time.Second)
		m.Sweep()
		_ = m.Ingest(&Heartbeat{NodeID: "n"})
	}
	trs := m.Transitions()
	if len(trs) != 4 {
		t.Fatalf("history length = %d, want bound 4", len(trs))
	}
	// Oldest dropped: sequence numbers keep counting.
	if trs[0].Seq <= 1 {
		t.Fatalf("oldest surviving seq = %d, want > 1", trs[0].Seq)
	}
	for i := 1; i < len(trs); i++ {
		if trs[i].Seq != trs[i-1].Seq+1 {
			t.Fatalf("non-contiguous history: %+v", trs)
		}
	}
}

func TestMonitorGauges(t *testing.T) {
	clk := &stepClock{t: time.Unix(0, 0)}
	reg := obs.NewRegistry()
	m := mustMonitor(t, MonitorConfig{
		Clock:           clk,
		LivenessTimeout: time.Second,
		Registry:        reg,
	})
	_ = m.Ingest(&Heartbeat{NodeID: "a"})
	_ = m.Ingest(&Heartbeat{NodeID: "b"})
	if v := gaugeValue(t, reg, "coralpie_fleet_nodes", "state", string(NodeAlive)); v != 2 {
		t.Fatalf("alive gauge = %d, want 2", v)
	}
	clk.advance(5 * time.Second)
	_ = m.Ingest(&Heartbeat{NodeID: "b"})
	m.Sweep()
	if v := gaugeValue(t, reg, "coralpie_fleet_nodes", "state", string(NodeAlive)); v != 1 {
		t.Fatalf("alive gauge after death = %d, want 1", v)
	}
	if v := gaugeValue(t, reg, "coralpie_fleet_nodes", "state", string(NodeDead)); v != 1 {
		t.Fatalf("dead gauge = %d, want 1", v)
	}
	if v := gaugeValue(t, reg, "coralpie_fleet_alerts_firing"); v != 1 {
		t.Fatalf("firing gauge = %d, want 1", v)
	}
}

// counterValue sums a family's children in reg.
func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != name {
			continue
		}
		var total int64
		for _, m := range fam.Metrics {
			total += m.Value
		}
		return total
	}
	t.Fatalf("family %s not registered", name)
	return 0
}

// gaugeValue reads one labeled child exactly.
func gaugeValue(t *testing.T, reg *obs.Registry, name string, labels ...string) int64 {
	t.Helper()
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != name {
			continue
		}
	children:
		for _, m := range fam.Metrics {
			if len(m.Labels)*2 != len(labels) {
				continue
			}
			for i, l := range m.Labels {
				if l.Name != labels[2*i] || l.Value != labels[2*i+1] {
					continue children
				}
			}
			return m.Value
		}
	}
	t.Fatalf("series %s%v not registered", name, labels)
	return 0
}
