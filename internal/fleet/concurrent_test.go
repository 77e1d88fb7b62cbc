package fleet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestConcurrentIngestSweepFederate hammers one monitor from many
// goroutines — pushers, sweepers, and readers — under the race detector
// (it is part of make race-stress). Correctness bar: no races, and every
// accepted heartbeat is accounted for.
func TestConcurrentIngestSweepFederate(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{
		LivenessTimeout: 50 * time.Millisecond,
		Registry:        obs.NewRegistry(),
		Rules: []Rule{{
			Name: "busy", Metric: "coralpie_pushes_total",
			Kind: RuleThreshold, Op: ">", Value: 5,
		}},
	})

	const nodes, pushes = 8, 50
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			reg := obs.NewRegistry()
			c := reg.Counter("coralpie_pushes_total", "")
			for i := 0; i < pushes; i++ {
				c.Inc()
				snap := reg.Snapshot()
				_ = m.Ingest(&Heartbeat{
					NodeID:  fmt.Sprintf("node-%d", n),
					Seq:     uint64(i + 1),
					Metrics: &snap,
				})
			}
		}(n)
	}
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					m.Sweep()
					_ = m.Summary()
					_ = m.FederateSnapshot()
					_, _ = m.Alerts()
				}
			}
		}()
	}
	go func() {
		defer close(done)
		// Wait for the pushers (first `nodes` wg members) by counting
		// total accepted heartbeats instead of a second WaitGroup.
		for {
			sum := m.Summary()
			var total uint64
			for _, n := range sum.Nodes {
				total += n.Heartbeats
			}
			if total == nodes*pushes {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	sum := m.Summary()
	if len(sum.Nodes) != nodes {
		t.Fatalf("nodes = %d, want %d", len(sum.Nodes), nodes)
	}
	for _, n := range sum.Nodes {
		if n.Heartbeats != pushes {
			t.Fatalf("node %s heartbeats = %d, want %d", n.NodeID, n.Heartbeats, pushes)
		}
	}
	// Every node crossed the alert threshold by the end; a final sweep
	// must fire all of them.
	m.Sweep()
	active, _ := m.Alerts()
	for _, n := range sum.Nodes {
		if alertState(active, "busy", n.NodeID) != AlertFiring {
			t.Fatalf("busy alert not firing for %s: %+v", n.NodeID, active)
		}
	}
}

// TestConcurrentAgentStartStop exercises the agent's background loop
// lifecycle under race: Start, concurrent pushes, idempotent Stop.
func TestConcurrentAgentStartStop(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{Registry: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var agents []*Agent
	for i := 0; i < 4; i++ {
		a := NewAgent(AgentConfig{
			NodeID:      fmt.Sprintf("n%d", i),
			Registry:    obs.NewRegistry(),
			OmitMetrics: true,
			Send: func(ctx context.Context, hb *Heartbeat) error {
				return m.Ingest(hb)
			},
		})
		a.Start(ctx, time.Millisecond)
		agents = append(agents, a)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(m.Nodes()) < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(m.Nodes()); got != 4 {
		t.Fatalf("nodes after start = %d, want 4", got)
	}
	var wg sync.WaitGroup
	for _, a := range agents {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(a *Agent) { defer wg.Done(); a.Stop() }(a)
		}
	}
	wg.Wait()
}
