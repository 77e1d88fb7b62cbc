package fleet

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// SendFunc delivers one heartbeat to the monitor. Real binaries bind a
// Client.Push; the DES runner binds an in-proc bus send so partitioned
// nodes' heartbeats fail exactly like their data traffic.
type SendFunc func(ctx context.Context, hb *Heartbeat) error

// AgentConfig configures NewAgent.
type AgentConfig struct {
	// NodeID is this node's fleet-unique identity (required).
	NodeID string
	// Component names the kind of node (coral-node, trajstore-server...).
	Component string
	// Clock stamps heartbeats; nil means real time.
	Clock clock.Clock
	// Registry is snapshotted into each heartbeat and receives the
	// agent's own send/error counters; nil uses Default().
	Registry *obs.Registry
	// OmitMetrics sends heartbeats without a registry snapshot. The DES
	// runner sets it: simulated components share one registry, and
	// federating the same snapshot once per agent would multiply every
	// counter by the fleet size.
	OmitMetrics bool
	// Checks are evaluated into every heartbeat — the same list the
	// node's /healthz?v=json serves, so the monitor sees exactly what
	// the node reports locally.
	Checks []obs.NamedCheck
	// Send delivers heartbeats (required).
	Send SendFunc
}

// Agent builds and pushes one node's heartbeats. Safe for concurrent
// use.
type Agent struct {
	cfg   AgentConfig
	begin time.Time
	seq   atomic.Uint64
	sent  *obs.Counter
	errs  *obs.Counter

	stopOnce sync.Once
	stopped  chan struct{}
	loop     sync.WaitGroup // the Start loop
}

// NewAgent builds an agent; it panics on a missing NodeID or Send
// (wiring-time programmer errors).
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.NodeID == "" {
		panic(errors.New("fleet: agent needs a node id"))
	}
	if cfg.Send == nil {
		panic(errors.New("fleet: agent needs a send function"))
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	return &Agent{
		cfg:   cfg,
		begin: cfg.Clock.Now(),
		sent: reg.Counter("coralpie_fleet_heartbeats_sent_total",
			"heartbeats pushed to the fleet monitor", "node", cfg.NodeID),
		errs: reg.Counter("coralpie_fleet_heartbeat_errors_total",
			"heartbeat pushes that failed", "node", cfg.NodeID),
		stopped: make(chan struct{}),
	}
}

// Heartbeat assembles the next heartbeat: sequence number, uptime,
// check results, and (unless omitted) the registry snapshot.
func (a *Agent) Heartbeat() *Heartbeat {
	now := a.cfg.Clock.Now()
	hb := &Heartbeat{
		NodeID:        a.cfg.NodeID,
		Component:     a.cfg.Component,
		Seq:           a.seq.Add(1),
		SentAt:        now,
		UptimeSeconds: now.Sub(a.begin).Seconds(),
		GoVersion:     runtime.Version(),
		Checks:        checksFromObs(obs.RunChecks(a.cfg.Checks)),
	}
	if !a.cfg.OmitMetrics {
		reg := a.cfg.Registry
		if reg == nil {
			reg = obs.Default()
		}
		snap := reg.Snapshot()
		hb.Metrics = &snap
	}
	return hb
}

// Push sends one heartbeat now, bounded by ctx, and counts the outcome.
func (a *Agent) Push(ctx context.Context) error {
	err := a.cfg.Send(ctx, a.Heartbeat())
	if err != nil {
		a.errs.Inc()
		return err
	}
	a.sent.Inc()
	return nil
}

// Start pushes a heartbeat immediately and then every interval on a
// background goroutine, until Stop is called or ctx is canceled. Push
// failures are counted and swallowed — a node must keep serving when
// the health plane is down. Real binaries use Start; the DES runner
// drives Push from simulator tickers instead.
func (a *Agent) Start(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	a.loop.Add(1)
	go func() {
		defer a.loop.Done()
		_ = a.Push(ctx)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = a.Push(ctx)
			case <-ctx.Done():
				return
			case <-a.stopped:
				return
			}
		}
	}()
}

// Stop ends the Start loop and waits for a push in flight, so the
// client under Send can close once Stop returns. Idempotent.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stopped) })
	a.loop.Wait()
}
