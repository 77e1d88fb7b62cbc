package fleet

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/obs"
)

// Flags is the shared fleet flag block every binary registers, so all
// of them join the health plane the same way:
//
//	-monitor            heartbeat address of a coral-monitor (empty = off)
//	-node-id            fleet-unique node identity
//	-heartbeat-interval how often to push heartbeats
type Flags struct {
	Monitor  string
	NodeID   string
	Interval time.Duration
}

// RegisterFlags registers the shared fleet flag block on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Monitor, "monitor", "",
		"fleet monitor heartbeat address (host:port); empty disables heartbeats")
	fs.StringVar(&f.NodeID, "node-id", "",
		"fleet-unique node identity (default <component>-<hostname>)")
	fs.DurationVar(&f.Interval, "heartbeat-interval", 5*time.Second,
		"fleet heartbeat push interval")
	return f
}

// ResolveNodeID returns the explicit -node-id, or <component>-<hostname>.
func (f *Flags) ResolveNodeID(component string) string {
	if f.NodeID != "" {
		return f.NodeID
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	return component + "-" + host
}

// Start joins the health plane when -monitor is set: it dials the
// monitor (lazily — an unreachable monitor only fails pushes, never the
// node), builds an agent snapshotting reg and evaluating checks, and
// starts the push loop. It returns a stop function (always non-nil) and
// whether heartbeats are enabled.
func (f *Flags) Start(ctx context.Context, component string, reg *obs.Registry, checks []obs.NamedCheck, logger *slog.Logger) (stop func(), enabled bool) {
	if f.Monitor == "" {
		return func() {}, false
	}
	client := Dial(f.Monitor, ClientConfig{Registry: reg})
	agent := NewAgent(AgentConfig{
		NodeID:    f.ResolveNodeID(component),
		Component: component,
		Registry:  reg,
		Checks:    checks,
		Send: func(ctx context.Context, hb *Heartbeat) error {
			return client.Push(ctx, hb)
		},
	})
	agent.Start(ctx, f.Interval)
	if logger != nil {
		logger.Info("fleet heartbeats started",
			"monitor", f.Monitor,
			"node", f.ResolveNodeID(component),
			"interval", f.Interval)
	}
	return func() {
		agent.Stop()
		_ = client.Close()
	}, true
}

// RuleFlag is a repeatable -alert flag value collecting parsed alert
// rules: -alert 'drops=rate(coralpie_transport_lost_total)>0.5'.
type RuleFlag struct {
	Rules []Rule
}

// String implements flag.Value.
func (r *RuleFlag) String() string {
	if r == nil || len(r.Rules) == 0 {
		return ""
	}
	return fmt.Sprintf("%d rules", len(r.Rules))
}

// Set implements flag.Value by parsing one rule per occurrence.
func (r *RuleFlag) Set(s string) error {
	rule, err := ParseRule(s)
	if err != nil {
		return err
	}
	r.Rules = append(r.Rules, rule)
	return nil
}
