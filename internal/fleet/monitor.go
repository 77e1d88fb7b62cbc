package fleet

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// NodeState is a node's liveness as judged by the monitor.
type NodeState string

const (
	// NodeAlive means the node's heartbeats are arriving on time.
	NodeAlive NodeState = "alive"
	// NodeDead means the node has missed enough heartbeats to be
	// presumed down (or never recovered after a sequence reset).
	NodeDead NodeState = "dead"
)

// Transition is one liveness state change the monitor observed.
type Transition struct {
	// Seq orders transitions globally (monotonic per monitor).
	Seq    int       `json:"seq"`
	NodeID string    `json:"nodeId"`
	From   NodeState `json:"from,omitempty"`
	To     NodeState `json:"to"`
	At     time.Time `json:"at"`
}

// NodeDownRule names the built-in liveness alert the monitor raises for
// every node it declares dead, without any configured rules.
const NodeDownRule = "node_down"

// MonitorConfig configures NewMonitor. The zero value works: real
// clock, 10s liveness timeout, no rules, default registry.
type MonitorConfig struct {
	// Clock stamps ingests, sweeps, and transitions. The DES runner
	// injects the simulator's virtual clock here so the whole liveness
	// and alert timeline is reproducible. Nil means real time.
	Clock clock.Clock
	// LivenessTimeout is how long after the last heartbeat a node is
	// declared dead. Deployments usually set it to a small multiple of
	// the fleet's heartbeat interval. Zero means 10s.
	LivenessTimeout time.Duration
	// Rules are the metric alert rules evaluated on every sweep.
	Rules []Rule
	// Registry receives the monitor's own telemetry; nil uses Default().
	Registry *obs.Registry
	// Logger receives liveness and alert transition lines; nil is quiet.
	Logger *slog.Logger
	// MaxTransitions bounds both the liveness and the alert transition
	// histories (oldest dropped). Zero means 1024.
	MaxTransitions int
}

// Monitor is the fleet's health authority: it ingests heartbeats,
// judges liveness, federates metrics, and evaluates alert rules. All
// methods are safe for concurrent use.
type Monitor struct {
	clk     clock.Clock
	timeout time.Duration
	log     *slog.Logger

	mu          sync.Mutex
	nodes       map[string]*nodeEntry
	nodeIDs     []string // sorted keys of nodes
	transitions []Transition
	maxHistory  int
	seq         int
	engine      *alertEngine

	// Self-telemetry.
	heartbeats  *obs.Counter
	rejects     *obs.Counter
	transCount  *obs.Counter
	aliveGauge  *obs.Gauge
	deadGauge   *obs.Gauge
	alertsFired *obs.Gauge
}

// nodeEntry is the monitor's record of one node.
type nodeEntry struct {
	hb         Heartbeat // most recent heartbeat
	firstSeen  time.Time
	lastSeen   time.Time
	state      NodeState
	heartbeats uint64 // accepted pushes
}

// NewMonitor builds a monitor; see MonitorConfig. It refuses an invalid
// rule before registering any telemetry.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	for _, r := range cfg.Rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.LivenessTimeout <= 0 {
		cfg.LivenessTimeout = 10 * time.Second
	}
	if cfg.MaxTransitions <= 0 {
		cfg.MaxTransitions = 1024
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	log := cfg.Logger
	if log != nil {
		log = log.With("component", "fleet-monitor")
	}
	m := &Monitor{
		clk:        cfg.Clock,
		timeout:    cfg.LivenessTimeout,
		log:        log,
		nodes:      make(map[string]*nodeEntry),
		maxHistory: cfg.MaxTransitions,
		heartbeats: reg.Counter("coralpie_fleet_heartbeats_total",
			"heartbeats accepted by the monitor"),
		rejects: reg.Counter("coralpie_fleet_heartbeat_rejects_total",
			"heartbeats rejected by the monitor (missing node id)"),
		transCount: reg.Counter("coralpie_fleet_transitions_total",
			"node liveness state transitions observed by the monitor"),
		aliveGauge: reg.Gauge("coralpie_fleet_nodes", "fleet nodes by liveness state",
			"state", string(NodeAlive)),
		deadGauge: reg.Gauge("coralpie_fleet_nodes", "fleet nodes by liveness state",
			"state", string(NodeDead)),
		alertsFired: reg.Gauge("coralpie_fleet_alerts_firing",
			"alert instances currently firing"),
	}
	m.engine = newAlertEngine(cfg.Rules,
		cfg.MaxTransitions,
		reg.Counter("coralpie_fleet_alert_transitions_total",
			"alert firing/resolved transitions"),
		m.alertsFired)
	return m, nil
}

// Ingest accepts one heartbeat. A heartbeat from a dead (or unknown)
// node immediately transitions it to alive — recovery is detected at
// push time, not at the next sweep.
func (m *Monitor) Ingest(hb *Heartbeat) error {
	if hb == nil || hb.NodeID == "" {
		m.rejects.Inc()
		return fmt.Errorf("fleet: heartbeat without node id")
	}
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[hb.NodeID]
	if !ok {
		n = &nodeEntry{firstSeen: now}
		m.nodes[hb.NodeID] = n
		m.nodeIDs = insertSorted(m.nodeIDs, hb.NodeID)
	}
	n.hb = *hb
	n.lastSeen = now
	n.heartbeats++
	m.heartbeats.Inc()
	if n.state != NodeAlive {
		m.transition(n, hb.NodeID, NodeAlive, now)
	}
	return nil
}

// Sweep is one liveness pass: any alive node whose last heartbeat is
// older than the liveness timeout transitions to dead, the built-in
// node_down alert is raised or cleared per node, and the configured
// metric rules are evaluated. Real deployments call it on a ticker;
// the DES runner calls it from a simulator ticker so detection times
// are virtual. It returns the number of nodes currently alive.
func (m *Monitor) Sweep() int {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := 0
	for _, id := range m.nodeIDs {
		n := m.nodes[id]
		if n.state == NodeAlive && now.Sub(n.lastSeen) > m.timeout {
			m.transition(n, id, NodeDead, now)
		}
		if n.state == NodeAlive {
			alive++
		}
		down := n.state == NodeDead
		silent := now.Sub(n.lastSeen).Seconds()
		reason := fmt.Sprintf("no heartbeat from %s for %gs (timeout %gs)",
			id, silent, m.timeout.Seconds())
		if !down {
			reason = fmt.Sprintf("heartbeat from %s %gs ago", id, silent)
		}
		if tr := m.engine.setState(NodeDownRule, id, down, silent, reason, now); tr != nil {
			m.logAlert(*tr)
		}
	}
	for _, tr := range m.engine.evaluate(m.sortedNodes(), now) {
		m.logAlert(tr)
	}
	return alive
}

// transition moves n to state, recording and logging the edge. Caller
// holds m.mu.
func (m *Monitor) transition(n *nodeEntry, id string, to NodeState, now time.Time) {
	from := n.state
	n.state = to
	m.seq++
	m.transitions = append(m.transitions, Transition{
		Seq: m.seq, NodeID: id, From: from, To: to, At: now,
	})
	if over := len(m.transitions) - m.maxHistory; over > 0 {
		m.transitions = append(m.transitions[:0], m.transitions[over:]...)
	}
	m.transCount.Inc()
	switch to {
	case NodeAlive:
		m.aliveGauge.Inc()
		if from == NodeDead {
			m.deadGauge.Dec()
		}
	case NodeDead:
		m.deadGauge.Inc()
		m.aliveGauge.Dec()
	}
	if m.log != nil {
		m.log.Info("node liveness transition",
			"node", id, "from", string(from), "to", string(to))
	}
}

func (m *Monitor) logAlert(tr AlertTransition) {
	if m.log == nil {
		return
	}
	m.log.Warn("alert "+string(tr.State),
		"rule", tr.Rule, "node", tr.Node, "reason", tr.Reason)
}

// sortedNodes returns node entries in NodeID order. Caller holds m.mu.
func (m *Monitor) sortedNodes() []*nodeEntry {
	out := make([]*nodeEntry, 0, len(m.nodeIDs))
	for _, id := range m.nodeIDs {
		out = append(out, m.nodes[id])
	}
	return out
}

// NodeSummary is one node's row in the cluster summary.
type NodeSummary struct {
	NodeID        string           `json:"nodeId"`
	Component     string           `json:"component,omitempty"`
	State         NodeState        `json:"state"`
	FirstSeen     time.Time        `json:"firstSeen"`
	LastSeen      time.Time        `json:"lastSeen"`
	SilentSeconds float64          `json:"silentSeconds"`
	Heartbeats    uint64           `json:"heartbeats"`
	UptimeSeconds float64          `json:"uptimeSeconds,omitempty"`
	GoVersion     string           `json:"goVersion,omitempty"`
	Checks        []ComponentCheck `json:"checks,omitempty"`
}

// ClusterSummary is the monitor's whole-deployment view, served as JSON
// on /cluster. Nodes are sorted by ID and transitions by sequence, so
// two monitors fed the same timeline render byte-identical summaries.
type ClusterSummary struct {
	Now         time.Time     `json:"now"`
	Alive       int           `json:"alive"`
	Dead        int           `json:"dead"`
	Nodes       []NodeSummary `json:"nodes"`
	Transitions []Transition  `json:"transitions,omitempty"`
	Alerts      []Alert       `json:"alerts,omitempty"`
}

// Summary assembles the current cluster view without sweeping.
func (m *Monitor) Summary() ClusterSummary {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	sum := ClusterSummary{
		Now:         now,
		Nodes:       make([]NodeSummary, 0, len(m.nodeIDs)),
		Transitions: append([]Transition(nil), m.transitions...),
		Alerts:      m.engine.alerts(),
	}
	for _, id := range m.nodeIDs {
		n := m.nodes[id]
		if n.state == NodeAlive {
			sum.Alive++
		} else {
			sum.Dead++
		}
		sum.Nodes = append(sum.Nodes, NodeSummary{
			NodeID:        id,
			Component:     n.hb.Component,
			State:         n.state,
			FirstSeen:     n.firstSeen,
			LastSeen:      n.lastSeen,
			SilentSeconds: now.Sub(n.lastSeen).Seconds(),
			Heartbeats:    n.heartbeats,
			UptimeSeconds: n.hb.UptimeSeconds,
			GoVersion:     n.hb.GoVersion,
			Checks:        n.hb.Checks,
		})
	}
	return sum
}

// Alerts returns the active alert instances sorted by (rule, node),
// plus the bounded alert transition history in sequence order.
func (m *Monitor) Alerts() ([]Alert, []AlertTransition) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engine.alerts(), append([]AlertTransition(nil), m.engine.history...)
}

// Transitions returns the bounded liveness transition history.
func (m *Monitor) Transitions() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Transition(nil), m.transitions...)
}

// Nodes returns the known node IDs, sorted.
func (m *Monitor) Nodes() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.nodeIDs...)
}

// sortTransitions is a helper for tests comparing histories from
// different monitors.
func sortTransitions(ts []Transition) {
	sort.Slice(ts, func(a, b int) bool { return ts[a].Seq < ts[b].Seq })
}
