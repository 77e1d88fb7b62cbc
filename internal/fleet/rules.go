package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// RuleKind discriminates how a rule reads its metric.
type RuleKind string

const (
	// RuleThreshold compares the metric's instantaneous value (counter
	// and gauge values, histogram observation counts).
	RuleThreshold RuleKind = "threshold"
	// RuleRate compares the metric's per-second rate of change between
	// consecutive monitor sweeps. Counters are the usual subject;
	// negative rates (counter reset after a node restart) are clamped
	// to zero rather than firing "decrease" alerts.
	RuleRate RuleKind = "rate"
)

// Rule is one declarative alert rule, evaluated per node on every
// monitor sweep against that node's most recent metric snapshot. A
// node with no snapshot (or without the metric) is skipped.
type Rule struct {
	// Name identifies the rule in alerts and transitions.
	Name string `json:"name"`
	// Metric is the family to read, e.g. coralpie_transport_lost_total.
	// All children of the family are summed.
	Metric string `json:"metric"`
	// Kind selects threshold or rate-of-change evaluation.
	Kind RuleKind `json:"kind"`
	// Op is the comparison: one of > >= < <=.
	Op string `json:"op"`
	// Value is the comparison operand; the rule fires while
	// "observed Op Value" holds.
	Value float64 `json:"value"`
}

// Validate reports the first problem with the rule, or nil. A rule that
// could never fire is a problem: its metric must be a name the registry
// accepts (families are matched by exact name) and its value finite.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("fleet: rule needs a name")
	}
	if !obs.ValidName(r.Metric) {
		return fmt.Errorf("fleet: rule %s: invalid metric name %q", r.Name, r.Metric)
	}
	if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
		return fmt.Errorf("fleet: rule %s: non-finite value %v", r.Name, r.Value)
	}
	switch r.Kind {
	case RuleThreshold, RuleRate:
	default:
		return fmt.Errorf("fleet: rule %s: unknown kind %q", r.Name, r.Kind)
	}
	switch r.Op {
	case ">", ">=", "<", "<=":
	default:
		return fmt.Errorf("fleet: rule %s: unknown op %q", r.Name, r.Op)
	}
	return nil
}

// exceeded reports whether v trips the rule.
func (r Rule) exceeded(v float64) bool {
	switch r.Op {
	case ">":
		return v > r.Value
	case ">=":
		return v >= r.Value
	case "<":
		return v < r.Value
	case "<=":
		return v <= r.Value
	}
	return false
}

// ParseRule parses the compact rule grammar used by -alert flags:
//
//	<name>=<metric><op><value>          threshold rule
//	<name>=rate(<metric>)<op><value>    rate-of-change rule (per second)
//
// Examples:
//
//	drops=rate(coralpie_transport_lost_total)>0.5
//	rpc-errors=coralpie_rpc_errors_total>=10
func ParseRule(s string) (Rule, error) {
	name, expr, ok := strings.Cut(s, "=")
	// An op character directly after the cut means "=" belonged to
	// ">=/<=" and there was no name at all.
	if !ok || name == "" || strings.ContainsAny(name, "<>") {
		return Rule{}, fmt.Errorf("fleet: bad rule %q, want name=metric<op>value", s)
	}
	rule := Rule{Name: name, Kind: RuleThreshold}
	if rest, found := strings.CutPrefix(expr, "rate("); found {
		metric, tail, ok := strings.Cut(rest, ")")
		if !ok {
			return Rule{}, fmt.Errorf("fleet: bad rule %q: unclosed rate(", s)
		}
		rule.Kind = RuleRate
		rule.Metric = metric
		expr = tail
	} else {
		i := strings.IndexAny(expr, "<>")
		if i < 0 {
			return Rule{}, fmt.Errorf("fleet: bad rule %q: no comparison operator", s)
		}
		rule.Metric = expr[:i]
		expr = expr[i:]
	}
	op := ""
	for _, cand := range []string{">=", "<=", ">", "<"} {
		if strings.HasPrefix(expr, cand) {
			op = cand
			break
		}
	}
	if op == "" {
		return Rule{}, fmt.Errorf("fleet: bad rule %q: no comparison operator", s)
	}
	rule.Op = op
	v, err := strconv.ParseFloat(strings.TrimSpace(expr[len(op):]), 64)
	if err != nil {
		return Rule{}, fmt.Errorf("fleet: bad rule %q: %w", s, err)
	}
	rule.Value = v
	if err := rule.Validate(); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

// AlertState is the lifecycle state of one alert instance.
type AlertState string

const (
	// AlertFiring means the alert's condition currently holds.
	AlertFiring AlertState = "firing"
	// AlertResolved means the condition held earlier and has cleared.
	AlertResolved AlertState = "resolved"
)

// Alert is one (rule, node) alert instance's current state.
type Alert struct {
	Rule  string     `json:"rule"`
	Node  string     `json:"node,omitempty"`
	State AlertState `json:"state"`
	// Since is when the alert last changed state.
	Since time.Time `json:"since"`
	// Value is the observation that produced the current state.
	Value float64 `json:"value"`
	// Reason is a human-readable summary of the condition.
	Reason string `json:"reason,omitempty"`
}

// AlertTransition is one firing/resolved edge in the alert history.
type AlertTransition struct {
	// Seq orders transitions globally (monotonic per monitor).
	Seq int       `json:"seq"`
	At  time.Time `json:"at"`
	Alert
}

// ratePoint remembers one (rule, node) sample for rate evaluation.
type ratePoint struct {
	value float64
	at    time.Time
}

// alertEngine owns alert state: active (rule, node) alerts, the bounded
// transition history, and the previous samples rate rules difference
// against. It is not safe for concurrent use; the Monitor serializes
// access under its lock.
type alertEngine struct {
	rules      []Rule
	active     map[string]*Alert
	keys       []string // sorted keys of active, for deterministic render
	history    []AlertTransition
	maxHistory int
	seq        int
	prev       map[string]ratePoint

	transitions *obs.Counter
	firing      *obs.Gauge
}

func newAlertEngine(rules []Rule, maxHistory int, transitions *obs.Counter, firing *obs.Gauge) *alertEngine {
	if maxHistory <= 0 {
		maxHistory = 1024
	}
	return &alertEngine{
		rules:       rules,
		active:      make(map[string]*Alert),
		maxHistory:  maxHistory,
		prev:        make(map[string]ratePoint),
		transitions: transitions,
		firing:      firing,
	}
}

func alertKey(rule, node string) string { return rule + "\x00" + node }

// setState drives one (rule, node) alert to firing or not, recording a
// transition when the state actually changes. It returns the transition
// taken, or nil for a no-op.
func (e *alertEngine) setState(rule, node string, firing bool, value float64, reason string, now time.Time) *AlertTransition {
	key := alertKey(rule, node)
	cur, exists := e.active[key]
	switch {
	case firing && (!exists || cur.State != AlertFiring):
		if !exists {
			cur = &Alert{Rule: rule, Node: node}
			e.active[key] = cur
			e.keys = insertSorted(e.keys, key)
		}
		cur.State = AlertFiring
		cur.Since = now
		cur.Value = value
		cur.Reason = reason
		e.firing.Inc()
		return e.recordTransition(*cur, now)
	case !firing && exists && cur.State == AlertFiring:
		cur.State = AlertResolved
		cur.Since = now
		cur.Value = value
		cur.Reason = reason
		e.firing.Dec()
		return e.recordTransition(*cur, now)
	case exists && cur.State == AlertFiring:
		// Still firing: refresh the observation, keep Since.
		cur.Value = value
		cur.Reason = reason
	}
	return nil
}

func (e *alertEngine) recordTransition(a Alert, now time.Time) *AlertTransition {
	e.seq++
	tr := AlertTransition{Seq: e.seq, At: now, Alert: a}
	e.history = append(e.history, tr)
	if over := len(e.history) - e.maxHistory; over > 0 {
		e.history = append(e.history[:0], e.history[over:]...)
	}
	e.transitions.Inc()
	return &tr
}

// evaluate runs every metric rule against every node's latest snapshot.
// nodes must be sorted by ID and snapshots may be nil. Returns the
// transitions taken this pass, in evaluation order.
func (e *alertEngine) evaluate(nodes []*nodeEntry, now time.Time) []AlertTransition {
	var taken []AlertTransition
	for _, rule := range e.rules {
		for _, n := range nodes {
			if n.hb.Metrics == nil {
				continue
			}
			raw, ok := sampleFamily(n.hb.Metrics, rule.Metric)
			if !ok {
				continue
			}
			v := raw
			if rule.Kind == RuleRate {
				key := alertKey(rule.Name, n.hb.NodeID)
				prev, seen := e.prev[key]
				e.prev[key] = ratePoint{value: raw, at: now}
				if !seen || now.Sub(prev.at) <= 0 {
					continue
				}
				v = (raw - prev.value) / now.Sub(prev.at).Seconds()
				if v < 0 {
					v = 0 // counter reset after restart
				}
			}
			reason := fmt.Sprintf("%s(%s) = %g, want not %s %g",
				rule.Kind, rule.Metric, v, rule.Op, rule.Value)
			if tr := e.setState(rule.Name, n.hb.NodeID, rule.exceeded(v), v, reason, now); tr != nil {
				taken = append(taken, *tr)
			}
		}
	}
	return taken
}

// alerts returns the active alert instances sorted by (rule, node).
func (e *alertEngine) alerts() []Alert {
	out := make([]Alert, 0, len(e.keys))
	for _, key := range e.keys {
		out = append(out, *e.active[key])
	}
	return out
}

// sampleFamily sums a family's children in snap: counter and gauge
// values, or histogram observation counts.
func sampleFamily(snap *obs.Snapshot, name string) (float64, bool) {
	for _, fam := range snap.Families {
		if fam.Name != name {
			continue
		}
		var total float64
		for _, m := range fam.Metrics {
			if fam.Type == obs.TypeHistogram {
				total += float64(m.Count)
			} else {
				total += float64(m.Value)
			}
		}
		return total, true
	}
	return 0, false
}

// insertSorted inserts s into sorted (keeping order) if not present.
func insertSorted(sorted []string, s string) []string {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == s {
		return sorted
	}
	sorted = append(sorted, "")
	copy(sorted[lo+1:], sorted[lo:])
	sorted[lo] = s
	return sorted
}
