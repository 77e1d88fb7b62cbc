package fleet

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

func TestParseRule(t *testing.T) {
	cases := []struct {
		in   string
		want Rule
		bad  bool
	}{
		{in: "rpc-errors=coralpie_rpc_errors_total>=10", want: Rule{
			Name: "rpc-errors", Metric: "coralpie_rpc_errors_total",
			Kind: RuleThreshold, Op: ">=", Value: 10,
		}},
		{in: "drops=rate(coralpie_transport_lost_total)>0.5", want: Rule{
			Name: "drops", Metric: "coralpie_transport_lost_total",
			Kind: RuleRate, Op: ">", Value: 0.5,
		}},
		{in: "low=coralpie_fleet_nodes<2", want: Rule{
			Name: "low", Metric: "coralpie_fleet_nodes",
			Kind: RuleThreshold, Op: "<", Value: 2,
		}},
		{in: "slack=coralpie_queue_depth<=0", want: Rule{
			Name: "slack", Metric: "coralpie_queue_depth",
			Kind: RuleThreshold, Op: "<=", Value: 0,
		}},
		{in: "", bad: true},
		{in: "noequals>5", bad: true},                   // "=" missing entirely
		{in: "x=metric", bad: true},                     // no operator
		{in: "x=rate(metric>5", bad: true},              // unclosed rate(
		{in: "x=metric>notanumber", bad: true},          // bad operand
		{in: "metric>=10", bad: true},                   // ">=" consumed the "="
		{in: "=coralpie_rpc_errors_total>1", bad: true}, // empty name
		{in: "x=m>NaN", bad: true},                      // never fires
		{in: "x=m>-Inf", bad: true},                     // non-finite value
		{in: "x= m >1", bad: true},                      // metric " m " is no family name
		{in: "a=b=m>1", bad: true},                      // metric "b=m" is no family name
		{in: "x=rate(m-1)>1", bad: true},                // metric "m-1" is no family name
	}
	for _, tc := range cases {
		got, err := ParseRule(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseRule(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseRule(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// FuzzParseRule: ParseRule never panics, and every rule it accepts is
// valid and parses back from name=metric<op>value (the metric inside
// rate(...) for a rate rule) to the same rule.
func FuzzParseRule(f *testing.F) {
	for _, s := range []string{
		"rpc-errors=coralpie_rpc_errors_total>=10",
		"drops=rate(coralpie_transport_lost_total)>0.5",
		"slack=coralpie_queue_depth<=0",
		"low=coralpie_fleet_nodes< 2e3",
		"x=m>NaN",
		"x= m >1",
		"a=b=m>1",
		"x=rate(m>5",
		"metric>=10",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("ParseRule(%q) = %+v, which Validate refuses: %v", s, r, err)
		}
		metric := r.Metric
		if r.Kind == RuleRate {
			metric = "rate(" + metric + ")"
		}
		form := r.Name + "=" + metric + r.Op + strconv.FormatFloat(r.Value, 'g', -1, 64)
		if back, err := ParseRule(form); err != nil || back != r {
			t.Fatalf("ParseRule(%q) = %+v, but %q parses to %+v, %v", s, r, form, back, err)
		}
	})
}

func TestRuleFlagAccumulates(t *testing.T) {
	var rf RuleFlag
	for _, s := range []string{
		"a=coralpie_x_total>1",
		"b=rate(coralpie_y_total)>=0.5",
	} {
		if err := rf.Set(s); err != nil {
			t.Fatal(err)
		}
	}
	if len(rf.Rules) != 2 || rf.Rules[0].Name != "a" || rf.Rules[1].Kind != RuleRate {
		t.Fatalf("rules = %+v", rf.Rules)
	}
	if err := rf.Set("broken"); err == nil {
		t.Fatal("bad rule accepted by flag")
	}
}

// snapshotWith builds a heartbeat carrying one counter family at the
// given value.
func snapshotWith(node string, metric string, value int64) *Heartbeat {
	reg := obs.NewRegistry()
	c := reg.Counter(metric, "")
	c.Add(value)
	snap := reg.Snapshot()
	return &Heartbeat{NodeID: node, Metrics: &snap}
}

func TestThresholdRuleFiresAndResolves(t *testing.T) {
	now := time.Unix(100, 0)
	clk := &stepClock{t: now}
	m := NewMonitor(MonitorConfig{
		Clock:           clk,
		LivenessTimeout: time.Hour, // liveness out of the way
		Rules: []Rule{{
			Name: "errs", Metric: "coralpie_rpc_errors_total",
			Kind: RuleThreshold, Op: ">=", Value: 5,
		}},
		Registry: obs.NewRegistry(),
	})

	if err := m.Ingest(snapshotWith("n1", "coralpie_rpc_errors_total", 3)); err != nil {
		t.Fatal(err)
	}
	m.Sweep()
	if active, _ := m.Alerts(); alertState(active, "errs", "n1") != "" {
		t.Fatalf("alert fired below threshold: %+v", active)
	}

	clk.advance(time.Second)
	if err := m.Ingest(snapshotWith("n1", "coralpie_rpc_errors_total", 5)); err != nil {
		t.Fatal(err)
	}
	m.Sweep()
	active, hist := m.Alerts()
	if alertState(active, "errs", "n1") != AlertFiring {
		t.Fatalf("alert not firing at threshold: %+v", active)
	}
	if len(hist) != 1 || hist[0].State != AlertFiring || hist[0].Seq != 1 {
		t.Fatalf("history = %+v", hist)
	}

	// A second sweep while still over: no new transition.
	clk.advance(time.Second)
	m.Sweep()
	if _, hist = m.Alerts(); len(hist) != 1 {
		t.Fatalf("still-firing sweep grew history: %+v", hist)
	}

	clk.advance(time.Second)
	if err := m.Ingest(snapshotWith("n1", "coralpie_rpc_errors_total", 2)); err != nil {
		t.Fatal(err)
	}
	m.Sweep()
	active, hist = m.Alerts()
	if alertState(active, "errs", "n1") != AlertResolved {
		t.Fatalf("alert not resolved after drop: %+v", active)
	}
	if len(hist) != 2 || hist[1].State != AlertResolved || hist[1].Seq != 2 {
		t.Fatalf("history = %+v", hist)
	}
}

func TestRateRuleMeasuresPerSecond(t *testing.T) {
	clk := &stepClock{t: time.Unix(100, 0)}
	m := NewMonitor(MonitorConfig{
		Clock:           clk,
		LivenessTimeout: time.Hour,
		Rules: []Rule{{
			Name: "drops", Metric: "coralpie_lost_total",
			Kind: RuleRate, Op: ">", Value: 0.5,
		}},
		Registry: obs.NewRegistry(),
	})

	// First sample only seeds the rate window — no alert possible.
	_ = m.Ingest(snapshotWith("n1", "coralpie_lost_total", 100))
	m.Sweep()
	if active, _ := m.Alerts(); alertState(active, "drops", "n1") != "" {
		t.Fatalf("rate alert on first sample: %+v", active)
	}

	// +10 over 10s = 1/s > 0.5: fires.
	clk.advance(10 * time.Second)
	_ = m.Ingest(snapshotWith("n1", "coralpie_lost_total", 110))
	m.Sweep()
	active, _ := m.Alerts()
	if alertState(active, "drops", "n1") != AlertFiring {
		t.Fatalf("rate alert not firing at 1/s: %+v", active)
	}
	if v := alertValue(active, "drops", "n1"); v != 1 {
		t.Fatalf("rate value = %g, want 1", v)
	}

	// +1 over 10s = 0.1/s: resolves.
	clk.advance(10 * time.Second)
	_ = m.Ingest(snapshotWith("n1", "coralpie_lost_total", 111))
	m.Sweep()
	if active, _ = m.Alerts(); alertState(active, "drops", "n1") != AlertResolved {
		t.Fatalf("rate alert not resolved at 0.1/s: %+v", active)
	}

	// Counter reset (node restart): negative delta clamps to 0, never
	// fires a "decrease" alert.
	clk.advance(10 * time.Second)
	_ = m.Ingest(snapshotWith("n1", "coralpie_lost_total", 3))
	m.Sweep()
	if active, _ = m.Alerts(); alertState(active, "drops", "n1") != AlertResolved {
		t.Fatalf("counter reset re-fired rate alert: %+v", active)
	}
}

func TestInvalidRulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMonitor accepted an invalid rule")
		}
	}()
	NewMonitor(MonitorConfig{
		Registry: obs.NewRegistry(),
		Rules:    []Rule{{Name: "x", Metric: "m", Kind: "nope", Op: ">"}},
	})
}

// stepClock is a manually advanced clock for deterministic sweeps.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time          { return c.t }
func (c *stepClock) advance(d time.Duration) { c.t = c.t.Add(d) }

var _ clock.Clock = (*stepClock)(nil)

func alertState(alerts []Alert, rule, node string) AlertState {
	for _, a := range alerts {
		if a.Rule == rule && a.Node == node {
			return a.State
		}
	}
	return ""
}

func alertValue(alerts []Alert, rule, node string) float64 {
	for _, a := range alerts {
		if a.Rule == rule && a.Node == node {
			return a.Value
		}
	}
	return -1
}

func mustContain(t *testing.T, s, sub string) {
	t.Helper()
	if !strings.Contains(s, sub) {
		t.Fatalf("%q missing from:\n%s", sub, s)
	}
}
