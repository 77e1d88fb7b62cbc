package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	values := make([]float64, 200)
	for i := range values {
		values[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	got := summarize(values)
	if got.N != 200 || got.P50 != 100.5 || got.TailPct != 95 {
		t.Fatalf("summarize = %+v", got)
	}
	if want := 1 + 0.95*199; math.Abs(got.P95-want) > 1e-9 || got.Tail != got.P95 {
		t.Errorf("p95 = %g, tail = %g, want %g", got.P95, got.Tail, want)
	}
	if q := quantile(values, 95); q != got.P95 {
		t.Errorf("quantile(95) = %g, summarize p95 = %g", q, got.P95)
	}
	if values[0] != 200 {
		t.Error("summarize or quantile sorted its argument in place")
	}
	if z := summarize(nil); z.N != 0 || z.P50 != 0 {
		t.Errorf("summarize(nil) = %+v", z)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) -> [3.5, 13.5, 31.0];
	// median 13.5, so the spread is 27.5/13.5.
	values := []float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22}
	if got, want := quartileSpread(values), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
	// Two values: quantiles([10, 12], n=4) -> [9.5, 11.0, 12.5].
	if got, want := quartileSpread([]float64{10, 12}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of two = %g, want %g", got, want)
	}
	if quartileSpread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	start := time.Unix(100, 0)
	loop := openLoop{start: start, interval: 10 * time.Millisecond}
	// Operation 0 starts on time, operation 1 starts 25 ms after it was
	// due (a stall), operation 2 — due during the stall — starts 16 ms
	// late, operation 3 is early and counts as on time.
	starts := []time.Duration{0, 35 * time.Millisecond, 36 * time.Millisecond, 29 * time.Millisecond}
	for i, s := range starts {
		due := loop.begin(i, start.Add(s))
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("due(%d) = %v, want %v", i, due, want)
		}
	}
	want := []float64{0, 25, 16, 0}
	for i, w := range want {
		if loop.late[i] != w {
			t.Errorf("late[%d] = %g ms, want %g", i, loop.late[i], w)
		}
	}
	// Latency is charged from the due time: operation 2 finishing at
	// +40 ms took 20 ms, though it ran for only 4.
	if got := ms(start.Add(40 * time.Millisecond).Sub(loop.due(2))); got != 20 {
		t.Errorf("latency from due = %g ms, want 20", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, StartNs: 0, EndNs: 100},
		{Name: "a", ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{Name: "b", ID: 3, Parent: 1, StartNs: 30, EndNs: 60},   // overlaps a by 10
		{Name: "c", ID: 4, Parent: 1, StartNs: 90, EndNs: 130},  // sticks out of the parent by 30
		{Name: "d", ID: 5, Parent: 1, StartNs: 35, EndNs: 38},   // inside a and b
		{Name: "aa", ID: 6, Parent: 2, StartNs: 10, EndNs: 25},  // grandchild: a's business only
		{Name: "x", ID: 7, Parent: 99, StartNs: 0, EndNs: 1000}, // orphan
	}
	self := selfTimes(spans)
	// Covered: [10,60] and [90,100] = 60, so 40 is the root's own.
	if self[1] != 40 {
		t.Errorf("root self = %d, want 40", self[1])
	}
	if self[2] != 15 || self[3] != 30 || self[4] != 40 || self[6] != 15 {
		t.Errorf("child self times = %v", self)
	}
	rows := attribute(spans)["root"]
	total := 0.0
	for _, r := range rows {
		total += r.MeanMs
	}
	// a+aa 30, b 30, c 40, d 3, unexplained 40: more than the root's 100,
	// because overlapping children each keep their own time.
	if want := (15 + 15 + 30 + 40 + 3 + 40) / 1e6; math.Abs(total-want) > 1e-12 {
		t.Errorf("attribution total = %g ms, want %g", total, want)
	}
}

func TestJudge(t *testing.T) {
	lower := ladderDef{Name: "query_p50_ms", Better: "lower"}
	higher := ladderDef{Name: "frames_per_s", Better: "higher"}
	abs := ladderDef{Name: "handoff_commit_ratio", Better: "higher", Abs: true}
	errs := ladderDef{Name: "error_ratio", Better: "lower", Abs: true}
	tight := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name  string
		m     ladderDef
		bound float64
		a, b  []float64
		want  string
	}{
		{"within bound", lower, 0.10, tight, []float64{105, 106, 104, 105, 105}, "ok"},
		{"beyond bound", lower, 0.10, tight, []float64{115, 116, 114, 115, 115}, "regressed"},
		{"better", lower, 0.10, tight, []float64{50, 51, 49, 50, 50}, "ok"},
		{"higher is better", higher, 0.10, tight, []float64{85, 86, 84, 85, 85}, "regressed"},
		{"wide spread, overlapping", lower, 0.10, []float64{80, 100, 120, 90, 110}, []float64{95, 115, 135, 105, 125}, "unresolved"},
		{"wide spread, b always better", lower, 0.10, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
		{"wide spread, b always worse", lower, 0.10, []float64{80, 100, 120, 90, 110}, []float64{160, 200, 240, 180, 220}, "regressed"},
		{"absolute bound holds", abs, 0.02, []float64{0.85, 0.85, 0.85}, []float64{0.84, 0.84, 0.84}, "ok"},
		{"absolute bound broken", abs, 0.02, []float64{0.85, 0.85, 0.85}, []float64{0.80, 0.80, 0.80}, "regressed"},
		{"any new error regresses", errs, 0.001, []float64{0, 0, 0}, []float64{0.0001, 0.0001, 0.0001}, "regressed"},
	} {
		if got, _, _ := judge(tc.m, tc.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitStatus(t *testing.T) {
	file := func(p50 float64) *resultsFile {
		rf := &resultsFile{Workloads: map[string][]runRecord{}}
		for i := 0; i < 3; i++ {
			rf.Workloads["query_quiet"] = append(rf.Workloads["query_quiet"],
				runRecord{EndToEnd: map[string]float64{"query_p50_ms": p50 + float64(i)*0.001, "error_ratio": 0}})
		}
		// A traced record must not count as an end-to-end sample.
		rf.Workloads["query_quiet"] = append(rf.Workloads["query_quiet"],
			runRecord{Trace: true, EndToEnd: map[string]float64{"query_p50_ms": 1000}})
		return rf
	}
	var out bytes.Buffer
	if compare(&out, file(1.0), file(1.05)) {
		t.Errorf("5%% inside a 10%% bound reported as regression:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, file(1.0), file(1.5)) {
		t.Errorf("50%% beyond a 10%% bound not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "query_p50_ms") {
		t.Errorf("compare output lacks the regressed row:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(contractMetrics) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the program %d", len(spec.EndToEnd), len(contractMetrics))
	}
	for i, m := range spec.EndToEnd {
		if want := contractMetrics[i]; m != metric(want) {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in the program", i, m, want)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if want := layerMetrics[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, want)
		}
	}
}

// TestWorkloadsTiny runs every workload end to end — real TCP deployment,
// both passes, output verification — on a world small enough for the
// regular test run.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the TCP deployment")
	}
	env := runEnv{sc: tinyScale(), seed: 7, tmpRoot: t.TempDir()}
	t.Run("workloads", func(t *testing.T) {
		for _, workload := range workloadNames {
			t.Run(workload, func(t *testing.T) { tinyWorkload(t, env, workload) })
		}
	})
	if left, _ := os.ReadDir(env.tmpRoot); len(left) != 0 {
		t.Errorf("%d run directories left behind in %s", len(left), env.tmpRoot)
	}
}

func tinyWorkload(t *testing.T, env runEnv, workload string) {
	if workload == queryUnderIngest.name || workload == queryQuiet.name {
		// No generator-lateness guard to disturb: share the wall clock.
		t.Parallel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec, _, err := runOnce(ctx, env, workload, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range contractMetrics {
		if _, ok := rec.Contract[m.Name]; !ok {
			t.Errorf("end-to-end metric %s not emitted", m.Name)
		}
	}
	for _, m := range ladderMetrics {
		if _, defined := m.Bounds[workload]; !defined {
			continue
		}
		if _, ok := rec.EndToEnd[m.Name]; !ok {
			t.Errorf("ladder metric %s not emitted", m.Name)
		}
	}
	if rec.Attempted < 1 || rec.Failed != 0 {
		t.Errorf("attempted %d, failed %d", rec.Attempted, rec.Failed)
	}
	// One second is too short to promise a committed handoff, so
	// the latency and goodput values themselves are not asserted.
	for _, name := range []string{"setup_s", "ops_per_s", "cpu_ms_per_op"} {
		if rec.Contract[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, rec.Contract[name])
		}
	}

	traced, spans, err := runOnce(ctx, env, workload, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layerMetrics {
		if _, ok := traced.PerLayer[m.Name]; !ok {
			t.Errorf("per-layer metric %s not emitted", m.Name)
		}
	}
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	line, err := json.Marshal(driverLine(traced))
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   bool
		Attempted int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &parsed); err != nil || !parsed.Correct || len(parsed.Metrics) != len(layerMetrics) {
		t.Errorf("driver line %s: err %v", line, err)
	}
}
