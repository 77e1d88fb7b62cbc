package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runRecord is one invocation on one workload, as written to the results
// file. An untraced record carries the end-to-end metrics; a traced one
// carries the per-layer metrics and the attribution tables.
type runRecord struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Trace         bool                   `json:"trace"`
	Seconds       float64                `json:"seconds"`
	WindowS       float64                `json:"window_s"`
	EndToEnd      map[string]float64     `json:"end_to_end,omitempty"` // ladder metrics
	Contract      map[string]float64     `json:"contract,omitempty"`   // BENCHMARK.json end_to_end
	PerLayer      map[string]float64     `json:"per_layer,omitempty"`
	Timings       map[string]timing      `json:"timings"`
	SetupSamplesS []float64              `json:"setup_samples_s,omitempty"`
	Attempted     int64                  `json:"attempted"`
	Failed        int64                  `json:"failed"`
	Verified      map[string]int         `json:"verified"`
	Attribution   map[string][]attribRow `json:"attribution,omitempty"`
}

// environment is where and on what the results were measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Started    string `json:"started"`
}

type resultsFile struct {
	Env       environment            `json:"env"`
	Workloads map[string][]runRecord `json:"workloads"`
}

func captureEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// printRecord prints every metric of a record by name, with unit and —
// for timings — the sample count and the highest percentile the sample
// supports.
func printRecord(w io.Writer, r *runRecord) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  window %.1fs ==\n", r.Workload, r.Seed, mode, r.WindowS)
	if !r.Trace {
		for _, m := range contractMetrics {
			fmt.Fprintf(w, "  %-38s %14.4f %-6s  = %s\n", m.Name, r.Contract[m.Name], m.Unit, contractMeaningOf(r.Workload, m.Name))
		}
		for _, m := range ladderMetrics {
			if bound, ok := m.Bounds[r.Workload]; ok {
				fmt.Fprintf(w, "  %-38s %14.4f %-6s  bound %s\n", m.Name, r.EndToEnd[m.Name], m.Unit, boundString(m, bound))
			}
		}
	} else {
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "  %-42s %14.4f %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
		roots := make([]string, 0, len(r.Attribution))
		for root := range r.Attribution {
			roots = append(roots, root)
		}
		sort.Strings(roots)
		for _, root := range roots {
			total := 0.0
			for _, row := range r.Attribution[root] {
				total += row.MeanMs
			}
			fmt.Fprintf(w, "  attribution of one %s (mean %.4f ms):\n", root, total)
			for _, row := range r.Attribution[root] {
				fmt.Fprintf(w, "    %-66s %10.4f ms %5.1f%%\n", row.Layer, row.MeanMs, 100*ratio(row.MeanMs, total))
			}
		}
	}
	names := make([]string, 0, len(r.Timings))
	for name := range r.Timings {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  timings (n, p50, highest supported percentile):")
	for _, name := range names {
		t := r.Timings[name]
		if t.N > 0 {
			fmt.Fprintf(w, "    %-36s n=%-7d p50=%-12.4f p%g=%.4f\n", name, t.N, t.P50, t.TailPct, t.Tail)
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, verified %v\n", r.Attempted, r.Failed, r.Verified)
}

func contractMeaningOf(workload, metric string) string {
	if metric == "setup_s" {
		return "boot + MDCS convergence + graph preload, median of the run's set-ups"
	}
	return contractMeaning[workload][metric]
}

func boundString(m ladderDef, bound float64) string {
	if m.Abs {
		return fmt.Sprintf("%g abs", bound)
	}
	return fmt.Sprintf("%g%%", bound*100)
}

// compare prints, per workload and ladder metric, both medians, the
// change and the bound, and marks each row. It reports whether any row
// regressed.
func compare(w io.Writer, a, b *resultsFile) (regressed bool) {
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %9s %9s %8s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, workload := range workloadNames {
		for _, m := range ladderMetrics {
			bound, ok := m.Bounds[workload]
			if !ok {
				continue
			}
			av, bv := untracedValues(a, workload, m.Name), untracedValues(b, workload, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict, change, spread := judge(m, bound, av, bv)
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-20s %-22s %12.4f %12.4f %+9.4f %9s %8.4f  %s\n",
				workload, m.Name, median(av), median(bv), change, boundString(m, bound), spread, verdict)
		}
	}
	return regressed
}

func untracedValues(rf *resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Workloads[workload] {
		if v, ok := r.EndToEnd[metric]; ok && !r.Trace {
			out = append(out, v)
		}
	}
	return out
}

// judge applies the ladder's regression rule to one metric. change is how
// much worse b's median is than a's (negative: better), as a share of a's
// median or, for absolute metrics, as a difference. When the run-to-run
// spread of either side is wider than the bound the medians cannot
// resolve a change of that size: the row is unresolved unless every run
// of one side beats every run of the other. error_ratio has no slack: any
// increase regresses.
func judge(m ladderDef, bound float64, a, b []float64) (verdict string, change, spread float64) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	change = sign * (mb - ma)
	spread = max(quartileSpread(a)*math.Abs(ma), quartileSpread(b)*math.Abs(mb))
	if !m.Abs {
		change, spread = ratio(change, math.Abs(ma)), ratio(spread, math.Abs(ma))
	}
	if m.Name == "error_ratio" {
		if mb > ma {
			return "regressed", change, spread
		}
		return "ok", change, spread
	}
	if spread > bound {
		switch {
		case allBetter(sign, b, a):
			return "ok", change, spread
		case allBetter(sign, a, b) && change > bound:
			return "regressed", change, spread
		}
		return "unresolved", change, spread
	}
	if change > bound {
		return "regressed", change, spread
	}
	return "ok", change, spread
}

// allBetter reports whether every value of x is better than every value
// of y (sign +1: lower is better).
func allBetter(sign float64, x, y []float64) bool {
	worstX, bestY := math.Inf(-1), math.Inf(1)
	for _, v := range x {
		worstX = max(worstX, sign*v)
	}
	for _, v := range y {
		bestY = min(bestY, sign*v)
	}
	return worstX < bestY
}
