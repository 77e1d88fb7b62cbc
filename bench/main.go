// Command bench is the repository's end-to-end benchmark: it boots the
// real Coral-Pie deployment on loopback TCP inside one process, drives one
// of four workloads against it, verifies what the system stored, and
// prints every metric by name. See README.md in this directory.
//
//	go run ./bench --workload handoff_stream --seed 1 --seconds 25 --trace 0
//	go run ./bench                      # the whole ladder, both passes, into bench/out/results.json
//	go run ./bench -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload (handoff_stream, frame_flood, query_under_ingest, query_quiet); empty runs the whole ladder")
		seed     = fs.Int64("seed", 1, "derives world, routes, detector noise, graph and query keys")
		seconds  = fs.Int("seconds", 25, "how long load is offered per run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		runs     = fs.Int("runs", 3, "ladder mode: untraced runs per workload (one traced run follows)")
		out      = fs.String("out", filepath.Join("bench", "out"), "directory for results.json, trace files and the runs' temporary data")
		cmp      = fs.Bool("compare", false, "compare two results files given as arguments; exit 1 on any regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two results files"))
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compare(stdout, a, b) {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1 {
		return fail(errors.New("need -seconds >= 1, -trace 0 or 1, -runs >= 1"))
	}

	sc := fullScale()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	if err := checkFreeDisk(*out, sc.minFreeDisk); err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := runEnv{sc: sc, seed: *seed, tmpRoot: *out}
	window := time.Duration(*seconds) * time.Second

	if *workload != "" {
		rec, spans, err := runOnce(ctx, env, *workload, window, *trace == 1)
		if err != nil {
			return fail(err)
		}
		if rec.Trace {
			if err := writeTrace(filepath.Join(*out, rec.Workload+".trace.jsonl"), spans); err != nil {
				return fail(err)
			}
		}
		printRecord(stdout, rec)
		line, err := json.Marshal(driverLine(rec))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}

	results := resultsFile{Env: captureEnv(), Workloads: make(map[string][]runRecord)}
	for _, name := range workloadNames {
		for i := 0; i <= *runs; i++ {
			traced := i == *runs
			rec, spans, err := runOnce(ctx, env, name, window, traced)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", name, err))
			}
			if traced {
				if err := writeTrace(filepath.Join(*out, name+".trace.jsonl"), spans); err != nil {
					return fail(err)
				}
			}
			printRecord(stdout, rec)
			results.Workloads[name] = append(results.Workloads[name], *rec)
		}
	}
	path := filepath.Join(*out, "results.json")
	if err := writeJSON(path, results); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "\nwrote", path)
	return 0
}

// runOnce is one invocation on one workload. Untraced, it sets the
// deployment up sc.setups times — setup_s is the median — and measures on
// the last. Traced, it splits the window between an untraced and a traced
// pass on identical inputs, reports the per-layer numbers of the traced
// half, and the CPU-per-operation difference of the two as
// trace.overhead_ratio.
func runOnce(ctx context.Context, env runEnv, workload string, window time.Duration, traced bool) (*runRecord, []span, error) {
	rec := &runRecord{Workload: workload, Seed: env.seed, Trace: traced, Seconds: window.Seconds()}
	if !traced {
		for i := 1; i < env.sc.setups; i++ {
			d, err := deploy(ctx, deployConfig{sc: env.sc, seed: env.seed, tmpRoot: env.tmpRoot, storeFrames: workload == frameFlood.name})
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
			rec.SetupSamplesS = append(rec.SetupSamplesS, d.setup.totalS)
			if err := d.close(); err != nil {
				return nil, nil, fmt.Errorf("teardown: %w", err)
			}
		}
		res, err := runPass(ctx, env, workload, window, false)
		if err != nil {
			return nil, nil, err
		}
		rec.SetupSamplesS = append(rec.SetupSamplesS, res.setup.totalS)
		res.ladder["setup_s"] = median(rec.SetupSamplesS)
		res.contract["setup_s"] = res.ladder["setup_s"]
		rec.fill(res)
		rec.EndToEnd, rec.Contract = res.ladder, res.contract
		return rec, nil, nil
	}
	plain, err := runPass(ctx, env, workload, window/2, false)
	if err != nil {
		return nil, nil, err
	}
	res, err := runPass(ctx, env, workload, window/2, true)
	if err != nil {
		return nil, nil, err
	}
	res.layers["trace.overhead_ratio"] = ratio(res.contract["cpu_ms_per_op"], plain.contract["cpu_ms_per_op"]) - 1
	rec.fill(res)
	rec.PerLayer, rec.Attribution = res.layers, res.attrib
	return rec, res.spans, nil
}

func (r *runRecord) fill(res *passResult) {
	r.WindowS, r.Timings, r.Verified = res.windowS, res.timings, res.verified
	r.Attempted, r.Failed = res.attempted, res.failed
}

// driverLine is the one-line result the accepting driver parses: the
// BENCHMARK.json end_to_end metrics untraced, the per_layer ones traced.
func driverLine(r *runRecord) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if r.Trace {
		for _, m := range layerMetrics {
			metrics[m.Name] = value{r.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range contractMetrics {
			metrics[m.Name] = value{r.Contract[m.Name], m.Unit}
		}
	}
	return map[string]any{"correct": true, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}
