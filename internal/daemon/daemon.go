// Package daemon is the one runtime under every long-running cmd/ binary:
// the shared flag block, default logger, signal-bound root context, tracer
// with its -trace-out sink, build info + fleet agent + telemetry mux fed by
// one check list, the background ticker and the shutdown order. A main.go
// keeps its own flags, servers, named checks and closing log line.
//
// Shutdown runs once, from Wait (SIGINT, SIGTERM or a cancelled parent
// context) or from an explicit Shutdown, in one order:
//
//  1. the root context is cancelled and default signal handling restored,
//     so a second ^C force-kills;
//  2. every Every loop is joined: no background pass races a later step;
//  3. OnIntake steps: transports stop accepting new work;
//  4. OnDrain steps: servers finish their in-flight handlers;
//  5. telemetry: the fleet client and the HTTP server, last of the network
//     surfaces so the drain itself stays observable;
//  6. OnClose steps: stores and clients flush and close; then -trace-out.
//
// Steps 2–5 share one -drain-timeout context; one that fails, or is still
// running abandonGrace after the deadline, is logged as a warning and left
// behind. Step 6 makes acknowledged data durable, so it always runs to
// completion. Within a stage, steps run in registration order.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// abandonGrace is how long past the drain deadline a step may still finish
// its hard-close before shutdown moves on without it.
const abandonGrace = time.Second

// Opt selects the flag groups only some daemons have.
type Opt int

const (
	// Trace adds -trace-out and -trace-sample.
	Trace Opt = 1 << iota
	// Node adds the -rpc-* block and fleet membership (-monitor, -node-id,
	// -heartbeat-interval): the binary is one node of a deployment.
	Node
)

// Shutdown stages, in running order.
const (
	join = iota
	intake
	drain
	telemetry
	closing
	sink
	numStages
)

type step struct {
	name string
	fn   func(context.Context) error
}

// Runtime is one daemon's lifecycle: New before the flag set is parsed,
// Start after, Shutdown (or Wait) at the end.
type Runtime struct {
	// Logger is bound to the role by Start; coral-node swaps in its camera's.
	Logger      *slog.Logger
	RPC         *rpc.Flags   // Node; nil otherwise
	Fleet       *fleet.Flags // Node; nil otherwise
	TraceSample int          // Trace; 0 otherwise

	role, obsListen, logLevel, logFormat, traceOut string
	obsPProf                                       bool
	drainTimeout                                   time.Duration

	ctx      context.Context
	stop     context.CancelFunc
	tracer   *obs.Tracer
	sinkFile *os.File
	loops    sync.WaitGroup
	steps    [numStages][]step
	once     sync.Once
}

// New installs the shared flags on fs. role names the binary in logs, build
// info and the fleet; defaultObsListen "" leaves telemetry off unless asked for.
func New(fs *flag.FlagSet, role, defaultObsListen string, opt Opt) *Runtime {
	rt := &Runtime{role: role}
	fs.StringVar(&rt.obsListen, "obs-listen", defaultObsListen, "telemetry HTTP address for /metrics, /healthz, /debug/obs, /debug/trace and the binary's own routes (empty = disabled)")
	fs.BoolVar(&rt.obsPProf, "obs-pprof", false, "also mount net/http/pprof profiling handlers on the telemetry server")
	fs.StringVar(&rt.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&rt.logFormat, "log-format", "text", "log format: text or json")
	fs.DurationVar(&rt.drainTimeout, "drain-timeout", 5*time.Second, "how long a SIGINT/SIGTERM shutdown may spend draining in-flight work")
	if opt&Trace != 0 {
		fs.StringVar(&rt.traceOut, "trace-out", "", "append finished trace spans as JSON lines to this file (empty = disabled)")
		fs.IntVar(&rt.TraceSample, "trace-sample", 1, "record every Nth locally rooted trace (1 = all; spans joining another node's trace always record)")
	}
	if opt&Node != 0 {
		rt.RPC = rpc.RegisterFlags(fs)
		rt.Fleet = fleet.RegisterFlags(fs)
	}
	return rt
}

// Main is a daemon's whole main(). The binary's own flags are already on
// flag.CommandLine; Main adds the shared block, parses, starts the runtime,
// calls run and shuts down what run left running. An error exits 1.
func Main(role, defaultObsListen string, opt Opt, run func(*Runtime) error) {
	rt := New(flag.CommandLine, role, defaultObsListen, opt)
	flag.Parse()
	err := rt.Start(context.Background())
	if err == nil {
		err = run(rt)
		rt.Shutdown()
	}
	if err != nil {
		slog.Error(err.Error(), "component", role)
		os.Exit(1)
	}
}

// Start installs the default logger, opens the -trace-out file and derives
// the root context from parent, cancelled by SIGINT or SIGTERM.
func (rt *Runtime) Start(parent context.Context) error {
	base, err := obs.InitDefaultLogger(rt.logLevel, rt.logFormat)
	if err != nil {
		return err
	}
	rt.Logger = base.With("component", rt.role)
	if rt.traceOut != "" {
		rt.sinkFile, err = os.OpenFile(rt.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		rt.add(sink, "trace-out close", func(context.Context) error { return rt.sinkFile.Close() })
	}
	rt.add(join, "background work shutdown", func(context.Context) error { rt.loops.Wait(); return nil })
	rt.ctx, rt.stop = signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	return nil
}

// Context returns the root context: cancelled on the first signal.
func (rt *Runtime) Context() context.Context { return rt.ctx }

// NewTracer builds the daemon's tracer, sampled by -trace-sample, and hands
// it to UseTracer. idPrefix keeps span IDs unique across a deployment.
func (rt *Runtime) NewTracer(capacity int, idPrefix string) *obs.Tracer {
	return rt.UseTracer(obs.NewTracerWith(obs.TracerConfig{
		Capacity:    capacity,
		IDPrefix:    idPrefix,
		SampleEvery: rt.TraceSample,
	}))
}

// UseTracer serves tr on /debug/trace and, with -trace-out set, appends its
// finished spans to that file as JSON lines (coral-sim's tracer is its System's).
func (rt *Runtime) UseTracer(tr *obs.Tracer) *obs.Tracer {
	rt.tracer = tr
	if rt.sinkFile != nil {
		tr.SetSink(obs.NewJSONLWriter(rt.sinkFile).Export)
	}
	return tr
}

// Serve publishes the daemon: for a fleet member (Node) the build-info
// gauge and the heartbeat agent, and on -obs-listen the telemetry mux over
// reg, all fed by the same checks so the monitor sees exactly what
// /healthz?v=json reports. A non-nil monitor adds its /cluster* routes.
func (rt *Runtime) Serve(reg *obs.Registry, checks []obs.NamedCheck, monitor *fleet.Monitor) error {
	if rt.Fleet != nil {
		obs.RegisterBuildInfo(reg, rt.Fleet.ResolveNodeID(rt.role), rt.role)
		stopFleet, _ := rt.Fleet.Start(rt.ctx, rt.role, reg, checks, rt.Logger)
		rt.add(telemetry, "fleet agent shutdown", func(context.Context) error { stopFleet(); return nil })
	}
	if rt.obsListen == "" {
		return nil
	}
	mux := obs.NewMuxWith(obs.MuxConfig{
		Registry:    reg,
		Tracer:      rt.tracer,
		PProf:       rt.obsPProf,
		NamedChecks: checks,
	})
	if monitor != nil {
		monitor.RegisterHTTP(mux)
	}
	srv, err := obs.Serve(rt.obsListen, mux)
	if err != nil {
		return err
	}
	rt.add(telemetry, "telemetry shutdown", srv.Shutdown)
	rt.Logger.Info("telemetry listening", "url", "http://"+srv.Addr()+"/metrics")
	return nil
}

// Every calls fn every interval (<= 0 means off) on a goroutine bound to the
// root context. Shutdown joins it first, so fn never races a closing store.
func (rt *Runtime) Every(interval time.Duration, fn func()) {
	if interval <= 0 {
		return
	}
	rt.loops.Add(1)
	go func() {
		defer rt.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-rt.ctx.Done():
				return
			}
		}
	}()
}

func (rt *Runtime) add(stage int, name string, fn func(context.Context) error) {
	rt.steps[stage] = append(rt.steps[stage], step{name, fn})
}

// OnIntake registers a step that stops new work: a transport's Shutdown.
func (rt *Runtime) OnIntake(name string, fn func(context.Context) error) {
	rt.add(intake, name+" shutdown", fn)
}

// OnDrain registers a step that finishes in-flight work: a server's Shutdown.
func (rt *Runtime) OnDrain(name string, fn func(context.Context) error) {
	rt.add(drain, name+" shutdown", fn)
}

// OnClose registers a step that flushes and closes a store or client.
func (rt *Runtime) OnClose(name string, fn func() error) {
	rt.add(closing, name+" close", func(context.Context) error { return fn() })
}

// Wait blocks until the root context is cancelled, then runs Shutdown.
func (rt *Runtime) Wait() {
	<-rt.ctx.Done()
	rt.Shutdown()
}

// Shutdown tears the daemon down in the package doc's order, once. Main calls
// it when run returns; coral-node calls it before logging its final stats.
func (rt *Runtime) Shutdown() {
	rt.once.Do(func() {
		rt.stop()
		ctx, cancel := context.WithTimeout(context.Background(), rt.drainTimeout)
		defer cancel()
		for stage, steps := range rt.steps {
			for _, s := range steps {
				run := s.fn
				if stage < closing {
					run = bounded(s.fn)
				}
				if err := run(ctx); err != nil {
					rt.Logger.Warn(s.name, "err", err)
				}
			}
		}
	})
}

// bounded makes a step abandonable: one that honours ctx returns by itself
// at the deadline; one that does not is reported abandonGrace later and
// left behind rather than hanging the process.
func bounded(fn func(context.Context) error) func(context.Context) error {
	return func(ctx context.Context) error {
		done := make(chan error, 1)
		go func() { done <- fn(ctx) }()
		deadline, _ := ctx.Deadline()
		late := time.NewTimer(max(time.Until(deadline), 0) + abandonGrace)
		defer late.Stop()
		select {
		case err := <-done:
			return err
		case <-late.C:
			return errors.New("still running after -drain-timeout; abandoned")
		}
	}
}
