package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// syncBuffer is a log sink the test can read while steps still write.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// boot builds a runtime the way Main does, on a private flag set and a
// cancellable parent instead of the process's, logging into the returned
// buffer.
func boot(t *testing.T, opt Opt, args ...string) (*Runtime, context.CancelFunc, *syncBuffer) {
	t.Helper()
	fs := flag.NewFlagSet("test-daemon", flag.ContinueOnError)
	rt := New(fs, "test-daemon", "127.0.0.1:0", opt)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := rt.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	logs := &syncBuffer{}
	rt.Logger = obs.NewLogger(logs, obs.LevelInfo, obs.FormatText).WithComponent("test-daemon")
	return rt, cancel, logs
}

// recorder collects the order in which lifecycle events happened.
type recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *recorder) add(ev string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recorder) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

var noKeepAlive = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

func get(url string) (int, []byte, error) {
	resp, err := noKeepAlive.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// TestRuntimeShutdownOrderAndNoGoroutineLeak boots a full runtime on
// ephemeral ports — telemetry, fleet heartbeats, a -trace-out sink, two
// Every loops — cancels the root context and checks the contract of the
// package doc: loops joined first, then intake, drain, telemetry, close,
// each step once; /healthz?v=json and the heartbeat carry the same
// checks; and nothing is left running.
func TestRuntimeShutdownOrderAndNoGoroutineLeak(t *testing.T) {
	// os/signal keeps one process-wide goroutine from its first use on.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, os.Interrupt)
	signal.Stop(warm)
	before := runtime.NumGoroutine()

	monitor := fleet.NewMonitor(fleet.MonitorConfig{Registry: obs.NewRegistry()})
	monSrv, err := fleet.ServeWith(monitor, "127.0.0.1:0", fleet.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(t.TempDir(), "spans.jsonl")
	rt, cancel, logs := boot(t, Trace|Node,
		"-monitor", monSrv.Addr(), "-node-id", "n1", "-heartbeat-interval", "20ms",
		"-trace-out", traceFile, "-drain-timeout", "5s")
	defer cancel()

	var rec recorder
	// Registered against the running order on purpose: the stage, not
	// the call order, decides.
	telemetryURL := ""
	rt.OnClose("store", func() error {
		if _, _, err := get(telemetryURL + "/healthz"); err == nil {
			t.Error("telemetry still serving while stores close")
		}
		rec.add("close")
		return nil
	})
	rt.OnDrain("server", func(context.Context) error {
		if code, _, err := get(telemetryURL + "/healthz"); err != nil || code != http.StatusServiceUnavailable {
			t.Errorf("telemetry must outlive the drain: code=%d err=%v", code, err)
		}
		rec.add("drain")
		return errors.New("drain failed")
	})
	rt.OnIntake("transport", func(context.Context) error { rec.add("intake"); return nil })

	tracer := rt.NewTracer(16, "t-")
	checks := []obs.NamedCheck{
		{Name: "always"},
		{Name: "broken", Check: func() error { return errors.New("disk gone") }},
	}
	if err := rt.Serve(obs.NewRegistry(), checks, nil); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`url=(http://[0-9.:]+)/metrics`).FindStringSubmatch(logs.String())
	if m == nil {
		t.Fatalf("no telemetry address logged:\n%s", logs.String())
	}
	telemetryURL = m[1]

	// One loop ticks freely; the other is caught mid-pass by the
	// cancellation and must be waited for before any step runs.
	ticks := make(chan struct{}, 1)
	rt.Every(time.Millisecond, func() {
		select {
		case ticks <- struct{}{}:
		default:
		}
	})
	inPass, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	rt.Every(time.Millisecond, func() {
		once.Do(func() {
			close(inPass)
			<-release
			rec.add("loop-joined")
		})
	})
	<-ticks
	<-inPass

	// The monitor must have been told exactly what /healthz?v=json says.
	_, body, err := get(telemetryURL + "/healthz?v=json")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Components []fleet.ComponentCheck `json:"components"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz json: %v\n%s", err, body)
	}
	var reported []fleet.ComponentCheck
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if nodes := monitor.Summary().Nodes; len(nodes) == 1 && nodes[0].NodeID == "n1" {
			reported = nodes[0].Checks
			break
		}
	}
	if len(health.Components) != 2 || !reflect.DeepEqual(health.Components, reported) {
		t.Errorf("healthz components %+v != heartbeat checks %+v", health.Components, reported)
	}

	now := time.Now()
	tracer.RecordRoot("trace-1", "probe", now, now)

	cancel()
	waited := make(chan struct{})
	go func() { rt.Wait(); close(waited) }()
	select {
	case <-waited:
		t.Fatal("Wait returned while an Every pass was still running")
	case <-time.After(50 * time.Millisecond):
	}
	if got := rec.list(); len(got) != 0 {
		t.Fatalf("steps ran before the loops were joined: %v", got)
	}
	close(release)
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return")
	}
	rt.Shutdown() // idempotent: nothing runs twice

	want := []string{"loop-joined", "intake", "drain", "close"}
	if got := rec.list(); !reflect.DeepEqual(got, want) {
		t.Errorf("shutdown order = %v, want %v", got, want)
	}
	if out := logs.String(); !strings.Contains(out, `"server shutdown"`) || !strings.Contains(out, "drain failed") {
		t.Errorf("failed step not logged as a warning:\n%s", out)
	}
	if spans, err := os.ReadFile(traceFile); err != nil || bytes.Count(spans, []byte("\n")) != 1 {
		t.Errorf("trace-out: %q, %v; want one span line", spans, err)
	}
	if err := rt.sinkFile.Close(); err == nil {
		t.Error("-trace-out file left open after Shutdown")
	}

	if err := monSrv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: before=%d after=%d\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestShutdownReportsAndAbandonsStuckStep covers the ways a step can meet
// the drain deadline: one that honours ctx is reported with its own error;
// one that ignores ctx is reported as abandoned and does not hang Shutdown;
// one that only starts after the deadline still gets its grace period to
// hard-close — and the stores close after all three.
func TestShutdownReportsAndAbandonsStuckStep(t *testing.T) {
	rt, cancel, logs := boot(t, 0, "-obs-listen", "", "-drain-timeout", "30ms")
	defer cancel()
	release := make(chan struct{})
	defer close(release)
	rt.OnIntake("slow", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	rt.OnDrain("stuck", func(context.Context) error {
		<-release
		return nil
	})
	rt.OnDrain("tidy", func(context.Context) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	closed := false
	rt.OnClose("store", func() error { closed = true; return nil })

	start := time.Now()
	done := make(chan struct{})
	go func() { rt.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(abandonGrace + 5*time.Second):
		t.Fatal("Shutdown hung on a step that ignores its context")
	}
	if took := time.Since(start); took < abandonGrace {
		t.Errorf("stuck step abandoned after %v, before its grace period", took)
	}
	out := logs.String()
	for _, want := range []string{`"slow shutdown"`, "deadline exceeded", `"stuck shutdown"`, "abandoned"} {
		if !strings.Contains(out, want) {
			t.Errorf("log lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"tidy shutdown"`) {
		t.Errorf("a step that started past the deadline got no grace:\n%s", out)
	}
	if !closed {
		t.Error("OnClose step skipped after an abandoned drain")
	}
}

// TestEveryNonPositiveIntervalIsOff is the -sweep-interval 0 regression:
// coral-monitor used to hand 0 straight to time.NewTicker and panic,
// while -gc-interval treated it as "off".
func TestEveryNonPositiveIntervalIsOff(t *testing.T) {
	rt, cancel, _ := boot(t, 0, "-obs-listen", "")
	defer cancel()
	for _, d := range []time.Duration{0, -time.Second} {
		rt.Every(d, func() { t.Errorf("Every(%v) ran", d) })
	}
	time.Sleep(10 * time.Millisecond)
	rt.Shutdown()
}

// TestStartRejectsBadFlags: a bad shared flag fails Start, not a later step.
func TestStartRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-log-level", "loud"},
		{"-log-format", "xml"},
		{"-trace-out", filepath.Join(t.TempDir(), "missing", "spans.jsonl")},
	} {
		fs := flag.NewFlagSet("test-daemon", flag.ContinueOnError)
		rt := New(fs, "test-daemon", "", Trace)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(context.Background()); err == nil {
			rt.Shutdown()
			t.Errorf("Start accepted %v", args)
		}
	}
}
