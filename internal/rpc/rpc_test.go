package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// tag records a marker before and after next, building the onion order.
func tag(name string, record func(string)) Interceptor {
	return func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		record(name + ">")
		resp, err := next(ctx, req)
		record("<" + name)
		return resp, err
	}
}

func TestChainClientOnionOrder(t *testing.T) {
	var order []string
	record := func(s string) { order = append(order, s) }
	call := Bind(func(ctx context.Context, r *Request) (*Response, error) {
		record("base")
		return &Response{}, nil
	}, tag("a", record), tag("b", record), tag("c", record))
	want := []string{"a>", "b>", "c>", "base", "<c", "<b", "<a"}
	// Bound once, the chain runs the same onion on every call.
	for i := 0; i < 2; i++ {
		order = nil
		if _, err := call(context.Background(), &Request{Method: "m"}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("call %d: order = %v, want %v", i, order, want)
		}
	}
}

// Binding in stages gives the same onion as binding the whole chain at once:
// interceptors bound later wrap those bound earlier.
func TestBindClientMatchesChainOrder(t *testing.T) {
	var order []string
	record := func(s string) { order = append(order, s) }
	base := func(ctx context.Context, r *Request) (*Response, error) {
		record("base")
		return &Response{}, nil
	}
	flat := Bind(base, tag("a", record), tag("b", record), tag("c", record))
	staged := Bind(Bind(base, tag("c", record)), tag("a", record), tag("b", record))
	var got [2][]string
	for i, call := range []Handler{flat, staged} {
		order = nil
		if _, err := call(context.Background(), &Request{Method: "m"}); err != nil {
			t.Fatal(err)
		}
		got[i] = order
	}
	if fmt.Sprint(got[1]) != fmt.Sprint(got[0]) {
		t.Errorf("staged order = %v, flat order = %v", got[1], got[0])
	}
	want := []string{"a>", "b>", "c>", "base", "<c", "<b", "<a"}
	if fmt.Sprint(got[0]) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", got[0], want)
	}
}

// byteCodec frames each request and response as one byte; every request
// carries the same trace context.
type byteCodec struct{ trace protocol.TraceContext }

func (c byteCodec) ReadRequest(r io.Reader, _ *[]byte) (*Request, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return nil, err
	}
	tc := c.trace
	return &Request{Method: "m", Body: &protocol.Envelope{Trace: &tc}}, nil
}

func (byteCodec) WriteResponse(w io.Writer, _ *Request, _ *Response, _ error) error {
	_, err := w.Write([]byte{1})
	return err
}

// roundTrip sends one request byte to addr and waits for the reply.
func roundTrip(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		t.Fatal(err)
	}
}

// A server binds its chain when it is built: trace extraction outermost,
// then the configured interceptors in order, then the handler.
func TestChainServerOnionOrder(t *testing.T) {
	span := obs.SpanContext{TraceID: "cam0#1", SpanID: "cam0-5", Sampled: true}
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	traced := func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		if got, ok := obs.SpanFromContext(ctx); !ok || got != span {
			record("untraced")
		}
		return next(ctx, req)
	}
	srv, err := NewServer("127.0.0.1:0", byteCodec{trace: protocol.TraceContext(span)},
		func(ctx context.Context, r *Request) (*Response, error) {
			record("base")
			return &Response{}, nil
		}, ServerConfig{Interceptors: []Interceptor{traced, tag("outer", record), tag("inner", record)}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	roundTrip(t, srv.Addr())
	mu.Lock()
	defer mu.Unlock()
	want := []string{"outer>", "inner>", "base", "<inner", "<outer"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestChainShortCircuit(t *testing.T) {
	boom := errors.New("boom")
	var after, base bool
	call := Bind(func(ctx context.Context, r *Request) (*Response, error) {
		base = true
		return &Response{}, nil
	},
		func(ctx context.Context, req *Request, next Handler) (*Response, error) {
			return nil, boom // never calls next
		},
		func(ctx context.Context, req *Request, next Handler) (*Response, error) {
			after = true
			return next(ctx, req)
		},
	)
	_, err := call(context.Background(), &Request{})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
	if after || base {
		t.Errorf("short-circuited chain still ran inner stages: after=%v base=%v", after, base)
	}
}

func TestChainEmptyIsIdentity(t *testing.T) {
	called := false
	_, err := Bind(func(ctx context.Context, r *Request) (*Response, error) {
		called = true
		return &Response{}, nil
	})(context.Background(), &Request{})
	if err != nil || !called {
		t.Fatalf("empty chain: called=%v err=%v", called, err)
	}
}

func TestWithRetrySpendsBudgetOnlyOnRetryable(t *testing.T) {
	fails := 2
	base := func(ctx context.Context, r *Request) (*Response, error) {
		if fails > 0 {
			fails--
			return nil, MarkRetryable(errors.New("stale conn"))
		}
		return &Response{}, nil
	}
	var retries, exhausted int
	retry := WithRetry(RetryConfig{
		Budget:      2,
		OnRetry:     func() { retries++ },
		OnExhausted: func() { exhausted++ },
	})
	if _, err := retry(context.Background(), &Request{}, base); err != nil {
		t.Fatalf("call with budget 2 over 2 failures: %v", err)
	}
	if retries != 2 || exhausted != 0 {
		t.Errorf("retries=%d exhausted=%d, want 2, 0", retries, exhausted)
	}

	// A terminal (unmarked) error must not be retried.
	calls := 0
	_, err := retry(context.Background(), &Request{}, func(ctx context.Context, r *Request) (*Response, error) {
		calls++
		return nil, errors.New("terminal")
	})
	if err == nil || calls != 1 {
		t.Errorf("terminal error: calls=%d err=%v, want 1 call and an error", calls, err)
	}
}

func TestRetryExhaustionCountedInMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, "component", "test")
	call := Bind(func(ctx context.Context, r *Request) (*Response, error) {
		return nil, MarkRetryable(errors.New("always stale"))
	}, WithMetrics(m), WithRetry(m.RetryHooks(RetryConfig{Budget: 1})))
	_, err := call(context.Background(), &Request{Method: "op"})
	if err == nil {
		t.Fatal("want error after exhausting the retry budget")
	}
	if got := m.Retries.Value(); got != 1 {
		t.Errorf("retries counter = %d, want 1", got)
	}
	if got := m.RetryExhausted.Value(); got != 1 {
		t.Errorf("retry_exhausted counter = %d, want 1", got)
	}
	if got := m.Calls.Value(); got != 1 {
		t.Errorf("calls counter = %d, want 1 (metrics sit outside retry)", got)
	}
	if got := m.Errors.Value(); got != 1 {
		t.Errorf("errors counter = %d, want 1", got)
	}
}

func TestRetryBudgetZeroDefaultsToOne(t *testing.T) {
	calls := 0
	_, _ = WithRetry(RetryConfig{})(context.Background(), &Request{}, func(ctx context.Context, r *Request) (*Response, error) {
		calls++
		return nil, MarkRetryable(errors.New("stale"))
	})
	if calls != 2 {
		t.Errorf("zero budget: %d attempts, want 2 (default one retry)", calls)
	}
	calls = 0
	_, _ = WithRetry(RetryConfig{Budget: -1})(context.Background(), &Request{}, func(ctx context.Context, r *Request) (*Response, error) {
		calls++
		return nil, MarkRetryable(errors.New("stale"))
	})
	if calls != 1 {
		t.Errorf("negative budget: %d attempts, want 1 (retries disabled)", calls)
	}
}

func TestWithDefaultDeadline(t *testing.T) {
	mw := WithDefaultDeadline(time.Minute)
	_, err := mw(context.Background(), &Request{}, func(ctx context.Context, r *Request) (*Response, error) {
		if _, ok := ctx.Deadline(); !ok {
			t.Error("no deadline applied to a bare context")
		}
		return &Response{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// An existing (tighter) deadline wins.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Second))
	defer cancel()
	want, _ := ctx.Deadline()
	_, err = mw(ctx, &Request{}, func(ctx context.Context, r *Request) (*Response, error) {
		if got, _ := ctx.Deadline(); !got.Equal(want) {
			t.Errorf("deadline overridden: got %v, want %v", got, want)
		}
		return &Response{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A handler waiting on Done wakes at the default deadline...
	waitDone := func(ctx context.Context, r *Request) (*Response, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("Done never closed")
		}
	}
	if _, err := WithDefaultDeadline(20*time.Millisecond)(context.Background(), &Request{}, waitDone); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("at the default deadline: err = %v, want %v", err, context.DeadlineExceeded)
	}

	// ...and as soon as the caller's parent context is cancelled.
	parent, cancelParent := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancelParent)
	if _, err := mw(parent, &Request{}, waitDone); !errors.Is(err, context.Canceled) {
		t.Errorf("parent cancelled first: err = %v, want %v", err, context.Canceled)
	}
}

// Shutdown whose context expires must cancel the handler context before
// it waits for handlers, or a handler blocked on that context never
// returns.
func TestServerShutdownUnblocksHandlerAtDeadline(t *testing.T) {
	entered := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", byteCodec{}, func(ctx context.Context, r *Request) (*Response, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Shutdown = %v, want the drain deadline error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Shutdown still blocked 1s after a 50ms drain deadline")
	}
}

func TestTraceInjectAndExtract(t *testing.T) {
	span := obs.SpanContext{TraceID: "cam0#1", SpanID: "cam0-5", Sampled: true}
	env := &protocol.Envelope{}
	ctx := obs.ContextWithSpan(context.Background(), span)
	_, err := WithTraceInject()(ctx, &Request{Body: env}, func(ctx context.Context, r *Request) (*Response, error) {
		return &Response{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil || obs.SpanContext(*env.Trace) != span {
		t.Fatalf("injected trace = %+v, want %+v", env.Trace, span)
	}

	// Extraction resumes the carried span on the server side.
	var got obs.SpanContext
	var ok bool
	_, err = WithTraceExtract()(context.Background(), &Request{Body: env}, func(ctx context.Context, r *Request) (*Response, error) {
		got, ok = obs.SpanFromContext(ctx)
		return &Response{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || got != span {
		t.Errorf("extracted span = %+v, %v; want %+v", got, ok, span)
	}

	// An explicit carrier context is never overwritten by the ambient span.
	explicit := protocol.TraceContext{TraceID: "cam9#9", SpanID: "cam9-1", Sampled: true}
	env2 := &protocol.Envelope{Trace: &explicit}
	_, err = WithTraceInject()(ctx, &Request{Body: env2}, func(ctx context.Context, r *Request) (*Response, error) {
		return &Response{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if *env2.Trace != explicit {
		t.Errorf("explicit trace overwritten: %+v", env2.Trace)
	}
}

func TestIsDeadlineError(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{context.DeadlineExceeded, true},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), true},
		{os.ErrDeadlineExceeded, true},
		{errors.New("plain"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsDeadlineError(c.err); got != c.want {
			t.Errorf("IsDeadlineError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestMarkRetryable(t *testing.T) {
	if MarkRetryable(nil) != nil {
		t.Error("MarkRetryable(nil) != nil")
	}
	base := errors.New("stale")
	marked := MarkRetryable(base)
	if !IsRetryable(marked) {
		t.Error("marked error not retryable")
	}
	if !errors.Is(marked, base) {
		t.Error("marking hides the underlying error from errors.Is")
	}
	if IsRetryable(fmt.Errorf("plain")) {
		t.Error("plain error reported retryable")
	}
	if !IsRetryable(fmt.Errorf("wrapped: %w", marked)) {
		t.Error("wrapping loses retryability")
	}
}

func TestDialWithBackoffHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	attempts := 0
	_, err := dialWithBackoff(ctx, "nowhere",
		func(context.Context) (net.Conn, error) { attempts++; return nil, errors.New("refused") },
		BackoffConfig{Base: 10 * time.Millisecond, Max: 20 * time.Millisecond},
		nil)
	if err == nil {
		t.Fatal("dial to nowhere succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want a deadline error", err)
	}
	if attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (retried within the deadline)", attempts)
	}
}

// TestDialWithBackoffAbort: closing the stop channel ends a dial that
// is waiting out its backoff, at once and with net.ErrClosed, and a dial
// whose stop channel is already closed makes one attempt at most.
func TestDialWithBackoffAbort(t *testing.T) {
	stop := make(chan struct{})
	attempted := make(chan struct{}, 1)
	refuse := func(context.Context) (net.Conn, error) {
		select {
		case attempted <- struct{}{}:
		default:
		}
		return nil, errors.New("refused")
	}
	done := make(chan error, 1)
	go func() {
		_, err := dialWithBackoff(context.Background(), "nowhere", refuse,
			BackoffConfig{Base: time.Hour, Max: time.Hour}, stop)
		done <- err
	}()
	<-attempted
	start := time.Now()
	close(stop)
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("err = %v, want net.ErrClosed", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("stopped dial returned after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("closing stop did not end a dial in its backoff")
	}

	attempts := 0
	_, err := dialWithBackoff(context.Background(), "nowhere",
		func(context.Context) (net.Conn, error) { attempts++; return nil, errors.New("refused") },
		BackoffConfig{Base: time.Millisecond, Max: time.Millisecond}, stop)
	if !errors.Is(err, net.ErrClosed) || attempts > 1 {
		t.Errorf("dial after stop: err = %v after %d attempts, want net.ErrClosed after one at most", err, attempts)
	}
}

// TestServerLoggingSkipsDisabledLines: a successful call under a logger
// above debug allocates nothing for its discarded line, with or without a
// span in its context; a debug logger writes the line, and an error is
// logged at warn.
func TestServerLoggingSkipsDisabledLines(t *testing.T) {
	resp := &Response{}
	ok := func(context.Context, *Request) (*Response, error) { return resp, nil }
	req := &Request{Method: "best", Addr: "10.0.0.1:7"}
	spanCtx := obs.ContextWithSpan(context.Background(), obs.SpanContext{TraceID: "cam#1", SpanID: "s1", Sampled: true})
	var out bytes.Buffer
	info := Bind(ok, WithServerLogging(obs.NewLogger(&out, obs.LevelInfo, obs.FormatText).Logger))
	for _, ctx := range []context.Context{context.Background(), spanCtx} {
		if n := testing.AllocsPerRun(100, func() { _, _ = info(ctx, req) }); n != 0 {
			t.Errorf("info logger, successful call: %v allocations, want 0", n)
		}
	}
	if out.String() != "" {
		t.Errorf("info logger wrote %q for successful calls", out.String())
	}

	debug := Bind(ok, WithServerLogging(obs.NewLogger(&out, obs.LevelDebug, obs.FormatText).Logger))
	if _, err := debug(spanCtx, req); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^time=\S+ level=DEBUG msg="rpc serve" trace_id=cam#1 method=best dur=\S+ addr=10\.0\.0\.1:7\n$`)
	if !line.MatchString(out.String()) {
		t.Errorf("debug line %q does not match %s", out.String(), line)
	}

	out.Reset()
	fail := Bind(func(context.Context, *Request) (*Response, error) { return nil, errors.New("boom") },
		WithServerLogging(obs.NewLogger(&out, obs.LevelInfo, obs.FormatText).Logger))
	if _, err := fail(context.Background(), req); err == nil {
		t.Fatal("error swallowed")
	}
	if !regexp.MustCompile(` level=WARN msg="rpc serve" method=best dur=\S+ addr=10\.0\.0\.1:7 err=boom\n$`).MatchString(out.String()) {
		t.Errorf("warn line %q", out.String())
	}
}
