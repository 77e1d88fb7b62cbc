package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
)

// TCPConfig tunes a TCP endpoint's deadlines and dial-retry policy. Zero
// values take the defaults documented per field.
type TCPConfig struct {
	// DialTimeout bounds one connection attempt (default 2s). The whole
	// dial-with-retry sequence is bounded by the Send context.
	DialTimeout time.Duration
	// SendTimeout is the Send budget applied when the caller's context
	// carries no deadline (default DefaultSendTimeout).
	SendTimeout time.Duration
	// DialBackoffBase is the first retry delay after a failed dial
	// (default 50ms). Subsequent delays double, with jitter.
	DialBackoffBase time.Duration
	// DialBackoffMax caps the retry delay (default 1s).
	DialBackoffMax time.Duration
	// RetryBudget is how many times one Send may retry after a stale
	// cached connection fails (default 1, the historical redial-once
	// behavior; negative disables retries).
	RetryBudget int
}

func (c *TCPConfig) applyDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = DefaultSendTimeout
	}
}

// TCPConfigFromFlags maps the shared -rpc-* flag block onto a
// TCPConfig, so every binary tunes its transport the same way.
func TCPConfigFromFlags(f *rpc.Flags) TCPConfig {
	return TCPConfig{
		DialTimeout:     f.DialTimeout,
		SendTimeout:     f.CallTimeout,
		DialBackoffBase: f.BackoffBase,
		DialBackoffMax:  f.BackoffMax,
		RetryBudget:     f.RetryBudget,
	}
}

// TCP is an Endpoint over real TCP sockets: a listener that decodes
// length-prefixed protocol envelopes, and a cache of outgoing
// connections. Outbound sends and inbound dispatch both run through rpc
// interceptor chains (deadline, trace inject/extract, metrics, retry);
// the dial/redial policy is the shared rpc backoff. Handlers may be
// invoked concurrently (one goroutine per inbound connection) and must
// be safe for concurrent use; they receive a context cancelled at
// shutdown.
type TCP struct {
	ln  net.Listener
	cfg TCPConfig

	// send is the outbound chain, bound once around transmit.
	send rpc.Handler

	// rootCtx is passed to handlers; cancelled on Close/Shutdown so
	// in-flight handler work can stop promptly.
	rootCtx context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	serve   rpc.Handler // the installed handler bound in the inbound chain
	conns   map[string]*outConn
	inbound map[net.Conn]struct{}
	closed  bool
	m       *endpointMetrics

	wg        sync.WaitGroup // accept + read loops
	handlerWG sync.WaitGroup // in-flight handler invocations
}

var _ Endpoint = (*TCP)(nil)

// outConn is one cached outbound connection. Its own write lock keeps
// envelopes from interleaving on the socket, so a peer that stops
// draining stalls only the senders to that peer, never sends to other
// peers or inbound dispatch.
type outConn struct {
	net.Conn
	wmu sync.Mutex
}

// ListenTCP starts an endpoint listening on addr (use "127.0.0.1:0" for an
// ephemeral port) with default deadlines.
func ListenTCP(addr string) (*TCP, error) {
	return ListenTCPConfig(addr, TCPConfig{})
}

// ListenTCPConfig starts an endpoint with explicit deadline and backoff
// tuning.
func ListenTCPConfig(addr string, cfg TCPConfig) (*TCP, error) {
	cfg.applyDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCP{
		ln:      ln,
		cfg:     cfg,
		rootCtx: ctx,
		cancel:  cancel,
		conns:   make(map[string]*outConn),
		inbound: make(map[net.Conn]struct{}),
		m:       newEndpointMetrics(nil, "tcp"),
	}
	// Outbound chain, outermost first: default deadline, trace inject,
	// metrics (outside retry: a send that succeeds on a redial counts
	// once), retry. The base handler is the socket write itself.
	t.send = rpc.Bind(t.transmit,
		rpc.WithDefaultDeadline(cfg.SendTimeout),
		rpc.WithTraceInject(),
		t.countSend,
		rpc.WithRetry(rpc.RetryConfig{
			Budget:      cfg.RetryBudget,
			OnRetry:     func() { t.metric().retries.Inc() },
			OnExhausted: func() { t.metric().retryExhausted.Inc() },
		}))
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Use re-homes the endpoint's telemetry onto reg (coralpie_transport_*
// with transport="tcp", plus per-peer send counters). Call before
// traffic flows; counts on the previous handles do not carry over.
func (t *TCP) Use(reg *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = newEndpointMetrics(reg, "tcp")
}

// metric returns the current telemetry handles.
func (t *TCP) metric() *endpointMetrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m
}

// Addr returns the bound listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetHandler implements Endpoint.
func (t *TCP) SetHandler(h Handler) {
	serve := bindHandler(h)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.serve = serve
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// Every envelope of the connection is read into buf, which is why a
	// payload is valid only until the handler returns (see Handler).
	var buf []byte
	for {
		env, err := protocol.ReadEnvelopeInto(conn, &buf)
		if errors.Is(err, protocol.ErrBadEnvelope) {
			// The peer speaks a format this endpoint does not read (for
			// one, a JSON envelope): nothing it sends will decode.
			t.metric().decodeErrors.Inc()
			obs.DefaultLogger().WithComponent("transport").Warn("closing connection on an undecodable envelope",
				"peer", conn.RemoteAddr().String(), "err", err.Error())
		}
		if err != nil {
			return // EOF, peer reset, or an undecodable envelope
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return // draining: stop dispatching new envelopes
		}
		serve := t.serve
		m := t.m
		if serve != nil {
			t.handlerWG.Add(1)
		}
		t.mu.Unlock()
		m.received.Inc()
		m.bytesIn.Add(int64(len(env.Payload)))
		if serve != nil {
			m.delivered.Inc()
			deliver(t.rootCtx, serve, env)
			t.handlerWG.Done()
		}
	}
}

// Send writes the envelope to addr through the outbound middleware
// chain, over a cached connection, dialing on demand with the shared
// capped-backoff policy. The context bounds the whole operation;
// without a deadline, SendTimeout applies.
func (t *TCP) Send(ctx context.Context, addr string, env protocol.Envelope) error {
	req := &rpc.Request{Method: string(env.Type), Addr: addr, Body: &env, OneWay: true}
	_, err := t.send(ctx, req)
	return err
}

// countSend is the transport's metrics middleware: exactly one success
// or one error is counted per Send, whatever the retry stage below it
// does.
func (t *TCP) countSend(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
	resp, err := next(ctx, req)
	m := t.metric()
	if err != nil {
		m.sendErrors.Inc()
		if rpc.IsDeadlineError(err) {
			m.deadlineExceeded.Inc()
		}
		return resp, err
	}
	env := req.Body.(*protocol.Envelope)
	m.sends.Inc()
	m.bytesOut.Add(int64(len(env.Payload)))
	t.mu.Lock()
	peer := m.peer("tcp", req.Addr)
	t.mu.Unlock()
	if peer != nil {
		peer.Inc()
	}
	return resp, nil
}

// transmit is the base handler under the outbound chain: one write
// attempt. A stale cached connection is dropped and the error marked
// retryable, so the retry stage redials; a failure on a fresh
// connection is terminal.
func (t *TCP) transmit(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Delay > 0 {
		// Injected fault latency; consume it so retries don't pay twice.
		delay := req.Delay
		req.Delay = 0
		if err := rpc.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	addr := req.Addr
	env := *req.Body.(*protocol.Envelope)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	conn := t.conns[addr]
	t.mu.Unlock()

	if conn != nil {
		if err := writeTo(ctx, conn, addr, env); err != nil {
			t.dropConn(addr, conn)
			return nil, rpc.MarkRetryable(err)
		}
		return &rpc.Response{}, nil
	}

	raw, err := t.dial(ctx, addr)
	if err != nil {
		return nil, err
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = raw.Close()
		return nil, ErrClosed
	}
	if existing, ok := t.conns[addr]; ok {
		// A concurrent Send won the dial race; reuse its connection.
		t.mu.Unlock()
		_ = raw.Close()
		if err := writeTo(ctx, existing, addr, env); err == nil {
			return &rpc.Response{}, nil
		}
		t.dropConn(addr, existing)
		return nil, fmt.Errorf("transport: send %s: connection lost", addr)
	}
	conn = &outConn{Conn: raw}
	t.conns[addr] = conn
	t.mu.Unlock()

	if err := writeTo(ctx, conn, addr, env); err != nil {
		t.dropConn(addr, conn)
		return nil, err
	}
	return &rpc.Response{}, nil
}

// dial connects to addr through the shared jittered-backoff policy,
// counting every attempt in the redial counter and aborting when the
// endpoint closes mid-backoff.
func (t *TCP) dial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: t.cfg.DialTimeout}
	return rpc.DialWithBackoff(ctx, addr,
		func(c context.Context) (net.Conn, error) { return d.DialContext(c, "tcp", addr) },
		rpc.BackoffConfig{Base: t.cfg.DialBackoffBase, Max: t.cfg.DialBackoffMax},
		rpc.DialHooks{
			OnAttempt: func() { t.metric().redials.Inc() },
			Abort: func() error {
				t.mu.Lock()
				closed := t.closed
				t.mu.Unlock()
				if closed {
					return ErrClosed
				}
				return nil
			},
		})
}

// writeTo writes one envelope under the connection's own write lock. The
// socket write deadline is ctx's, set on every write (cleared when ctx
// has none), so a peer that accepts but never drains cannot block the
// caller past its deadline.
func writeTo(ctx context.Context, conn *outConn, addr string, env protocol.Envelope) error {
	conn.wmu.Lock()
	defer conn.wmu.Unlock()
	deadline, _ := ctx.Deadline()
	_ = conn.SetWriteDeadline(deadline)
	if err := protocol.WriteEnvelope(conn.Conn, env); err != nil {
		return fmt.Errorf("transport: send %s: %w", addr, err)
	}
	return nil
}

// dropConn forgets conn (if it is still addr's cached connection) and
// closes it, which also fails a write blocked on it.
func (t *TCP) dropConn(addr string, conn *outConn) {
	t.mu.Lock()
	if t.conns[addr] == conn {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
	_ = conn.Close()
}

// Shutdown gracefully stops the endpoint: it stops accepting and
// dispatching, waits for in-flight handlers to return until ctx is done,
// then hard-closes every connection and joins the background goroutines.
// The drain duration is recorded in
// coralpie_transport_shutdown_drain_seconds.
func (t *TCP) Shutdown(ctx context.Context) error {
	start := time.Now()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	m := t.m
	t.mu.Unlock()

	lnErr := t.ln.Close() // no new inbound connections

	// Drain in-flight handlers, bounded by ctx.
	drained := make(chan struct{})
	go func() {
		t.handlerWG.Wait()
		close(drained)
	}()
	var drainErr error
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = fmt.Errorf("transport: shutdown drain: %w", ctx.Err())
		m.deadlineExceeded.Inc()
	}

	t.closeConnsAndJoin()
	m.drain.Observe(time.Since(start).Seconds())
	if drainErr != nil {
		return drainErr
	}
	if lnErr != nil && !errors.Is(lnErr, io.ErrClosedPipe) {
		return fmt.Errorf("transport: close listener: %w", lnErr)
	}
	return nil
}

// closeConnsAndJoin hard-closes every connection, cancels the handler
// context, and waits for the accept/read goroutines.
func (t *TCP) closeConnsAndJoin() {
	t.cancel()
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns)+len(t.inbound))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.conns = make(map[string]*outConn)
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
}

// Close hard-stops the listener, closes every connection, and waits for
// the background goroutines to exit without draining handlers.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	err := t.ln.Close()
	t.closeConnsAndJoin()
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		return fmt.Errorf("transport: close listener: %w", err)
	}
	return nil
}
