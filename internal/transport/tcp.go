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

// TCP is an Endpoint over real TCP sockets, built on the two rpc types
// every wire in the repository uses. Inbound, an rpc.Server reads
// length-prefixed protocol envelopes (a one-way codec: nothing is
// written back) and dispatches them through the server chain (trace
// extraction) to the installed handler. Outbound, each peer address has
// one rpc.ClientConn, and a send is one write on it through the client
// chain (deadline, trace inject, metrics, retry) with the shared dial
// backoff. A peer that stops draining stalls only the senders to that
// peer. Handlers may be invoked concurrently (one goroutine per inbound
// connection) and must be safe for concurrent use; they receive a
// context cancelled at shutdown.
type TCP struct {
	rs  *rpc.Server
	cfg TCPConfig

	// send is the outbound chain, bound once around transmit.
	send rpc.Handler

	mu      sync.Mutex
	handler Handler
	peers   map[string]*rpc.ClientConn
	closed  bool
	m       *endpointMetrics
}

var _ Endpoint = (*TCP)(nil)

// ListenTCP starts an endpoint listening on addr (use "127.0.0.1:0" for an
// ephemeral port) with default deadlines.
func ListenTCP(addr string) (*TCP, error) {
	return ListenTCPConfig(addr, TCPConfig{})
}

// ListenTCPConfig starts an endpoint with explicit deadline and backoff
// tuning.
func ListenTCPConfig(addr string, cfg TCPConfig) (*TCP, error) {
	cfg.applyDefaults()
	t := &TCP{
		cfg:   cfg,
		peers: make(map[string]*rpc.ClientConn),
		m:     newEndpointMetrics(nil, "tcp"),
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
	rs, err := rpc.NewServer(addr, envelopeCodec{t}, t.dispatch, rpc.ServerConfig{})
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.rs = rs
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
func (t *TCP) Addr() string { return t.rs.Addr() }

// SetHandler implements Endpoint.
func (t *TCP) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// envelopeCodec is the inbound side's one-way codec: it reads each
// envelope into the connection's buffer, which is why a payload is
// valid only until the handler returns (see Handler), and answers
// nothing.
type envelopeCodec struct{ t *TCP }

func (c envelopeCodec) ReadRequest(r io.Reader, buf *[]byte) (*rpc.Request, error) {
	env, err := protocol.ReadEnvelopeInto(r, buf)
	m := c.t.metric()
	if err != nil {
		if errors.Is(err, protocol.ErrBadEnvelope) {
			// The peer speaks a format this endpoint does not read (for
			// one, a JSON envelope): nothing it sends will decode.
			m.decodeErrors.Inc()
			peer := ""
			if conn, ok := r.(net.Conn); ok {
				peer = conn.RemoteAddr().String()
			}
			obs.DefaultLogger().WithComponent("transport").Warn("closing connection on an undecodable envelope",
				"peer", peer, "err", err.Error())
		}
		return nil, err // EOF, peer reset, or an undecodable envelope
	}
	m.received.Inc()
	m.bytesIn.Add(int64(len(env.Payload)))
	return &rpc.Request{Method: string(env.Type), Body: &env, OneWay: true}, nil
}

func (envelopeCodec) WriteResponse(io.Writer, *rpc.Request, *rpc.Response, error) error {
	return nil
}

// dispatch is the inbound chain's base handler: it hands the envelope
// to the installed handler, if any.
func (t *TCP) dispatch(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	t.mu.Lock()
	h, m := t.handler, t.m
	t.mu.Unlock()
	if h != nil {
		m.delivered.Inc()
		h(ctx, *req.Body.(*protocol.Envelope))
	}
	return nil, nil
}

// Send writes the envelope to addr through the outbound middleware
// chain, over the peer's connection, dialing on demand with the shared
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

// transmit is the base handler under the outbound chain: one write on
// the peer's connection. A stale cached connection fails the write
// marked retryable, so the retry stage redials; a failure on a fresh
// connection is terminal. The socket deadline is ctx's, so a peer that
// accepts but never drains cannot block the caller past it.
func (t *TCP) transmit(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	if req.Delay > 0 {
		// Injected fault latency; consume it so retries don't pay twice.
		delay := req.Delay
		req.Delay = 0
		if err := rpc.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	cc, err := t.peer(req.Addr)
	if err != nil {
		return nil, err
	}
	env := req.Body.(*protocol.Envelope)
	if err := cc.Call(ctx, func(conn net.Conn) error { return protocol.WriteEnvelope(conn, *env) }); err != nil {
		return nil, fmt.Errorf("transport: send %s: %w", req.Addr, err)
	}
	return nil, nil
}

// peer returns addr's connection, made on first use; every dial attempt
// on it counts in the dials counter.
func (t *TCP) peer(addr string) (*rpc.ClientConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	cc := t.peers[addr]
	if cc == nil {
		cc = rpc.NewClientConn(addr, rpc.BackoffConfig{
			Base:        t.cfg.DialBackoffBase,
			Max:         t.cfg.DialBackoffMax,
			DialTimeout: t.cfg.DialTimeout,
			OnDial:      func() { t.metric().redials.Inc() },
		})
		t.peers[addr] = cc
	}
	return cc, nil
}

// stop marks the endpoint closed, so sends fail with ErrClosed, and
// closes every outbound connection, failing a write blocked on one and a
// dial in backoff. It reports whether the endpoint was open.
func (t *TCP) stop() bool {
	t.mu.Lock()
	open, peers := !t.closed, t.peers
	t.closed, t.peers = true, nil
	t.mu.Unlock()
	for _, cc := range peers {
		_ = cc.Close()
	}
	return open
}

// Shutdown gracefully stops the endpoint: sends fail with ErrClosed and
// the outbound connections close; the server stops accepting, lets
// in-flight handlers return until ctx is done, then hard-closes its
// connections. The drain duration is recorded in
// coralpie_transport_shutdown_drain_seconds, and a missed drain deadline
// in coralpie_transport_deadline_exceeded_total.
func (t *TCP) Shutdown(ctx context.Context) error {
	start := time.Now()
	if !t.stop() {
		return nil
	}
	err := t.rs.Shutdown(ctx)
	m := t.metric()
	if err != nil && ctx.Err() != nil {
		m.deadlineExceeded.Inc()
	}
	m.drain.Observe(time.Since(start).Seconds())
	return err
}

// Close hard-stops the listener, closes every connection, and waits for
// the server's goroutines to exit without draining handlers.
func (t *TCP) Close() error {
	if !t.stop() {
		return nil
	}
	return t.rs.Close()
}
