package rpc

import (
	"context"
	"net"
	"sync"
	"time"
)

// ClientConn owns one client connection to a TCP server: the framed
// request/response stores and the one-way envelope peers alike. Calls
// are serialized over the single connection; a call that finds the
// cached connection dead closes it and surfaces the error marked
// retryable, so a WithRetry stage above redials transparently on the
// next attempt; dials use the shared jittered backoff bounded by the
// call context. Close is final.
type ClientConn struct {
	addr    string
	backoff BackoffConfig
	dialer  net.Dialer
	stop    chan struct{} // closed by Close: ends a dial in backoff

	call sync.Mutex // serializes calls over the one connection

	mu     sync.Mutex // guards conn and closed; held only briefly
	conn   net.Conn
	closed bool
}

// NewClientConn builds a connection manager for addr. No dial happens
// until Prime or the first Call.
func NewClientConn(addr string, backoff BackoffConfig) *ClientConn {
	backoff = backoff.withDefaults()
	return &ClientConn{addr: addr, backoff: backoff, dialer: net.Dialer{Timeout: backoff.DialTimeout}, stop: make(chan struct{})}
}

// Addr returns the server address.
func (cc *ClientConn) Addr() string { return cc.addr }

// dial is one connection attempt.
func (cc *ClientConn) dial(ctx context.Context) (net.Conn, error) {
	if cc.backoff.OnDial != nil {
		cc.backoff.OnDial()
	}
	return cc.dialer.DialContext(ctx, "tcp", cc.addr)
}

// Prime dials eagerly — a single attempt, no backoff — so construction
// fails fast when the server is unreachable. A no-op when a connection
// is already cached.
func (cc *ClientConn) Prime(ctx context.Context) error {
	cc.call.Lock()
	defer cc.call.Unlock()
	if conn, err := cc.current(); conn != nil || err != nil {
		return err
	}
	conn, err := cc.dial(ctx)
	if err != nil {
		return err
	}
	return cc.keep(conn)
}

// Call runs one round trip (or one-way write) under the call lock: it
// fails with ctx's error if ctx is already done (a cancelled call sends
// nothing), ensures a connection (redialing with backoff, bounded by
// ctx, when the cache is empty), applies the context deadline to the
// socket, and hands the connection to fn. An fn failure closes the
// connection; if the connection was cached — the server may simply have
// restarted — the error is marked retryable, while a failure on a
// freshly dialed connection, or after Close, is terminal. After Close,
// Call fails with net.ErrClosed.
func (cc *ClientConn) Call(ctx context.Context, fn func(conn net.Conn) error) error {
	cc.call.Lock()
	defer cc.call.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	conn, err := cc.current()
	if err != nil {
		return err
	}
	cached := conn != nil
	if !cached {
		if conn, err = dialWithBackoff(ctx, cc.addr, cc.dial, cc.backoff, cc.stop); err != nil {
			return err
		}
		if err := cc.keep(conn); err != nil {
			return err
		}
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if err := fn(conn); err != nil {
		_ = conn.Close()
		if cc.keep(nil) == nil && cached {
			return MarkRetryable(err)
		}
		return err
	}
	_ = conn.SetDeadline(time.Time{})
	return nil
}

// current returns the cached connection (nil when there is none), or
// net.ErrClosed once Close ran.
func (cc *ClientConn) current() (net.Conn, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return nil, net.ErrClosed
	}
	return cc.conn, nil
}

// keep caches conn (nil forgets a failed one) unless Close ran: then it
// closes conn and fails with net.ErrClosed.
func (cc *ClientConn) keep(conn net.Conn) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		if conn != nil {
			_ = conn.Close()
		}
		return net.ErrClosed
	}
	cc.conn = conn
	return nil
}

// Close is final: it closes the cached connection at once, failing a
// call blocked on it, stops a dial in backoff, and makes every later
// Call fail with net.ErrClosed. It does not wait for a call in flight.
func (cc *ClientConn) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return nil
	}
	cc.closed = true
	close(cc.stop)
	if cc.conn == nil {
		return nil
	}
	return cc.conn.Close()
}
