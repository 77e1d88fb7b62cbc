package rpc

import (
	"context"
	"net"
	"sync"
	"time"
)

// ClientConn owns one client connection to a framed request/response
// server. Calls are serialized over the single connection; a call that
// finds the cached connection dead closes it and surfaces the error
// marked retryable, so a WithRetry stage above redials transparently on
// the next attempt; dials use the shared jittered backoff bounded by
// the call context.
type ClientConn struct {
	addr    string
	backoff BackoffConfig
	dialer  func(ctx context.Context) (net.Conn, error)

	mu   sync.Mutex
	conn net.Conn
}

// NewClientConn builds a connection manager for addr. No dial happens
// until Prime or the first Call.
func NewClientConn(addr string, backoff BackoffConfig) *ClientConn {
	cc := &ClientConn{addr: addr, backoff: backoff.withDefaults()}
	cc.dialer = func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", cc.addr)
	}
	return cc
}

// Addr returns the server address.
func (cc *ClientConn) Addr() string { return cc.addr }

// Prime dials eagerly — a single attempt, no backoff — so construction
// fails fast when the server is unreachable. A no-op when a connection
// is already cached.
func (cc *ClientConn) Prime(ctx context.Context) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.conn != nil {
		return nil
	}
	conn, err := cc.dialer(ctx)
	if err != nil {
		return err
	}
	cc.conn = conn
	return nil
}

// Call runs one framed round trip under the connection lock: it fails
// with ctx's error if ctx is already done (a cancelled call sends
// nothing), ensures a connection (redialing with backoff, bounded by
// ctx, when the cache is empty), applies the context deadline to the
// socket, and hands the connection to fn. An fn failure closes the
// connection; if the connection was cached — the server may simply have
// restarted — the error is marked retryable, while a failure on a
// freshly dialed connection is terminal.
func (cc *ClientConn) Call(ctx context.Context, fn func(conn net.Conn) error) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	cached := cc.conn != nil
	if !cached {
		conn, err := DialWithBackoff(ctx, cc.addr, cc.dialer, cc.backoff, DialHooks{})
		if err != nil {
			return err
		}
		cc.conn = conn
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = cc.conn.SetDeadline(deadline)
	}
	if err := fn(cc.conn); err != nil {
		_ = cc.conn.Close()
		cc.conn = nil
		if cached {
			return MarkRetryable(err)
		}
		return err
	}
	_ = cc.conn.SetDeadline(time.Time{})
	return nil
}

// Close closes the cached connection, if any. The ClientConn stays
// usable: a later Call simply redials.
func (cc *ClientConn) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.conn != nil {
		err := cc.conn.Close()
		cc.conn = nil
		return err
	}
	return nil
}
