package rpc

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// BackoffConfig shapes a ClientConn's dials: the capped exponential
// backoff with full jitter between retries, the bound on one attempt and
// an observer of attempts. Every TCP client in the repository dials
// through it.
type BackoffConfig struct {
	// Base is the first retry delay (default 50ms); it doubles per
	// attempt.
	Base time.Duration
	// Max caps the delay (default 1s).
	Max time.Duration
	// DialTimeout bounds one connection attempt (0: only the call's
	// context bounds it).
	DialTimeout time.Duration
	// OnDial, when non-nil, runs before each connection attempt (a dial
	// counter, say).
	OnDial func()
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Base <= 0 {
		c.Base = 50 * time.Millisecond
	}
	if c.Max <= 0 {
		c.Max = time.Second
	}
	return c
}

// jitter returns a sleep in [d/2, d]: full jitter decorrelates
// concurrent clients hammering a restarting peer.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// dialWithBackoff dials addr via dial, retrying with capped exponential
// backoff plus jitter until a connection succeeds, ctx expires or stop
// is closed (then it fails with net.ErrClosed). Transient listener
// restarts (a store server rebooting, say) are ridden out instead of
// failing the first call.
func dialWithBackoff(ctx context.Context, addr string, dial func(context.Context) (net.Conn, error), cfg BackoffConfig, stop <-chan struct{}) (net.Conn, error) {
	for backoff := cfg.Base; ; backoff = min(2*backoff, cfg.Max) {
		conn, err := dial(ctx)
		if err == nil {
			return conn, nil
		}
		timer := time.NewTimer(jitter(backoff))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("rpc: dial %s: %w (last attempt: %v)", addr, ctx.Err(), err)
		case <-stop:
			timer.Stop()
			return nil, fmt.Errorf("rpc: dial %s: %w", addr, net.ErrClosed)
		case <-timer.C:
		}
	}
}

// Sleep pauses for d or until ctx is done, returning ctx.Err() in the
// latter case. Transports use it to honor injected fault latency.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	select {
	case <-ctx.Done():
		timer.Stop()
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
