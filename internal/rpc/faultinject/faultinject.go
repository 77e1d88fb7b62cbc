// Package faultinject is a deterministic network-fault middleware for
// the rpc layer: seeded message drop, added latency, and error
// injection, so robustness scenarios are configuration (a coral-sim
// flag, a test knob) rather than ad-hoc hooks wired into each
// transport. It replaces the transport bus's private loss model.
//
// Determinism contract: faults draw from one private RNG in a fixed
// per-message order — latency, then drop, then error — and only for
// fault classes with a non-zero rate. A drop-only config therefore
// consumes the RNG exactly like the retired transport loss hook, and a
// seeded DES run with fault injection enabled is reproducible
// draw-for-draw.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/rpc"
)

// ErrInjected is the error returned for calls failed by error
// injection; match it with errors.Is.
var ErrInjected = errors.New("faultinject: injected error")

// Config selects which faults to inject and how often. The zero value
// injects nothing.
type Config struct {
	// RNG is drawn from directly (and mutated); it must be dedicated to
	// this middleware. Lets a simulation derive the fault stream from its
	// master seed. Nil draws from a private source seeded with 0.
	RNG *rand.Rand
	// DropRate in [0,1) silently discards each one-way message with
	// this probability, like a dropped datagram; request/response calls
	// selected for drop fail with ErrInjected instead (a lost request
	// is visible to a caller awaiting a reply).
	DropRate float64
	// ErrorRate in [0,1) fails each call with ErrInjected.
	ErrorRate float64
	// Latency, plus a uniform draw in [0, LatencyJitter), is added to
	// each message via Request.Delay: the in-proc bus folds it into the
	// simulated network latency (deterministic under the DES), the TCP
	// transport sleeps it off.
	Latency       time.Duration
	LatencyJitter time.Duration
	// OnDrop observes each dropped message (e.g. a lost counter).
	OnDrop func()
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.ErrorRate > 0 || c.Latency > 0 || c.LatencyJitter > 0
}

func (c Config) validate() error {
	if c.DropRate < 0 || c.DropRate >= 1 {
		return fmt.Errorf("faultinject: drop rate %v out of [0,1)", c.DropRate)
	}
	if c.ErrorRate < 0 || c.ErrorRate >= 1 {
		return fmt.Errorf("faultinject: error rate %v out of [0,1)", c.ErrorRate)
	}
	if c.Latency < 0 || c.LatencyJitter < 0 {
		return fmt.Errorf("faultinject: negative latency")
	}
	return nil
}

// New builds the fault-injection client interceptor. The returned
// middleware is safe for concurrent use (the RNG is mutex-protected);
// determinism then additionally requires deterministic message order,
// which the DES bus provides.
func New(cfg Config) (rpc.Interceptor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(0))
	}
	var mu sync.Mutex
	return func(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
		mu.Lock()
		var delay time.Duration
		if cfg.Latency > 0 || cfg.LatencyJitter > 0 {
			delay = cfg.Latency
			if cfg.LatencyJitter > 0 {
				delay += time.Duration(rng.Int63n(int64(cfg.LatencyJitter)))
			}
		}
		drop := cfg.DropRate > 0 && rng.Float64() < cfg.DropRate
		fail := cfg.ErrorRate > 0 && rng.Float64() < cfg.ErrorRate
		mu.Unlock()
		if drop {
			if cfg.OnDrop != nil {
				cfg.OnDrop()
			}
			if req.OneWay {
				return &rpc.Response{}, nil // silently lost, like a dropped datagram
			}
			return nil, fmt.Errorf("%w: dropped %s to %s", ErrInjected, req.Method, req.Addr)
		}
		if fail {
			return nil, fmt.Errorf("%w: %s to %s", ErrInjected, req.Method, req.Addr)
		}
		req.Delay += delay
		return next(ctx, req)
	}, nil
}
