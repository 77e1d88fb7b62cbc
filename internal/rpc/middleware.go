package rpc

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// WithDefaultDeadline bounds a call by d when the caller's context
// carries no deadline of its own (a context that already has one wins).
// d <= 0 disables the middleware.
func WithDefaultDeadline(d time.Duration) Interceptor {
	return func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		if d > 0 {
			if _, ok := ctx.Deadline(); !ok {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, d)
				defer cancel()
			}
		}
		return next(ctx, req)
	}
}

// WithTraceInject stamps the caller's ambient span context onto
// trace-carrying request bodies, unless the body already carries one —
// a sender that set the trace explicitly (e.g. a forwarded message)
// knows better than the ambient context.
func WithTraceInject() Interceptor {
	return func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		if carrier, ok := req.Body.(TraceCarrier); ok && carrier.TraceContext() == nil {
			if sc, ok := obs.SpanFromContext(ctx); ok {
				wire := protocol.TraceContext(sc)
				carrier.SetTraceContext(&wire)
			}
		}
		return next(ctx, req)
	}
}

// WithTraceExtract resumes the sender's trace on the receiving side:
// a valid trace context on the request body is installed in ctx so
// handlers (and downstream middleware) continue the sender's trace.
func WithTraceExtract() Interceptor {
	return func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		if carrier, ok := req.Body.(TraceCarrier); ok {
			if wire := carrier.TraceContext(); wire != nil && wire.Valid() {
				ctx = obs.ContextWithSpan(ctx, obs.SpanContext(*wire))
			}
		}
		return next(ctx, req)
	}
}

// RetryConfig tunes WithRetry.
type RetryConfig struct {
	// Budget is how many retries (beyond the first attempt) a call may
	// spend on errors marked retryable by the base transport. Zero
	// means the default of 1 — the redial-once behavior the transports
	// shipped with — and a negative budget disables retries.
	Budget int
	// OnRetry observes each retry attempt (e.g. a counter).
	OnRetry func()
	// OnExhausted observes each call that still failed with a
	// retryable error after its whole budget was spent.
	OnExhausted func()
}

func (c RetryConfig) budget() int {
	if c.Budget == 0 {
		return 1
	}
	if c.Budget < 0 {
		return 0
	}
	return c.Budget
}

// WithRetry re-invokes the rest of the chain on errors marked by
// MarkRetryable, up to the configured budget, stopping early when the
// context expires (the last transport error is returned then, not the
// bare context error — it is the more diagnostic of the two).
// Non-retryable errors — protocol-level rejections, fresh-dial
// failures — short-circuit immediately.
func WithRetry(cfg RetryConfig) Interceptor {
	return func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		budget := cfg.budget()
		var resp *Response
		var err error
		for attempt := 0; ; attempt++ {
			resp, err = next(ctx, req)
			if err == nil || !IsRetryable(err) {
				return resp, err
			}
			if attempt >= budget || ctx.Err() != nil {
				if cfg.OnExhausted != nil {
					cfg.OnExhausted()
				}
				return resp, err
			}
			if cfg.OnRetry != nil {
				cfg.OnRetry()
			}
		}
	}
}

// WithServerLogging logs each inbound call (debug level on success,
// warn on error) with method, peer, duration, and the active trace.
// A nil logger disables the middleware, and a success below the logger's
// level costs no allocation.
func WithServerLogging(logger *obs.Logger) Interceptor {
	return func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		start := time.Now()
		resp, err := next(ctx, req)
		if logger == nil || (err == nil && !logger.Enabled(obs.LevelDebug)) {
			return resp, err
		}
		l := logger
		if sc, ok := obs.SpanFromContext(ctx); ok {
			l = l.WithTrace(sc)
		}
		kv := []string{"method", req.Method, "dur", time.Since(start).String()}
		if req.Addr != "" {
			kv = append(kv, "addr", req.Addr)
		}
		if err != nil {
			l.Warn("rpc serve", append(kv, "err", err.Error())...)
		} else {
			l.Debug("rpc serve", kv...)
		}
		return resp, err
	}
}
