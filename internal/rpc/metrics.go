package rpc

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Metrics are one chain's pre-resolved telemetry handles
// (coralpie_rpc_*). Built with a nil registry they live on a private
// registry, usable in tests and in processes without an exposition
// endpoint.
type Metrics struct {
	Calls            *obs.Counter   // calls entering the chain
	Errors           *obs.Counter   // calls that returned an error
	DeadlineExceeded *obs.Counter   // calls aborted by a context or socket deadline
	Retries          *obs.Counter   // retry attempts spent by WithRetry
	RetryExhausted   *obs.Counter   // calls that failed after their whole retry budget
	Latency          *obs.Histogram // call latency, seconds
}

// NewMetrics resolves the coralpie_rpc_* handles on reg with the given
// label pairs (typically "component", <who>); nil reg selects a
// private registry.
func NewMetrics(reg *obs.Registry, labels ...string) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		Calls: reg.Counter("coralpie_rpc_calls_total",
			"rpc calls entering a middleware chain", labels...),
		Errors: reg.Counter("coralpie_rpc_errors_total",
			"rpc calls that returned an error", labels...),
		DeadlineExceeded: reg.Counter("coralpie_rpc_deadline_exceeded_total",
			"rpc calls aborted by a context or socket deadline", labels...),
		Retries: reg.Counter("coralpie_rpc_retries_total",
			"rpc retry attempts", labels...),
		RetryExhausted: reg.Counter("coralpie_rpc_retry_exhausted_total",
			"rpc calls that failed after exhausting their retry budget", labels...),
		Latency: reg.Histogram("coralpie_rpc_latency_seconds",
			"rpc call latency", nil, labels...),
	}
}

// RetryHooks wires m's retry counters into cfg and returns it, so a
// chain can be assembled as WithRetry(m.RetryHooks(RetryConfig{...})).
func (m *Metrics) RetryHooks(cfg RetryConfig) RetryConfig {
	cfg.OnRetry = m.Retries.Inc
	cfg.OnExhausted = m.RetryExhausted.Inc
	return cfg
}

// WithMetrics counts calls, errors, and deadline aborts, and observes
// wall-clock latency. Place it outside WithRetry so a call that
// succeeds on a retry counts once.
func WithMetrics(m *Metrics) Interceptor {
	return func(ctx context.Context, req *Request, next Handler) (*Response, error) {
		m.Calls.Inc()
		start := time.Now()
		resp, err := next(ctx, req)
		m.Latency.Observe(time.Since(start).Seconds())
		if err != nil {
			m.Errors.Inc()
			if IsDeadlineError(err) {
				m.DeadlineExceeded.Inc()
			}
		}
		return resp, err
	}
}
