package framestore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// DefaultReplicaTimeout bounds one replica's send when
// MultiClientConfig.CallTimeout is zero: long enough for a healthy
// in-proc or LAN hop, short enough that a dead replica cannot stall the
// capture path for the transport's full default send timeout.
const DefaultReplicaTimeout = time.Second

// MultiClientConfig tunes a replicated frame client.
type MultiClientConfig struct {
	// CallTimeout bounds each replica's send (applied per attempt via
	// the rpc deadline middleware; a caller context with its own
	// deadline wins). 0 uses DefaultReplicaTimeout; negative disables.
	CallTimeout time.Duration
	// RetryBudget is how many extra attempts one replica's send may
	// spend on retryable transport errors. 0 uses the rpc default of 1;
	// negative disables retries.
	RetryBudget int
	// Quorum is how many replicas must accept a frame for
	// StoreFrameContext to report success. 0 means 1: any surviving
	// replica keeps the evidence, matching the paper's fire-and-forget
	// frame shipping.
	Quorum int
	// Registry re-homes the per-replica telemetry
	// (coralpie_framestore_replica_{sends,errors,retries}_total). Nil
	// uses the process-default registry.
	Registry *obs.Registry
	// Interceptors are appended innermost in each replica's client
	// chain — fault injection, extra logging — running after deadline
	// and retry middleware, once per attempt.
	Interceptors []rpc.Interceptor
}

// MultiClient fans each frame record out to N framestore servers so a
// single server outage loses no evidence. Each replica gets its own
// rpc client chain (default-deadline, retry-on-retryable, then any
// configured extra interceptors) over the shared endpoint; sends run
// sequentially in replica order, keeping discrete-event simulations
// deterministic. A put succeeds when at least Quorum replicas accept.
type MultiClient struct {
	addrs  []string
	sends  []rpc.Handler
	quorum int
	// bufs holds *[]byte record buffers. A record's bytes are needed only
	// until the last replica's Send returns (Send keeps no payload), so
	// buffers serve frame after frame.
	bufs sync.Pool

	sendCtr []*obs.Counter
	errCtr  []*obs.Counter
}

// NewMultiClient builds a replicated client sending through ep to every
// addr in addrs.
func NewMultiClient(ep transport.Endpoint, addrs []string, cfg MultiClientConfig) (*MultiClient, error) {
	if ep == nil || len(addrs) == 0 {
		return nil, errors.New("framestore: endpoint and at least one server address required")
	}
	for _, a := range addrs {
		if a == "" {
			return nil, errors.New("framestore: empty server address")
		}
	}
	quorum := cfg.Quorum
	if quorum <= 0 {
		quorum = 1
	}
	if quorum > len(addrs) {
		return nil, fmt.Errorf("framestore: quorum %d exceeds %d replicas", quorum, len(addrs))
	}
	timeout := cfg.CallTimeout
	if timeout == 0 {
		timeout = DefaultReplicaTimeout
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}

	mc := &MultiClient{addrs: addrs, quorum: quorum}
	mc.bufs.New = func() any { return new([]byte) }
	for _, addr := range addrs {
		retries := reg.Counter("coralpie_framestore_replica_retries_total",
			"frame send retries per framestore replica", "replica", addr)
		base := func(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
			env := req.Body.(*protocol.Envelope)
			if err := ep.Send(ctx, req.Addr, *env); err != nil {
				// Transport failures (peer gone, bus partition, timeout)
				// are worth one redial; the retry middleware filters.
				return nil, rpc.MarkRetryable(err)
			}
			return &rpc.Response{}, nil
		}
		ics := []rpc.Interceptor{
			rpc.WithDefaultDeadline(timeout),
			rpc.WithRetry(rpc.RetryConfig{Budget: cfg.RetryBudget, OnRetry: retries.Inc}),
		}
		ics = append(ics, cfg.Interceptors...)
		mc.sends = append(mc.sends, rpc.Bind(base, ics...))
		mc.sendCtr = append(mc.sendCtr, reg.Counter("coralpie_framestore_replica_sends_total",
			"frame records accepted per framestore replica", "replica", addr))
		mc.errCtr = append(mc.errCtr, reg.Counter("coralpie_framestore_replica_errors_total",
			"frame sends failed per framestore replica (after retries)", "replica", addr))
	}
	return mc, nil
}

// Replicas returns the configured server addresses, in send order.
func (mc *MultiClient) Replicas() []string {
	out := make([]string, len(mc.addrs))
	copy(out, mc.addrs)
	return out
}

// StoreFrameContext sends one frame record to every replica and
// succeeds when at least Quorum of them accept it. The record is encoded
// once, into a pooled buffer, and those bytes go to every replica. The
// trace context on ctx rides each envelope (the transport's trace-inject
// middleware stamps it), so every replica's span joins the frame's trace.
func (mc *MultiClient) StoreFrameContext(ctx context.Context, rec protocol.FrameRecord) error {
	buf := mc.bufs.Get().(*[]byte)
	defer mc.bufs.Put(buf)
	payload, err := protocol.AppendFrameRecord((*buf)[:0], &rec)
	if err != nil {
		return err
	}
	*buf = payload
	env := protocol.Envelope{Type: protocol.TypeFrameRecord, Payload: payload}
	var (
		delivered int
		firstErr  error
	)
	for i, addr := range mc.addrs {
		// Each replica gets its own envelope copy: middleware may stamp
		// per-send state (trace context) onto the body.
		replicaEnv := env
		req := &rpc.Request{
			Method: string(env.Type),
			Addr:   addr,
			Body:   &replicaEnv,
			OneWay: true,
		}
		if _, err := mc.sends[i](ctx, req); err != nil {
			mc.errCtr[i].Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("framestore: replica %s: %w", addr, err)
			}
			continue
		}
		mc.sendCtr[i].Inc()
		delivered++
	}
	if delivered < mc.quorum {
		return fmt.Errorf("framestore: frame %s/%d delivered to %d/%d replicas, quorum %d: %w",
			rec.CameraID, rec.Seq, delivered, len(mc.addrs), mc.quorum, firstErr)
	}
	return nil
}
