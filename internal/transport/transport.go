// Package transport moves protocol envelopes between Coral-Pie components.
// Two implementations share one interface: an in-process bus used by the
// deterministic simulation harness (optionally routed through the
// discrete-event simulator with a configurable network latency), and a
// TCP transport for real distributed deployments, standing in for the
// paper's ZeroMQ sockets. The TCP transport owns no socket lifecycle of
// its own: it serves through an rpc.Server and sends through one
// rpc.ClientConn per peer, the types every other wire uses.
//
// Every blocking operation is context-aware: Send honors the caller's
// context (falling back to DefaultSendTimeout when the context carries no
// deadline), and handlers receive a context that is cancelled when the
// endpoint shuts down, so downstream work can stop promptly during
// teardown.
package transport

import (
	"context"
	"errors"
	"time"

	"repro/internal/protocol"
	"repro/internal/rpc"
)

// Handler consumes an incoming envelope. Implementations are invoked
// sequentially per connection; a handler must not block for long and
// should abandon work when ctx is cancelled (the endpoint is shutting
// down). env.Payload is valid only until the handler returns: a TCP
// endpoint reads the connection's next envelope into the same buffer, so
// a handler that keeps payload bytes copies them.
type Handler func(ctx context.Context, env protocol.Envelope)

// Endpoint is one addressable party on a network.
type Endpoint interface {
	// Addr is the address peers use to reach this endpoint.
	Addr() string
	// SetHandler installs the incoming-message callback. It must be
	// called before any peer sends to this endpoint.
	SetHandler(h Handler)
	// Send delivers an envelope to a peer address. The context bounds
	// the whole operation (dial, retries, write); implementations apply
	// DefaultSendTimeout when ctx has no deadline, so a stalled peer can
	// never block the caller forever. Send does not keep env.Payload after
	// it returns, so the caller may reuse that buffer at once.
	Send(ctx context.Context, addr string, env protocol.Envelope) error
	// Close releases resources and stops background goroutines
	// immediately (hard close). TCP endpoints additionally offer
	// Shutdown(ctx) for a graceful drain.
	Close() error
}

// Errors shared by transport implementations.
var (
	ErrClosed         = errors.New("transport: endpoint closed")
	ErrUnknownAddress = errors.New("transport: unknown address")
	ErrNoHandler      = errors.New("transport: destination has no handler")
)

// DefaultSendTimeout bounds a Send whose context carries no deadline.
const DefaultSendTimeout = 5 * time.Second

// bindHandler binds h in the inbound chain, trace extraction, once, when
// the handler is installed. A nil h stays nil.
func bindHandler(h Handler) rpc.Handler {
	if h == nil {
		return nil
	}
	return rpc.Bind(func(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
		h(ctx, *req.Body.(*protocol.Envelope))
		return &rpc.Response{}, nil
	}, rpc.WithTraceExtract())
}

// deliver runs one inbound envelope through a handler bound by
// bindHandler.
func deliver(ctx context.Context, serve rpc.Handler, env protocol.Envelope) {
	_, _ = serve(ctx, &rpc.Request{Method: string(env.Type), Body: &env, OneWay: true})
}
