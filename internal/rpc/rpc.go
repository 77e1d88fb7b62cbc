// Package rpc is the shared substrate under every Coral-Pie wire
// protocol: the peer-to-peer camera envelopes, topology heartbeats,
// trajectory-store calls, and frame shipping are all "just messages",
// so their cross-cutting concerns — tracing, metrics, deadlines,
// logging, retry/redial policy, fault injection — live here once, as
// interceptors, instead of being hand-stitched into each transport.
//
// The model is a typed request/response plus one-way-message core over
// the existing framed wire formats (the wire bytes are unchanged; this
// layer is purely in-process). Both sides of the wire use one
// Interceptor type, and Bind composes a chain of them around its base
// handler (the transport write, the round trip, or the protocol
// handler) once, where that handler is fixed. Deadlines are standard
// library contexts.
//
// The TCP lifecycle lives here once too. Server is the one accept loop,
// per-connection read loop and graceful drain; ClientConn is the one
// client connection, with its dial backoff and its final Close. The
// trajectory store, the heartbeat monitor and the envelope transport
// are codecs and handlers on top of these two types.
package rpc

import (
	"context"
	"time"

	"repro/internal/protocol"
)

// Request is one outbound call or inbound message traveling through an
// interceptor chain.
type Request struct {
	// Method names the operation: the envelope message type for one-way
	// transport sends, or the wire op for request/response calls.
	Method string
	// Addr is the destination address (empty on the server side).
	Addr string
	// Body is the protocol-level message. Middleware that moves trace
	// contexts asserts it to TraceCarrier; transports assert it back to
	// their concrete frame type.
	Body any
	// OneWay marks fire-and-forget sends: no response body is expected
	// and a dropped message is indistinguishable from a delivered one.
	OneWay bool
	// Delay is latency injected by fault middleware. Transports honor
	// it at the last moment — the in-proc bus adds it to the simulated
	// network latency (keeping DES runs deterministic), the TCP
	// transport sleeps — and consume it, so retries do not pay it
	// twice.
	Delay time.Duration
}

// Response carries a call's reply body; one-way sends return an empty
// Response.
type Response struct {
	Body any
}

// Handler is the innermost stage of a chain: it performs the actual
// send, round trip, or protocol dispatch.
type Handler func(ctx context.Context, req *Request) (*Response, error)

// Interceptor wraps a call on either side of the wire: an outbound
// send or round trip, or an inbound dispatch. It may mutate the
// request, short-circuit by not calling next, or retry by calling next
// more than once.
type Interceptor func(ctx context.Context, req *Request, next Handler) (*Response, error)

// Bind composes interceptors around a fixed base handler, once, in the
// onion model: the first interceptor is outermost, base innermost.
// Calling the bound chain builds no closures, so every chain is bound
// where its base is fixed (client or server construction, handler
// installation), never per call. With no interceptors Bind returns base.
func Bind(base Handler, ics ...Interceptor) Handler {
	h := base
	for i := len(ics) - 1; i >= 0; i-- {
		ic, inner := ics[i], h
		h = func(ctx context.Context, req *Request) (*Response, error) {
			return ic(ctx, req, inner)
		}
	}
	return h
}

// TraceCarrier is implemented by wire messages that can carry a trace
// context across the network (protocol.Envelope, the trajstore request
// frame). The trace middleware reads and writes through it without
// knowing the concrete frame type.
type TraceCarrier interface {
	TraceContext() *protocol.TraceContext
	SetTraceContext(*protocol.TraceContext)
}
