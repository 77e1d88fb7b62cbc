package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
)

// opHeartbeat is the single op of the heartbeat wire protocol.
const opHeartbeat = "heartbeat"

// maxWireBytes bounds one request/response frame. Heartbeats carry full
// registry snapshots, so the cap matches the store protocols' 8MB.
const maxWireBytes = 8 << 20

// wireCodec adapts the length-prefixed-JSON heartbeat frames to the
// generic rpc server, the same shape as the store protocols.
type wireCodec struct{}

func (wireCodec) ReadRequest(r io.Reader, _ *[]byte) (*rpc.Request, error) {
	var req pushRequest
	if err := protocol.ReadFrame(r, &req, maxWireBytes); err != nil {
		return nil, err
	}
	return &rpc.Request{Method: req.Op, Body: &req}, nil
}

func (wireCodec) WriteResponse(w io.Writer, _ *rpc.Request, resp *rpc.Response, herr error) error {
	if herr != nil {
		return protocol.WriteFrame(w, pushResponse{Err: herr.Error()}, maxWireBytes)
	}
	return protocol.WriteFrame(w, *resp.Body.(*pushResponse), maxWireBytes)
}

// ServerOptions tunes a heartbeat server beyond the defaults.
type ServerOptions struct {
	// Logger, when non-nil, logs each call with its trace.
	Logger *obs.Logger
}

// Server receives heartbeats over TCP and feeds them to a Monitor.
type Server struct {
	monitor *Monitor
	rs      *rpc.Server
}

// ServeWith starts a heartbeat server for the monitor on addr (use
// "127.0.0.1:0" for an ephemeral port).
func ServeWith(m *Monitor, addr string, opts ServerOptions) (*Server, error) {
	if m == nil {
		return nil, errors.New("fleet: nil monitor")
	}
	s := &Server{monitor: m}
	var cfg rpc.ServerConfig
	if opts.Logger != nil {
		cfg.Interceptors = []rpc.Interceptor{rpc.WithServerLogging(opts.Logger)}
	}
	rs, err := rpc.NewServer(addr, wireCodec{}, s.dispatch, cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	s.rs = rs
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.rs.Addr() }

// dispatch is the base handler under the server chain.
func (s *Server) dispatch(_ context.Context, req *rpc.Request) (*rpc.Response, error) {
	wreq := req.Body.(*pushRequest)
	resp := pushResponse{OK: true}
	switch wreq.Op {
	case opHeartbeat:
		if err := s.monitor.Ingest(wreq.Heartbeat); err != nil {
			resp = pushResponse{Err: err.Error()}
		}
	default:
		resp = pushResponse{Err: fmt.Sprintf("unknown op %q", wreq.Op)}
	}
	return &rpc.Response{Body: &resp}, nil
}

// Shutdown gracefully stops the server, letting in-flight pushes finish
// until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error { return s.rs.Shutdown(ctx) }

// Close stops accepting and closes connections immediately.
func (s *Server) Close() error { return s.rs.Close() }

// callTimeout bounds one push when the caller's context carries no
// deadline of its own.
const callTimeout = 5 * time.Second

// ClientConfig tunes the heartbeat client. A failed dial is retried
// after rpc's default backoff, and a push whose cached connection proves
// stale is retried once.
type ClientConfig struct {
	// Registry receives the client's coralpie_rpc_* telemetry
	// (component="fleet_client"); nil keeps standalone handles.
	Registry *obs.Registry
}

// Client pushes heartbeats to a monitor over TCP. It is safe for
// concurrent use; pushes run through the shared rpc middleware chain
// (default deadline, trace inject, metrics, retry) and ride out monitor
// restarts by redialing within the push deadline.
type Client struct {
	cc   *rpc.ClientConn
	call rpc.Handler
	m    *rpc.Metrics
}

// Dial prepares a heartbeat client for addr. The dial is lazy: a
// monitor that is down at node start just makes the first pushes fail
// (and be counted), which is the desired degraded mode — nodes must not
// crash because the health plane is unreachable.
func Dial(addr string, cfg ClientConfig) *Client {
	c := &Client{
		cc: rpc.NewClientConn(addr, rpc.BackoffConfig{}),
		m:  rpc.NewMetrics(cfg.Registry, "component", "fleet_client"),
	}
	c.call = rpc.Bind(c.roundTrip,
		rpc.WithDefaultDeadline(callTimeout),
		rpc.WithTraceInject(),
		rpc.WithMetrics(c.m),
		rpc.WithRetry(c.m.RetryHooks(rpc.RetryConfig{})))
	return c
}

// Push sends one heartbeat, bounded by ctx (or the default call
// timeout).
func (c *Client) Push(ctx context.Context, hb *Heartbeat) error {
	wreq := pushRequest{Op: opHeartbeat, Heartbeat: hb}
	req := &rpc.Request{Method: opHeartbeat, Addr: c.cc.Addr(), Body: &wreq}
	_, err := c.call(ctx, req)
	return err
}

// roundTrip is the base handler under the middleware chain.
func (c *Client) roundTrip(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	var wresp pushResponse
	err := c.cc.Call(ctx, func(conn net.Conn) error {
		if err := protocol.WriteFrame(conn, req.Body.(*pushRequest), maxWireBytes); err != nil {
			return err
		}
		return protocol.ReadFrame(conn, &wresp, maxWireBytes)
	})
	if err != nil {
		return nil, err
	}
	if !wresp.OK {
		return nil, fmt.Errorf("fleet: monitor rejected heartbeat: %s", wresp.Err)
	}
	return &rpc.Response{Body: &wresp}, nil
}

// Metrics exposes the client's rpc telemetry handles.
func (c *Client) Metrics() *rpc.Metrics { return c.m }

// Close closes the client connection at once, failing a push in
// flight, and is final: a later push fails with net.ErrClosed.
func (c *Client) Close() error { return c.cc.Close() }
