package trajstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
)

// The trajectory store's ops. A request names one by its byte; ops maps it
// to the rpc method label and to the kind of answer a success carries.
const (
	opAddBatch byte = iota + 1
	opGetVertex
	opFindByEvent
	opOutEdges
	opStats
	opReconstruct
	opBest
	opSightings
)

var ops = [...]struct {
	name   string
	answer byte
}{
	opAddBatch:    {"add_batch", answerBatch},
	opGetVertex:   {"get_vertex", answerVertex},
	opFindByEvent: {"find_by_event", answerVertex},
	opOutEdges:    {"out_edges", answerEdges},
	opStats:       {"stats", answerStats},
	opReconstruct: {"reconstruct", answerTracks},
	opBest:        {"best", answerTracks},
	opSightings:   {"sightings", answerHops},
}

// Error codes relayed in error answers so clients can recover sentinel
// errors across the wire (errors.Is keeps working remotely).
const (
	codeNotFound   = "not_found"
	codeNoTracks   = "no_tracks"
	codeTooLarge   = "too_large"
	codeEdgeExists = "edge_exists"
	codeJSONWire   = "json_wire"
)

var errorCodes = []struct {
	code string
	err  error
}{
	{codeNotFound, ErrVertexNotFound},
	{codeNoTracks, ErrNoTracks},
	{codeTooLarge, ErrAnswerTooLarge},
	{codeEdgeExists, ErrEdgeExists},
	{codeJSONWire, ErrJSONWire},
}

// ErrAnswerTooLarge is matched (errors.Is) by the error of a call whose
// answer would not fit in one frame (maxWireBytes). The server refuses
// such an answer with a too_large error on the same connection, so the
// call fails once, without a retry, and the connection stays usable.
var ErrAnswerTooLarge = errors.New("trajstore: answer exceeds the frame bound")

// ErrJSONWire is matched (errors.Is) by the error of a call across the
// format floor: a server refuses a JSON request with it, on the same
// connection, and a client fails a call answered in JSON with it, without
// a retry. No release reads both wires, so a store's clients and its
// server are upgraded together.
var ErrJSONWire = errors.New("trajstore: JSON request/answer wire is below the format floor; upgrade the store's clients and server together")

// ServerError is a store-level rejection relayed over the wire. Its
// message matches the historical "trajstore: server: ..." string; the
// optional code restores sentinel identity, so
// errors.Is(err, ErrVertexNotFound) and errors.Is(err, ErrNoTracks)
// hold across the client/server boundary.
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string { return "trajstore: server: " + e.Msg }

func (e *ServerError) Unwrap() error {
	for _, c := range errorCodes {
		if c.code == e.Code {
			return c.err
		}
	}
	return nil
}

// toServerError is err as an error answer carries it: a ServerError as it
// is, any other error with the code of the sentinel it matches.
func toServerError(err error) *ServerError {
	var se *ServerError
	if errors.As(err, &se) {
		return se
	}
	for _, c := range errorCodes {
		if errors.Is(err, c.err) {
			return &ServerError{Code: c.code, Msg: err.Error()}
		}
	}
	return &ServerError{Msg: err.Error()}
}

// A request is one binary record, the frame's whole body:
//
//	requestV1 | op | trace | vertex ID | event ID | limits | vehicle ID | max vertex | batch
//
// Every op has the one layout, and a parameter its op does not take is
// zero. The trace is protocol.AppendTrace's and the batch
// protocol.AppendTrajWrites'; IDs are zig-zag varints, strings
// length-prefixed, and limits MaxDepth and MaxPaths as zig-zag varints.
// requestV1 is not '{', the first byte of the JSON requests older clients
// sent, which are refused.
const requestV1 = 0x01

// request is one client -> server call: the op and its query parameters
// (the query cache's key), the caller's span context, which the rpc trace
// middleware stamps and extracts (batch records carry their own), and a
// batch.
type request struct {
	queryKey
	trace *protocol.TraceContext
	batch []protocol.TrajWrite
	err   error // why a received request was refused
}

// TraceContext and SetTraceContext implement rpc.TraceCarrier, so the
// shared trace middleware moves span contexts through requests.
func (r *request) TraceContext() *protocol.TraceContext      { return r.trace }
func (r *request) SetTraceContext(tc *protocol.TraceContext) { r.trace = tc }

// appendTo appends r's binary encoding to dst. It fails on a batch record
// protocol.AppendTrajWrites refuses.
func (r *request) appendTo(dst []byte) ([]byte, error) {
	dst = protocol.AppendTrace(append(dst, requestV1, r.op), r.trace)
	dst = protocol.AppendString(binary.AppendVarint(dst, r.vertexID), string(r.eventID))
	dst = binary.AppendVarint(binary.AppendVarint(dst, int64(r.limits.MaxDepth)), int64(r.limits.MaxPaths))
	dst = binary.AppendVarint(protocol.AppendString(dst, r.vehicleID), r.maxVertex)
	return protocol.AppendTrajWrites(dst, r.batch)
}

// decodeRequest decodes a request written by appendTo. A JSON request
// fails with ErrJSONWire; an unknown op, a field in any form but the one
// appendTo writes, and trailing bytes are errors.
func decodeRequest(body []byte) (*request, error) {
	switch {
	case len(body) > 0 && body[0] == '{':
		return nil, fmt.Errorf("%w (JSON request)", ErrJSONWire)
	case len(body) == 0 || body[0] != requestV1:
		return nil, fmt.Errorf("trajstore: unknown request format %q", body[:min(len(body), 1)])
	}
	c := protocol.NewCursor(body[1:])
	r := &request{queryKey: queryKey{op: c.Byte()}, trace: c.Trace()}
	r.vertexID, r.eventID = c.Varint(), protocol.EventID(c.Bytes())
	r.limits = TraceLimits{MaxDepth: int(c.Varint()), MaxPaths: int(c.Varint())}
	r.vehicleID, r.maxVertex = string(c.Bytes()), c.Varint()
	var err error
	switch r.batch, err = protocol.DecodeTrajWrites(&c); {
	case err != nil:
	case r.op == 0 || int(r.op) >= len(ops):
		err = fmt.Errorf("unknown op 0x%02x", r.op)
	case c.Len() != 0:
		err = fmt.Errorf("%d trailing bytes", c.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("trajstore: decode request: %w", err)
	}
	return r, nil
}

// maxWireBytes bounds one request/answer frame.
const maxWireBytes = 8 << 20

// wireCodec adapts the store's length-prefixed binary frames to the
// generic rpc server. A request that does not decode still gets an answer,
// its error, and the connection stays: the frame boundary held.
type wireCodec struct{}

func (wireCodec) ReadRequest(r io.Reader, _ *[]byte) (*rpc.Request, error) {
	body, err := protocol.ReadFrameBody(r, maxWireBytes)
	if err != nil {
		return nil, err
	}
	req, err := decodeRequest(body)
	if err != nil {
		return &rpc.Request{Method: "invalid", Body: &request{err: err}}, nil
	}
	return &rpc.Request{Method: ops[req.op].name, Body: req}, nil
}

// WriteResponse writes the handler's answer, or an error answer for a
// chain error. An answer that does not encode, or would exceed
// maxWireBytes (too_large), is refused before any of it is written, and an
// error answer takes its place on the same connection.
func (wireCodec) WriteResponse(w io.Writer, req *rpc.Request, resp *rpc.Response, herr error) error {
	var a reply
	if herr != nil {
		a = errReply(herr)
	} else {
		a = *resp.Body.(*reply)
	}
	body, err := a.appendTo(nil)
	if err == nil {
		if err = protocol.WriteFrameBody(w, body, maxWireBytes); !errors.Is(err, protocol.ErrFrameTooLarge) {
			return err
		}
		err = &ServerError{Code: codeTooLarge, Msg: fmt.Sprintf("%s answer refused: %v, bound %d bytes", req.Method, err, maxWireBytes)}
	}
	a = errReply(fmt.Errorf("%s answer: %w", req.Method, err))
	body, _ = a.appendTo(nil) // an error answer always encodes
	return protocol.WriteFrameBody(w, body, maxWireBytes)
}

// ServerOptions tunes a trajectory store server beyond the defaults.
type ServerOptions struct {
	// WriteTimeout bounds each response write (0 = none).
	WriteTimeout time.Duration
	// Interceptors wrap request handling, after trace extraction.
	Interceptors []rpc.Interceptor
	// Logger, when non-nil, logs each call (debug on success, warn on
	// error) with its trace.
	Logger *slog.Logger
	// Registry receives the server's coralpie_query_* telemetry; nil
	// selects the process-default registry.
	Registry *obs.Registry
	// QueryCache bounds the server-side query result cache in entries.
	// 0 selects DefaultQueryCacheSize; negative disables caching.
	QueryCache int
}

// Server exposes a Store over TCP with a simple request/response
// protocol, served through the shared rpc layer (accept/serve/shutdown
// lifecycle, trace extraction, middleware).
type Server struct {
	store  *Store
	engine *queryEngine
	rs     *rpc.Server
	// refused counts the requests answered with an error, by reason:
	// json_wire (a JSON request, below the format floor), invalid (one
	// that does not decode) and rejected (by the store or the op, a
	// missing vertex included). An error answer is not an rpc error, so
	// nothing else on the server counts it.
	refused map[string]*obs.Counter
}

// ServeWith starts a server for the store on addr (use "127.0.0.1:0" for
// an ephemeral port), tuned by opts.
func ServeWith(store *Store, addr string, opts ServerOptions) (*Server, error) {
	if store == nil {
		return nil, errors.New("trajstore: nil store")
	}
	s := newServer(store, opts)
	ics := opts.Interceptors
	if opts.Logger != nil {
		ics = append([]rpc.Interceptor{rpc.WithServerLogging(opts.Logger)}, ics...)
	}
	rs, err := rpc.NewServer(addr, wireCodec{}, s.dispatch, rpc.ServerConfig{
		WriteTimeout: opts.WriteTimeout,
		Interceptors: ics,
	})
	if err != nil {
		return nil, fmt.Errorf("trajstore: listen %s: %w", addr, err)
	}
	s.rs = rs
	return s, nil
}

// newServer is ServeWith's server before it listens.
func newServer(store *Store, opts ServerOptions) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Server{store: store, engine: newQueryEngine(store, opts.QueryCache, reg), refused: map[string]*obs.Counter{}}
	for _, reason := range []string{"json_wire", "invalid", "rejected"} {
		s.refused[reason] = reg.Counter("coralpie_trajstore_requests_refused_total",
			"trajectory-store requests answered with an error, by reason", "reason", reason)
	}
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.rs.Addr() }

// dispatch is the base handler under the server chain. A store-level
// rejection is an answer, not a chain error.
func (s *Server) dispatch(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	r := req.Body.(*request)
	a := s.handle(ctx, r)
	if a.kind == answerError {
		reason := "rejected"
		if errors.Is(r.err, ErrJSONWire) {
			reason = "json_wire"
		} else if r.err != nil {
			reason = "invalid"
		}
		s.refused[reason].Inc()
	}
	return &rpc.Response{Body: &a}, nil
}

func (s *Server) handle(ctx context.Context, req *request) reply {
	if req.err != nil {
		return errReply(req.err)
	}
	a := reply{kind: ops[req.op].answer}
	var err error
	switch req.op {
	case opAddBatch:
		if len(req.batch) == 0 {
			return errReply(errors.New("add_batch requires at least one record"))
		}
		a.ids, a.errs, err = s.store.ApplyBatch(req.batch)
	case opGetVertex:
		a.vertex, err = s.store.Vertex(req.vertexID)
	case opFindByEvent:
		a.vertex, err = s.store.FindByEventID(req.eventID)
	case opOutEdges:
		if _, err = s.store.Vertex(req.vertexID); err == nil {
			a.edges = s.store.OutEdges(req.vertexID)
		}
	case opStats:
		snap := s.store.Snapshot()
		a.nVerts, a.nEdges = snap.NumVertices(), snap.NumEdges()
	case opSightings:
		if req.vehicleID == "" {
			return errReply(errors.New("sightings requires a vehicle id"))
		}
		fallthrough
	case opReconstruct, opBest:
		var val any
		if val, err = s.engine.do(ctx, req.queryKey, req.query); err == nil {
			a = val.(reply)
		}
	}
	if err != nil {
		return errReply(err)
	}
	return a
}

// Shutdown gracefully stops the server: it stops accepting new
// connections, lets any request currently being served finish, and only
// hard-closes connections once idle (or once ctx expires, whichever is
// first). The drain duration is recorded in the server's shutdown
// histogram. Safe to call concurrently with Close; both are idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.rs.Shutdown(ctx)
}

// DrainObservations returns how many graceful shutdowns have recorded a
// drain duration (at most one per server; exposed for tests and
// telemetry wiring).
func (s *Server) DrainObservations() uint64 { return s.rs.DrainObservations() }

// QueryStats are the server-side query engine's lifetime counters,
// exposed for tests and telemetry wiring.
type QueryStats struct {
	CacheHits   int64
	CacheMisses int64
	CacheLen    int
	InFlight    int64
}

// QueryStats returns the query engine's cache and in-flight counters.
func (s *Server) QueryStats() QueryStats {
	st := QueryStats{
		CacheHits:   s.engine.m.hits.Value(),
		CacheMisses: s.engine.m.misses.Value(),
		InFlight:    s.engine.m.inflight.Value(),
	}
	if s.engine.cache != nil {
		st.CacheLen = s.engine.cache.len()
	}
	return st
}

// Close stops accepting, closes connections, and waits for handlers.
// Unlike Shutdown it does not wait for in-flight requests.
func (s *Server) Close() error { return s.rs.Close() }

// ClientConfig tunes the client's per-call deadlines, reconnect
// backoff, retry budget, and middleware. The zero value selects the
// defaults noted per field.
type ClientConfig struct {
	// CallTimeout bounds one RPC (dial + write + read) when the caller's
	// context carries no deadline of its own. Default 5s.
	CallTimeout time.Duration
	// DialBackoffBase is the first retry delay after a failed dial
	// (default 50ms); DialBackoffMax caps the exponential growth
	// (default 1s). Retries use full jitter and stop at the context
	// deadline.
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
	// DialTimeout bounds one connection attempt (0: only the call's
	// context bounds it).
	DialTimeout time.Duration
	// RetryBudget is how many times one call may retry after its cached
	// connection proves stale (default 1, the historical retry-once
	// behavior; negative disables retries).
	RetryBudget int
	// Interceptors are appended to the default client chain (deadline,
	// trace inject, metrics) ahead of the retry stage.
	Interceptors []rpc.Interceptor
	// Registry receives the client's coralpie_rpc_* telemetry
	// (component="trajstore_client"); nil keeps standalone handles.
	Registry *obs.Registry
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	return cfg
}

// ClientConfigFromFlags maps the shared -rpc-* flag block onto a
// ClientConfig, so every binary tunes its store client the same way.
func ClientConfigFromFlags(f *rpc.Flags) ClientConfig {
	return ClientConfig{
		CallTimeout:     f.CallTimeout,
		DialBackoffBase: f.BackoffBase,
		DialBackoffMax:  f.BackoffMax,
		DialTimeout:     f.DialTimeout,
		RetryBudget:     f.RetryBudget,
	}
}

// Client is a synchronous TCP client for a trajectory store server. It
// is safe for concurrent use; calls are serialized over one managed
// connection. Every call runs through the shared rpc middleware chain
// (default deadline, trace inject, metrics, retry); a call that finds
// its cached connection dead (the server restarted) redials with
// capped, jittered backoff and retries within the call's deadline, so
// clients ride out server restarts transparently. The client holds no
// private dial/backoff/retry logic of its own.
type Client struct {
	cc   *rpc.ClientConn
	call rpc.Handler // middleware chain bound once around roundTrip
	m    *rpc.Metrics
}

// DialContext connects to a trajectory store server, bounding the
// initial dial by ctx (or cfg.CallTimeout when ctx has no deadline).
// The eager dial is a single attempt so an unreachable server fails
// fast at construction.
func DialContext(ctx context.Context, addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{
		cc: rpc.NewClientConn(addr, rpc.BackoffConfig{
			Base:        cfg.DialBackoffBase,
			Max:         cfg.DialBackoffMax,
			DialTimeout: cfg.DialTimeout,
		}),
		m: rpc.NewMetrics(cfg.Registry, "component", "trajstore_client"),
	}
	chain := append([]rpc.Interceptor{
		rpc.WithDefaultDeadline(cfg.CallTimeout),
		rpc.WithTraceInject(),
		rpc.WithMetrics(c.m),
	}, cfg.Interceptors...)
	chain = append(chain, rpc.WithRetry(c.m.RetryHooks(rpc.RetryConfig{Budget: cfg.RetryBudget})))
	c.call = rpc.Bind(c.roundTrip, chain...)

	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, cfg.CallTimeout)
		defer cancel()
	}
	if err := c.cc.Prime(dctx); err != nil {
		return nil, fmt.Errorf("trajstore: dial %s: %w", addr, err)
	}
	return c, nil
}

// Metrics exposes the client's rpc telemetry handles (standalone unless
// a registry was configured).
func (c *Client) Metrics() *rpc.Metrics { return c.m }

func (c *Client) do(ctx context.Context, r *request) (reply, error) {
	resp, err := c.call(ctx, &rpc.Request{Method: ops[r.op].name, Addr: c.cc.Addr(), Body: r})
	if err != nil {
		return reply{}, err
	}
	return *resp.Body.(*reply), nil
}

// roundTrip is the base handler under the middleware chain: one framed
// request/answer over the managed connection. Transport failures on a
// cached connection surface as retryable for the retry stage above. The
// answer is decoded once the round trip is over, so an error answer, an
// answer that does not decode and one of the wrong kind are terminal: the
// request reached the server, and retrying would repeat it.
func (c *Client) roundTrip(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	wreq := req.Body.(*request)
	body, err := wreq.appendTo(nil)
	if err != nil {
		return nil, fmt.Errorf("trajstore: encode %s request: %w", req.Method, err)
	}
	var raw []byte
	err = c.cc.Call(ctx, func(conn net.Conn) (err error) {
		if err = protocol.WriteFrameBody(conn, body, maxWireBytes); err == nil {
			raw, err = protocol.ReadFrameBody(conn, maxWireBytes)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	a, err := decodeReply(raw)
	switch {
	case err != nil:
		return nil, fmt.Errorf("trajstore: decode %s answer: %w", req.Method, err)
	case a.kind == answerError:
		return nil, a.err
	case a.kind != ops[wreq.op].answer:
		return nil, fmt.Errorf("trajstore: answer of kind 0x%02x does not answer %s", a.kind, req.Method)
	}
	return &rpc.Response{Body: &a}, nil
}

// AddVertexContext inserts a detection event remotely and returns its
// vertex ID, bounded by ctx: a one-record add_batch, whose record
// rejection is the call's error.
func (c *Client) AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error) {
	return oneRecord(c.AddBatchContext(ctx, []protocol.TrajWrite{protocol.VertexWrite(e)}))
}

// AddBatchContext applies a mixed batch of vertex/edge writes in one RPC
// and one server-side group commit, bounded by ctx. Returns the
// allocated vertex IDs and per-record errors, both positional with the
// input; a record's rejection is a ServerError that keeps its sentinel
// (errors.Is(err, ErrEdgeExists), ErrVertexNotFound). A non-nil error
// means the whole batch failed (transport fault or store-level refusal)
// and nothing in it should be assumed applied.
func (c *Client) AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opAddBatch}, batch: writes})
	if err != nil {
		return nil, nil, err
	}
	if len(a.ids) != len(writes) {
		return nil, nil, fmt.Errorf("trajstore: add_batch answered %d records for %d writes", len(a.ids), len(writes))
	}
	return a.ids, a.errs, nil
}

// VertexContext fetches a vertex by ID, bounded by ctx.
func (c *Client) VertexContext(ctx context.Context, id int64) (Vertex, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opGetVertex, vertexID: id}})
	return a.vertex, err
}

// FindByEventIDContext fetches a vertex by its detection-event ID,
// bounded by ctx.
func (c *Client) FindByEventIDContext(ctx context.Context, id protocol.EventID) (Vertex, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opFindByEvent, eventID: id}})
	return a.vertex, err
}

// OutEdgesContext fetches a vertex's outgoing edges, bounded by ctx.
func (c *Client) OutEdgesContext(ctx context.Context, id int64) ([]Edge, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opOutEdges, vertexID: id}})
	return a.edges, err
}

// StatsContext returns the remote vertex and edge counts, bounded by
// ctx.
func (c *Client) StatsContext(ctx context.Context) (vertices, edges int, err error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opStats}})
	return a.nVerts, a.nEdges, err
}

// ReconstructContext executes the full track reconstruction inside the
// server against a consistent snapshot and returns every candidate
// track through the sighting, ranked most-plausible first, in one round
// trip; no track is a nil slice. An answer too big for one frame fails
// with ErrAnswerTooLarge.
func (c *Client) ReconstructContext(ctx context.Context, eventID protocol.EventID, limits TraceLimits) ([]Track, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opReconstruct, eventID: eventID, limits: limits}})
	return a.tracks, err
}

// ReconstructVertexContext is ReconstructContext keyed by vertex ID.
func (c *Client) ReconstructVertexContext(ctx context.Context, vertexID int64, limits TraceLimits) ([]Track, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opReconstruct, vertexID: vertexID, limits: limits}})
	return a.tracks, err
}

// BestContext returns the server's top-ranked track through a
// sighting in one round trip. A sighting with no tracks surfaces as
// ErrNoTracks (via errors.Is), an unknown event as ErrVertexNotFound.
func (c *Client) BestContext(ctx context.Context, eventID protocol.EventID, limits TraceLimits) (Track, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opBest, eventID: eventID, limits: limits}})
	if err == nil && len(a.tracks) != 1 {
		err = fmt.Errorf("trajstore: best answered %d tracks", len(a.tracks))
	}
	if err != nil {
		return Track{}, err
	}
	return a.tracks[0], nil
}

// SightingsContext lists the ground-truth sightings of a vehicle in
// time order, answered server-side from the vehicle index over a
// snapshot; none is a nil slice. maxVertex is the highest vertex ID
// considered; <= 0 means the whole graph.
func (c *Client) SightingsContext(ctx context.Context, vehicleID string, maxVertex int64) ([]Hop, error) {
	a, err := c.do(ctx, &request{queryKey: queryKey{op: opSightings, vehicleID: vehicleID, maxVertex: maxVertex}})
	return a.hops, err
}

// Close closes the client connection at once, failing a call in flight,
// and is final: a later call fails with net.ErrClosed. Flush a
// BatchWriter over the client before closing it.
func (c *Client) Close() error { return c.cc.Close() }
