package trajstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
)

// Request ops for the trajectory store wire protocol.
const (
	opAddVertex    = "add_vertex"
	opAddVertexRec = "add_vertex_rec" // add_vertex with the event in rec
	opAddEdge      = "add_edge"
	opAddBatch     = "add_batch"
	opGetVertex    = "get_vertex"
	opFindByEvent  = "find_by_event"
	opStats        = "stats"
	opOutEdges     = "out_edges"
	// Server-side query ops: the full reconstruction runs inside the
	// server against a consistent snapshot, returning whole ranked
	// tracks in one round trip. This package's Client queries only
	// through these; the per-vertex ops above stay served for old
	// clients.
	opReconstruct = "reconstruct"
	opBest        = "best"
	opSightings   = "sightings"
)

// Error codes relayed in the response frame so clients can recover
// sentinel errors across the wire (errors.Is keeps working remotely).
const (
	codeNotFound = "not_found"
	codeNoTracks = "no_tracks"
	codeTooLarge = "too_large"
)

// ErrAnswerTooLarge is matched (errors.Is) by the error of a call whose
// answer would not fit in one frame (maxWireBytes). The server refuses
// such an answer with a too_large error on the same connection, so the
// call fails once, without a retry, and the connection stays usable.
var ErrAnswerTooLarge = errors.New("trajstore: answer exceeds the frame bound")

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
	switch e.Code {
	case codeNotFound:
		return ErrVertexNotFound
	case codeNoTracks:
		return ErrNoTracks
	case codeTooLarge:
		return ErrAnswerTooLarge
	}
	return nil
}

// request is one client -> server call.
type request struct {
	Op      string                   `json:"op"`
	Event   *protocol.DetectionEvent `json:"event,omitempty"`
	Rec     []byte                   `json:"rec,omitempty"` // protocol.AppendDetectionEvent bytes
	From    int64                    `json:"from,omitempty"`
	To      int64                    `json:"to,omitempty"`
	Weight  float64                  `json:"weight,omitempty"`
	ID      int64                    `json:"id,omitempty"`
	EventID protocol.EventID         `json:"eventId,omitempty"`
	Limits  *TraceLimits             `json:"limits,omitempty"`
	Batch   []protocol.TrajWrite     `json:"batch,omitempty"`
	// VehicleID and MaxVertex parameterize the sightings op.
	VehicleID string `json:"vehicleId,omitempty"`
	MaxVertex int64  `json:"maxVertex,omitempty"`
	// Bin asks for a best, reconstruct or sightings answer as a binary
	// answer (answer.go) instead of a JSON response. A server that
	// predates it ignores the field and answers in JSON.
	Bin bool `json:"bin,omitempty"`
	// Trace carries the caller's span context so the server can resume
	// the caller's trace (batch records carry their own per-record
	// Trace fields instead). It is stamped by the rpc trace-inject
	// middleware and read back by trace-extract on the server.
	Trace *protocol.TraceContext `json:"trace,omitempty"`
}

// TraceContext and SetTraceContext implement rpc.TraceCarrier, so the
// shared trace middleware moves span contexts through request frames.
func (r *request) TraceContext() *protocol.TraceContext      { return r.Trace }
func (r *request) SetTraceContext(tc *protocol.TraceContext) { r.Trace = tc }

// response is one server -> client reply.
type response struct {
	OK       bool    `json:"ok"`
	Err      string  `json:"err,omitempty"`
	Code     string  `json:"code,omitempty"` // structured error code ("" for old servers)
	VertexID int64   `json:"vertexId,omitempty"`
	Vertex   *Vertex `json:"vertex,omitempty"`
	Vertices int     `json:"vertices,omitempty"`
	Edges    int     `json:"edges,omitempty"`
	EdgeList []Edge  `json:"edgeList,omitempty"`
	// Tracks, Track, and Hops carry server-side query results.
	Tracks []Track `json:"tracks,omitempty"`
	Track  *Track  `json:"track,omitempty"`
	Hops   []Hop   `json:"hops,omitempty"`
	// VertexIDs and Errs parallel an add_batch request's records:
	// allocated vertex IDs (0 for edges and rejected records) and
	// per-record rejections ("" for successes).
	VertexIDs []int64  `json:"vertexIds,omitempty"`
	Errs      []string `json:"errs,omitempty"`
}

// maxWireBytes bounds one request/response frame.
const maxWireBytes = 8 << 20

// wireCodec adapts the store's length-prefixed frames to the generic rpc
// server. Requests and errors are JSON, and so is every answer to a
// request without bin, byte for byte as before, so old clients
// interoperate. Handler errors are encoded into the response frame's err
// field.
type wireCodec struct{}

func (wireCodec) ReadRequest(r io.Reader) (*rpc.Request, error) {
	var req request
	if err := protocol.ReadFrame(r, &req, maxWireBytes); err != nil {
		return nil, err
	}
	return &rpc.Request{Method: req.Op, Body: &req}, nil
}

// WriteResponse writes a successful query answer the request asked to
// get in binary as the frame's body, and everything else as a JSON
// response. An answer above maxWireBytes is refused before any of it is
// written, so a too_large error takes its place on the same connection.
func (wireCodec) WriteResponse(w io.Writer, req *rpc.Request, resp *rpc.Response, herr error) error {
	var r response
	if herr != nil {
		r.Err = herr.Error()
	} else {
		r = *resp.Body.(*response)
	}
	var err error
	if body, ok := binaryAnswer(req.Body.(*request), &r); ok {
		err = protocol.WriteFrameBody(w, body, maxWireBytes)
	} else {
		err = protocol.WriteFrame(w, r, maxWireBytes)
	}
	if errors.Is(err, protocol.ErrFrameTooLarge) {
		r = response{Code: codeTooLarge, Err: fmt.Sprintf("%s answer refused: %v, bound %d bytes", req.Method, err, maxWireBytes)}
		return protocol.WriteFrame(w, r, maxWireBytes)
	}
	return err
}

// ServerOptions tunes a trajectory store server beyond the defaults.
type ServerOptions struct {
	// WriteTimeout bounds each response write (0 = none).
	WriteTimeout time.Duration
	// Interceptors wrap request handling, after trace extraction.
	Interceptors []rpc.Interceptor
	// Logger, when non-nil, logs each call (debug on success, warn on
	// error) with its trace.
	Logger *obs.Logger
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
}

// Serve starts a server for the store on addr (use "127.0.0.1:0" for an
// ephemeral port).
func Serve(store *Store, addr string) (*Server, error) {
	return ServeWith(store, addr, ServerOptions{})
}

// ServeWith starts a server with explicit middleware/timeout tuning.
func ServeWith(store *Store, addr string, opts ServerOptions) (*Server, error) {
	if store == nil {
		return nil, errors.New("trajstore: nil store")
	}
	s := &Server{store: store, engine: newQueryEngine(store, opts.QueryCache, opts.Registry)}
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

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.rs.Addr() }

// dispatch is the base handler under the server chain.
func (s *Server) dispatch(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	resp := s.handle(ctx, *req.Body.(*request))
	return &rpc.Response{Body: &resp}, nil
}

func (s *Server) handle(ctx context.Context, req request) response {
	fail := func(err error) response {
		r := response{Err: err.Error()}
		switch {
		case errors.Is(err, ErrVertexNotFound):
			r.Code = codeNotFound
		case errors.Is(err, ErrNoTracks):
			r.Code = codeNoTracks
		}
		return r
	}
	switch req.Op {
	case opAddVertexRec:
		e, err := protocol.DecodeDetectionEvent(req.Rec)
		if err != nil {
			return fail(err)
		}
		req.Event = &e
		fallthrough
	case opAddVertex:
		if req.Event == nil {
			return fail(errors.New("add_vertex requires an event"))
		}
		id, err := s.store.AddVertex(*req.Event)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, VertexID: id}
	case opAddEdge:
		// The caller's span context, when present on the frame, was
		// installed in ctx by the trace-extract middleware; record the
		// WAL commit inside that trace.
		var err error
		if sc, ok := obs.SpanFromContext(ctx); ok {
			err = s.store.AddEdgeTraced(req.From, req.To, req.Weight, protocol.TraceContext(sc))
		} else {
			err = s.store.AddEdge(req.From, req.To, req.Weight)
		}
		if err != nil {
			return fail(err)
		}
		return response{OK: true}
	case opAddBatch:
		if len(req.Batch) == 0 {
			return fail(errors.New("add_batch requires at least one record"))
		}
		ids, errs, err := s.store.ApplyBatch(req.Batch)
		if err != nil {
			return fail(err)
		}
		strs := make([]string, len(errs))
		for i, e := range errs {
			if e != nil {
				strs[i] = e.Error()
			}
		}
		return response{OK: true, VertexIDs: ids, Errs: strs}
	case opGetVertex:
		v, err := s.store.Vertex(req.ID)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Vertex: &v}
	case opFindByEvent:
		v, err := s.store.FindByEventID(req.EventID)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Vertex: &v}
	case opOutEdges:
		if _, err := s.store.Vertex(req.ID); err != nil {
			return fail(err)
		}
		return response{OK: true, EdgeList: s.store.OutEdges(req.ID)}
	case opStats:
		snap := s.store.Snapshot()
		return response{OK: true, Vertices: snap.NumVertices(), Edges: snap.NumEdges()}
	case opReconstruct:
		limits := DefaultTraceLimits()
		if req.Limits != nil {
			limits = *req.Limits
		}
		key := queryKey{op: opReconstruct, eventID: req.EventID, vertexID: req.ID, limits: limits}
		val, err := s.engine.do(ctx, key, func(snap *Snapshot) (any, error) {
			if req.EventID != "" {
				return FindTracks(snap, req.EventID, limits)
			}
			return ReconstructTracks(snap, req.ID, limits)
		})
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Tracks: val.([]Track)}
	case opBest:
		limits := DefaultTraceLimits()
		if req.Limits != nil {
			limits = *req.Limits
		}
		key := queryKey{op: opBest, eventID: req.EventID, limits: limits}
		val, err := s.engine.do(ctx, key, func(snap *Snapshot) (any, error) {
			return BestTrack(snap, req.EventID, limits)
		})
		if err != nil {
			return fail(err)
		}
		track := val.(Track)
		return response{OK: true, Track: &track}
	case opSightings:
		if req.VehicleID == "" {
			return fail(errors.New("sightings requires a vehicle id"))
		}
		// MaxVertex <= 0 means "the whole graph", resolved against the
		// same snapshot the query runs on (0 stays in the cache key; the
		// version tag invalidates the entry when the graph grows).
		key := queryKey{op: opSightings, vehicleID: req.VehicleID, maxVertex: req.MaxVertex}
		val, err := s.engine.do(ctx, key, func(snap *Snapshot) (any, error) {
			return snap.Sightings(req.VehicleID, req.MaxVertex), nil
		})
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Hops: val.([]Hop)}
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
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
	cfg  ClientConfig
	// legacyVertex is set once the server answered add_vertex_rec as an
	// unknown op; vertices then travel as JSON add_vertex.
	legacyVertex atomic.Bool
}

// DialContext connects to a trajectory store server, bounding the
// initial dial by ctx (or cfg.CallTimeout when ctx has no deadline).
// The eager dial is a single attempt so an unreachable server fails
// fast at construction.
func DialContext(ctx context.Context, addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg: cfg,
		cc: rpc.NewClientConn(addr, rpc.BackoffConfig{
			Base: cfg.DialBackoffBase,
			Max:  cfg.DialBackoffMax,
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

func (c *Client) do(ctx context.Context, wreq request) (response, error) {
	req := &rpc.Request{Method: wreq.Op, Addr: c.cc.Addr(), Body: &wreq}
	resp, err := c.call(ctx, req)
	if err != nil {
		return response{}, err
	}
	return *resp.Body.(*response), nil
}

// roundTrip is the base handler under the middleware chain: one framed
// request/response over the managed connection. A server-side rejection
// is terminal (the request reached the server; retrying would repeat
// it), while transport failures on a cached connection surface as
// retryable for the retry stage above.
func (c *Client) roundTrip(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	wreq := req.Body.(*request)
	var wresp response
	err := c.cc.Call(ctx, func(conn net.Conn) error {
		if err := protocol.WriteFrame(conn, wreq, maxWireBytes); err != nil {
			return err
		}
		body, err := protocol.ReadFrameBody(conn, maxWireBytes)
		if err != nil {
			return err
		}
		return wresp.decode(body, wreq)
	})
	if err != nil {
		return nil, err
	}
	if !wresp.OK {
		return nil, &ServerError{Code: wresp.Code, Msg: wresp.Err}
	}
	return &rpc.Response{Body: &wresp}, nil
}

// AddVertexContext inserts a detection event remotely and returns its
// vertex ID, bounded by ctx. The event travels as its log record
// (add_vertex_rec). A server that answers that op as unknown gets this
// call and every later one as a JSON add_vertex, as does an event the
// record cannot encode, for the server to refuse.
func (c *Client) AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error) {
	if !c.legacyVertex.Load() {
		if rec, err := protocol.AppendDetectionEvent(nil, &e); err == nil {
			resp, err := c.do(ctx, request{Op: opAddVertexRec, Rec: rec})
			var se *ServerError
			if !errors.As(err, &se) || se.Code != "" || !strings.HasPrefix(se.Msg, "unknown op") {
				return resp.VertexID, err
			}
			c.legacyVertex.Store(true)
		}
	}
	resp, err := c.do(ctx, request{Op: opAddVertex, Event: &e})
	return resp.VertexID, err
}

// AddEdgeContext inserts an edge remotely, bounded by ctx.
func (c *Client) AddEdgeContext(ctx context.Context, from, to int64, weight float64) error {
	_, err := c.do(ctx, request{Op: opAddEdge, From: from, To: to, Weight: weight})
	return err
}

// AddEdgeTracedContext inserts an edge remotely with the writer's trace
// context attached, so the server records its WAL commit inside the
// caller's trace. The context survives the client's redial/retry path:
// it is part of the request frame, not the connection. (The explicit
// trace wins over any ambient span — the inject middleware only fills
// empty carriers.)
func (c *Client) AddEdgeTracedContext(ctx context.Context, from, to int64, weight float64, tc protocol.TraceContext) error {
	_, err := c.do(ctx, request{Op: opAddEdge, From: from, To: to, Weight: weight, Trace: &tc})
	return err
}

// AddBatchContext applies a mixed batch of vertex/edge writes in one RPC
// and one server-side group commit, bounded by ctx. Returns the
// allocated vertex IDs and per-record errors, both positional with the
// input; a non-nil error means the whole batch failed (transport fault
// or store-level refusal) and nothing in it should be assumed applied.
func (c *Client) AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error) {
	resp, err := c.do(ctx, request{Op: opAddBatch, Batch: writes})
	if err != nil {
		return nil, nil, err
	}
	errs := make([]error, len(writes))
	for i, s := range resp.Errs {
		if i >= len(errs) {
			break
		}
		if s != "" {
			errs[i] = fmt.Errorf("trajstore: server: %s", s)
		}
	}
	ids := resp.VertexIDs
	if len(ids) < len(writes) {
		padded := make([]int64, len(writes))
		copy(padded, ids)
		ids = padded
	}
	return ids, errs, nil
}

// VertexContext fetches a vertex by ID, bounded by ctx.
func (c *Client) VertexContext(ctx context.Context, id int64) (Vertex, error) {
	resp, err := c.do(ctx, request{Op: opGetVertex, ID: id})
	return resp.vertex(err)
}

// FindByEventIDContext fetches a vertex by its detection-event ID,
// bounded by ctx.
func (c *Client) FindByEventIDContext(ctx context.Context, id protocol.EventID) (Vertex, error) {
	resp, err := c.do(ctx, request{Op: opFindByEvent, EventID: id})
	return resp.vertex(err)
}

// vertex returns the vertex a successful reply carries.
func (r response) vertex(err error) (Vertex, error) {
	if err == nil && r.Vertex == nil {
		err = errors.New("trajstore: server returned no vertex")
	}
	if err != nil {
		return Vertex{}, err
	}
	return *r.Vertex, nil
}

// OutEdgesContext fetches a vertex's outgoing edges, bounded by ctx.
func (c *Client) OutEdgesContext(ctx context.Context, id int64) ([]Edge, error) {
	resp, err := c.do(ctx, request{Op: opOutEdges, ID: id})
	if err != nil {
		return nil, err
	}
	return resp.EdgeList, nil
}

// StatsContext returns the remote vertex and edge counts, bounded by
// ctx.
func (c *Client) StatsContext(ctx context.Context) (vertices, edges int, err error) {
	resp, err := c.do(ctx, request{Op: opStats})
	if err != nil {
		return 0, 0, err
	}
	return resp.Vertices, resp.Edges, nil
}

// ReconstructContext executes the full track reconstruction inside the
// server against a consistent snapshot and returns every candidate
// track through the sighting, ranked most-plausible first, in one round
// trip; no track is a nil slice. Requires a server speaking the
// reconstruct op; an older server answers with an unknown-op error.
//
// Like BestContext and SightingsContext, it asks for the answer as a
// binary record (the request's bin field) and also reads the JSON answer
// a server that predates binary answers sends. An answer too big for one
// frame fails with ErrAnswerTooLarge.
func (c *Client) ReconstructContext(ctx context.Context, eventID protocol.EventID, limits TraceLimits) ([]Track, error) {
	resp, err := c.do(ctx, request{Op: opReconstruct, EventID: eventID, Limits: &limits, Bin: true})
	if err != nil {
		return nil, err
	}
	return resp.Tracks, nil
}

// ReconstructVertexContext is ReconstructContext keyed by vertex ID.
func (c *Client) ReconstructVertexContext(ctx context.Context, vertexID int64, limits TraceLimits) ([]Track, error) {
	resp, err := c.do(ctx, request{Op: opReconstruct, ID: vertexID, Limits: &limits, Bin: true})
	if err != nil {
		return nil, err
	}
	return resp.Tracks, nil
}

// BestContext returns the server's top-ranked track through a
// sighting in one round trip, as a binary record when the server sends
// one. A sighting with no tracks surfaces as ErrNoTracks (via
// errors.Is), an unknown event as ErrVertexNotFound.
func (c *Client) BestContext(ctx context.Context, eventID protocol.EventID, limits TraceLimits) (Track, error) {
	resp, err := c.do(ctx, request{Op: opBest, EventID: eventID, Limits: &limits, Bin: true})
	if err != nil {
		return Track{}, err
	}
	if resp.Track == nil {
		return Track{}, errors.New("trajstore: server returned no track")
	}
	return *resp.Track, nil
}

// SightingsContext lists the ground-truth sightings of a vehicle in
// time order, answered server-side from the vehicle index over a
// snapshot, as a binary record when the server sends one; none is a nil
// slice. maxVertex is the highest vertex ID considered; <= 0 means the
// whole graph.
func (c *Client) SightingsContext(ctx context.Context, vehicleID string, maxVertex int64) ([]Hop, error) {
	resp, err := c.do(ctx, request{Op: opSightings, VehicleID: vehicleID, MaxVertex: maxVertex, Bin: true})
	if err != nil {
		return nil, err
	}
	return resp.Hops, nil
}

// Close closes the client connection.
func (c *Client) Close() error { return c.cc.Close() }
