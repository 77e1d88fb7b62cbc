// Package camnode implements the per-camera node of Coral-Pie: the
// continuous processing that runs on every frame (paper Section 4.1) —
// detection, post-processing, SORT tracking, feature extraction, the
// inter-camera communication protocol, re-identification against the
// candidate pool, and the storage clients for the trajectory graph and
// raw frames.
//
// The node's core is the synchronous ProcessFrameContext path, driven
// either by the discrete-event simulation harness (deterministic
// experiments) or by the concurrent live pipeline in live.go (real
// deployments over TCP).
package camnode

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/topology"
	"repro/internal/tracker"
	"repro/internal/transport"
	"repro/internal/vision"
)

// TrajStore is the trajectory storage client. The buffered
// *trajstore.BatchWriter (over a remote *trajstore.Client) queues each
// re-identification edge for the next add_batch; the simulation's local
// *trajstore.Store writes it before QueueEdgeTraced returns. Either way
// done receives the edge's final error, which feeds the node's
// send_errors / edge accounting, and a valid, sampled tc lets the store
// record its WAL commit under the camera's commit span. FlushContext
// calls Flush so end-of-stream leaves no edge buffered.
type TrajStore interface {
	AddVertex(e protocol.DetectionEvent) (int64, error)
	QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error))
	Flush(ctx context.Context) error
}

// FrameSink is the frame storage client interface (framestore.MultiClient,
// over one or more replicas). The node passes the ingest context, so frame
// sends carry the frame's trace and honor its deadline.
type FrameSink interface {
	StoreFrameContext(ctx context.Context, rec protocol.FrameRecord) error
}

// Hooks are optional observation points used by the evaluation harness.
type Hooks struct {
	// OnEvent fires when the node generates a detection event, after
	// re-identification. matched reports whether re-id found the vehicle
	// in the candidate pool; dist is the Bhattacharyya distance when it
	// did.
	OnEvent func(e protocol.DetectionEvent, matched bool, matchedUpstream protocol.EventID, dist float64)
	// OnInformReceived fires when an informing notification lands in the
	// candidate pool.
	OnInformReceived func(e protocol.DetectionEvent, at time.Time)
	// OnFirstSeen fires the first time a ground-truth vehicle is detected
	// by this camera (simulation only; keyed by TruthID).
	OnFirstSeen func(truthID string, at time.Time)
}

// Config assembles a camera node.
type Config struct {
	CameraID   string
	Position   geo.Point
	HeadingDeg float64
	// TopologyServerAddr is the transport address of the topology server.
	TopologyServerAddr string

	Detector    vision.Detector
	PostProcess vision.PostProcessConfig
	Tracker     tracker.Config
	Matcher     reid.MatcherConfig
	Pool        reid.PoolConfig

	TrajStore  TrajStore
	FrameStore FrameSink // optional
	// StoreFrames controls whether raw frames are shipped to FrameStore.
	StoreFrames bool

	Clock clock.Clock
	Hooks Hooks

	// Registry receives the node's telemetry (coralpie_camnode_*,
	// labeled camera=<CameraID>), which is also what Stats reads, so
	// nodes sharing a registry need distinct camera IDs. Nil gives the
	// node a private registry.
	Registry *obs.Registry
	// Tracer, when non-nil, records vehicle-handoff spans: a span opens
	// when an informing notification lands in this node's candidate
	// pool and closes when the vehicle is re-identified here, the event
	// is retired by a peer's confirmation, or the pool expires it.
	Tracer *obs.Tracer
}

// maxPendingInforms bounds the informed-MDCS table the confirming stage
// reads: an event whose confirm has not come back after this many newer
// events are informed is forgotten.
const maxPendingInforms = 1024

// nodeMetrics are the node's counters, pre-resolved per node; Stats
// reads them.
type nodeMetrics struct {
	frames           *obs.Counter
	detectionsRaw    *obs.Counter
	detectionsKept   *obs.Counter
	events           *obs.Counter
	informsSent      *obs.Counter
	informsReceived  *obs.Counter
	confirmsSent     *obs.Counter
	confirmsReceived *obs.Counter
	retiresSent      *obs.Counter
	retiresReceived  *obs.Counter
	reidMatches      *obs.Counter
	reidMisses       *obs.Counter
	vertices         *obs.Counter
	edges            *obs.Counter
	sendErrors       *obs.Counter
	e2eCommit        *obs.Histogram
}

func newNodeMetrics(reg *obs.Registry, cameraID string) nodeMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := []string{"camera", cameraID}
	c := func(name, help string) *obs.Counter { return reg.Counter(name, help, l...) }
	m := nodeMetrics{
		frames:           c("coralpie_camnode_frames_total", "frames processed"),
		detectionsRaw:    c("coralpie_camnode_detections_raw_total", "detector boxes before post-processing"),
		detectionsKept:   c("coralpie_camnode_detections_kept_total", "detections surviving post-processing"),
		events:           c("coralpie_camnode_events_total", "detection events generated"),
		informsSent:      c("coralpie_camnode_informs_sent_total", "informing notifications sent to the MDCS"),
		informsReceived:  c("coralpie_camnode_informs_received_total", "informing notifications added to the candidate pool"),
		confirmsSent:     c("coralpie_camnode_confirms_sent_total", "confirmations sent to predecessor cameras"),
		confirmsReceived: c("coralpie_camnode_confirms_received_total", "confirmations received from downstream cameras"),
		retiresSent:      c("coralpie_camnode_retires_sent_total", "retire notifications relayed to the MDCS"),
		retiresReceived:  c("coralpie_camnode_retires_received_total", "retire notifications received"),
		reidMatches:      c("coralpie_camnode_reid_matches_total", "events re-identified against the candidate pool"),
		reidMisses:       c("coralpie_camnode_reid_misses_total", "events with no candidate-pool match"),
		vertices:         c("coralpie_camnode_vertices_total", "trajectory-graph vertices inserted"),
		edges:            c("coralpie_camnode_edges_total", "trajectory-graph edges inserted"),
		sendErrors:       c("coralpie_camnode_send_errors_total", "failed sends and frame-store writes"),
		// ×2 steps from 250µs to ~1s: a commit is a few RPC round trips, and
		// the default ×4 buckets would put its p50 and p95 in one bucket.
		e2eCommit: reg.Histogram("coralpie_e2e_track_commit_seconds",
			"frame capture to trajectory edge-commit acknowledgement",
			obs.ExpBuckets(250e-6, 2, 13), l...),
	}
	// The e2e commit latency is the paper's headline number, so it
	// carries trace exemplars: a bad bucket on /metrics links straight to
	// the handoff trace that produced it via /debug/trace.
	m.e2eCommit.EnableExemplars()
	return m
}

// Stats are the node's lifetime counters, read from its
// coralpie_camnode_* telemetry.
type Stats struct {
	FramesProcessed  int64
	DetectionsRaw    int64
	DetectionsKept   int64
	EventsGenerated  int64
	InformsSent      int64
	InformsReceived  int64
	ConfirmsSent     int64
	ConfirmsReceived int64
	RetiresSent      int64
	RetiresReceived  int64
	ReidMatches      int64
	VerticesInserted int64
	EdgesInserted    int64
	SendErrors       int64
}

// Node is one camera's processing stack. The candidate pool holds what
// the node keeps about each upstream event (reply address, handoff
// span); the pool and the counters synchronize themselves, and mu
// guards the rest.
type Node struct {
	cfg     Config
	ep      transport.Endpoint
	top     *topology.Client
	m       nodeMetrics
	pool    *reid.Pool
	matcher *reid.Matcher

	mu      sync.Mutex
	tracker *tracker.Tracker
	accum   map[int64]*feature.Accumulator
	// pending remembers where each of this node's events was informed,
	// so a confirm can retire it at every other recipient; bounded FIFO.
	pending map[protocol.EventID][]protocol.CameraRef
	pendOrd []protocol.EventID
	seen    map[string]bool // ground-truth vehicles already reported to OnFirstSeen
}

// New wires a node onto a transport endpoint. The endpoint's handler is
// installed by this call; the topology client shares the same endpoint.
func New(cfg Config, ep transport.Endpoint) (*Node, error) {
	if cfg.CameraID == "" {
		return nil, errors.New("camnode: camera id required")
	}
	if cfg.Detector == nil {
		return nil, errors.New("camnode: detector required")
	}
	if cfg.TrajStore == nil {
		return nil, errors.New("camnode: trajectory store required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("camnode: clock required")
	}
	if ep == nil {
		return nil, errors.New("camnode: endpoint required")
	}
	if cfg.StoreFrames && cfg.FrameStore == nil {
		return nil, errors.New("camnode: StoreFrames set without a FrameStore")
	}
	tk, err := tracker.New(cfg.Tracker)
	if err != nil {
		return nil, err
	}
	// End the handoff span of an entry the pool expires unmatched;
	// without this, informs that never match leak open spans forever.
	// The closure captures the tracer (not the Node, which does not exist
	// yet) and runs under the pool lock.
	poolCfg := cfg.Pool
	tracer, prev := cfg.Tracer, cfg.Pool.OnEvict
	poolCfg.OnEvict = func(e reid.Entry) {
		if prev != nil {
			prev(e)
		}
		if !e.Matched {
			tracer.EndSpan(obs.SpanContext(e.Span), "outcome", "expired")
		}
	}
	pool := reid.NewPool(poolCfg)
	matcher, err := reid.NewMatcher(cfg.Matcher)
	if err != nil {
		return nil, err
	}
	top, err := topology.NewClient(topology.ClientConfig{
		CameraID:   cfg.CameraID,
		ServerAddr: cfg.TopologyServerAddr,
		Position:   cfg.Position,
		HeadingDeg: cfg.HeadingDeg,
	}, ep, cfg.Clock)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		ep:      ep,
		top:     top,
		m:       newNodeMetrics(cfg.Registry, cfg.CameraID),
		pool:    pool,
		matcher: matcher,
		tracker: tk,
		accum:   make(map[int64]*feature.Accumulator),
		pending: make(map[protocol.EventID][]protocol.CameraRef),
		seen:    make(map[string]bool),
	}
	ep.SetHandler(n.HandleEnvelope)
	return n, nil
}

// CameraID returns the node's identity.
func (n *Node) CameraID() string { return n.cfg.CameraID }

// Topology returns the node's topology client (heartbeats, MDCS table).
func (n *Node) Topology() *topology.Client { return n.top }

// Pool returns the node's candidate pool (read-mostly; used by the
// evaluation harness).
func (n *Node) Pool() *reid.Pool { return n.pool }

// SetHooks replaces the node's observation hooks. Call before processing
// begins; hooks are read without the node lock.
func (n *Node) SetHooks(h Hooks) {
	n.cfg.Hooks = h
}

// Stats returns the node's counters.
func (n *Node) Stats() Stats {
	m := &n.m
	return Stats{
		FramesProcessed:  m.frames.Value(),
		DetectionsRaw:    m.detectionsRaw.Value(),
		DetectionsKept:   m.detectionsKept.Value(),
		EventsGenerated:  m.events.Value(),
		InformsSent:      m.informsSent.Value(),
		InformsReceived:  m.informsReceived.Value(),
		ConfirmsSent:     m.confirmsSent.Value(),
		ConfirmsReceived: m.confirmsReceived.Value(),
		RetiresSent:      m.retiresSent.Value(),
		RetiresReceived:  m.retiresReceived.Value(),
		ReidMatches:      m.reidMatches.Value(),
		VerticesInserted: m.vertices.Value(),
		EdgesInserted:    m.edges.Value(),
		SendErrors:       m.sendErrors.Value(),
	}
}

// HandleEnvelope dispatches incoming transport messages. Installed as the
// endpoint handler by New; exported for harnesses that route manually.
// ctx is the endpoint's lifecycle context: replies triggered by this
// message (confirm/retire fan-out) are bounded by it.
func (n *Node) HandleEnvelope(ctx context.Context, env protocol.Envelope) {
	msg, err := protocol.Open(env)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case protocol.Inform:
		n.handleInform(ctx, m)
	case protocol.Confirm:
		n.handleConfirm(ctx, m)
	case protocol.Retire:
		n.handleRetire(m)
	case protocol.TopologyUpdate:
		n.top.ApplyUpdate(m)
	}
}

func (n *Node) handleInform(ctx context.Context, m protocol.Inform) {
	now := n.cfg.Clock.Now()
	n.m.informsReceived.Inc()
	// Join the informing camera's trace when its span context rode in on
	// the envelope; without one the handoff span is standalone.
	parent, _ := obs.SpanFromContext(ctx)
	span := n.cfg.Tracer.Start(parent, string(m.Event.ID), "handoff:"+n.cfg.CameraID)
	if !n.pool.Add(reid.Entry{Event: m.Event, ReceivedAt: now, ReplyAddr: m.FromAddr, Span: protocol.TraceContext(span)}) {
		// A redelivery: the first delivery's span stays the handoff span.
		n.cfg.Tracer.EndSpan(span, "outcome", "redelivered")
	}
	if n.cfg.Hooks.OnInformReceived != nil {
		n.cfg.Hooks.OnInformReceived(m.Event, now)
	}
}

// handleConfirm runs on the predecessor camera: one of its downstream
// cameras re-identified the vehicle, so every other informed camera can
// retire the event.
func (n *Node) handleConfirm(ctx context.Context, m protocol.Confirm) {
	n.m.confirmsReceived.Inc()
	n.mu.Lock()
	sentTo, ok := n.pending[m.EventID]
	delete(n.pending, m.EventID)
	n.mu.Unlock()
	if !ok {
		return
	}
	retire := protocol.Retire{EventID: m.EventID, ByCameraID: m.ByCameraID}
	for _, ref := range sentTo {
		if ref.ID == m.ByCameraID || ref.Addr == "" {
			continue
		}
		n.send(ctx, ref.Addr, retire, n.m.retiresSent)
	}
}

func (n *Node) handleRetire(m protocol.Retire) {
	n.m.retiresReceived.Inc()
	if e, ok := n.pool.MarkMatched(m.EventID); ok {
		n.cfg.Tracer.EndSpan(obs.SpanContext(e.Span), "outcome", "retired", "by", m.ByCameraID)
	}
}

// send seals and sends a message, counting errors instead of failing the
// pipeline (unreachable peers are repaired by topology management). The
// node lock is NOT held across Send: the in-process bus delivers
// synchronously and the confirming protocol can chain back into this
// node's handlers.
func (n *Node) send(ctx context.Context, addr string, msg any, sent *obs.Counter) {
	env, err := protocol.Seal(msg)
	if err != nil {
		return
	}
	if err := n.ep.Send(ctx, addr, env); err != nil {
		n.m.sendErrors.Inc()
		return
	}
	sent.Inc()
}

// ProcessFrameContext runs the full continuous-processing path on one
// frame: detection, the three-step post-processing filter, SORT tracking
// with per-track signature accumulation, event generation for departed
// vehicles, re-identification, the communication protocol, and storage.
// Sends triggered by the frame are bounded by ctx.
func (n *Node) ProcessFrameContext(ctx context.Context, f *vision.Frame) error {
	var ft frameTiming
	if f != nil {
		ft.capture = f.Time
	}
	ft.detectStart = n.cfg.Clock.Now()
	kept, raw, err := n.detect(f)
	if err != nil {
		return err
	}
	ft.detectEnd = n.cfg.Clock.Now()
	return n.ingest(ctx, f, kept, raw, ft)
}

// frameTiming carries one frame's pipeline timestamps through to
// emitEvent, where they become the capture/detect/track spans of the
// event's trace and the start point of the end-to-end commit histogram.
// Zero fields (e.g. on the FlushContext path, which has no triggering
// frame) fall back to the event time.
type frameTiming struct {
	capture     time.Time
	detectStart time.Time
	detectEnd   time.Time
}

// detect runs the RPi-1 half of the pipeline: inference plus the
// three-step post-processing filter. It has no node state, so the live
// pipeline runs it concurrently with ingest.
func (n *Node) detect(f *vision.Frame) (kept []vision.Detection, rawCount int, err error) {
	if f == nil || f.Image == nil {
		return nil, 0, errors.New("camnode: nil frame")
	}
	raw, err := n.cfg.Detector.Detect(f)
	if err != nil {
		return nil, 0, fmt.Errorf("camnode: detect: %w", err)
	}
	return vision.PostProcess(raw, n.cfg.PostProcess), len(raw), nil
}

// ingest runs the RPi-2 half: tracking, feature accumulation, event
// generation, re-identification, communication, and storage.
func (n *Node) ingest(ctx context.Context, f *vision.Frame, kept []vision.Detection, rawCount int, ft frameTiming) error {
	n.m.frames.Inc()
	n.m.detectionsRaw.Add(int64(rawCount))
	n.m.detectionsKept.Add(int64(len(kept)))
	n.mu.Lock()
	res, err := n.tracker.Update(f.Seq, kept)
	if err != nil {
		n.mu.Unlock()
		return fmt.Errorf("camnode: track: %w", err)
	}

	// Accumulate per-track signatures and frame annotations.
	annotations := make([]protocol.BoxAnnotation, 0, len(res.Assignments))
	var firstSeen []string
	for _, a := range res.Assignments {
		det := kept[a.DetIndex]
		acc := n.accum[a.TrackID]
		if acc == nil {
			acc = feature.NewAccumulator()
			n.accum[a.TrackID] = acc
		}
		if err := acc.Add(f.Image, det.Box); err != nil {
			n.mu.Unlock()
			return fmt.Errorf("camnode: feature accumulate: %w", err)
		}
		annotations = append(annotations, protocol.BoxAnnotation{
			TrackID:    a.TrackID,
			X:          det.Box.X,
			Y:          det.Box.Y,
			W:          det.Box.W,
			H:          det.Box.H,
			Label:      det.Label.String(),
			Confidence: det.Confidence,
		})
		// First sightings are remembered only for the hook: without
		// one, seen would grow with every vehicle the camera ever sees.
		if det.TruthID != "" && n.cfg.Hooks.OnFirstSeen != nil && !n.seen[det.TruthID] {
			n.seen[det.TruthID] = true
			firstSeen = append(firstSeen, det.TruthID)
		}
	}
	departed := n.confirmDepartedLocked(res.Departed)
	n.mu.Unlock()

	for _, id := range firstSeen {
		n.cfg.Hooks.OnFirstSeen(id, f.Time)
	}

	for _, tr := range departed {
		if err := n.emitEvent(ctx, tr, ft); err != nil {
			return err
		}
	}

	if n.cfg.StoreFrames {
		rec := protocol.FrameRecord{
			CameraID:    n.cfg.CameraID,
			Seq:         f.Seq,
			Timestamp:   f.Time,
			Width:       f.Image.Width,
			Height:      f.Image.Height,
			Pixels:      f.Image.Pix,
			Annotations: annotations,
		}
		if err := n.cfg.FrameStore.StoreFrameContext(ctx, rec); err != nil {
			// Frame storage is off the critical path; count and continue.
			n.m.sendErrors.Inc()
		}
	}
	return nil
}

// FlushContext retires all live tracks (end of stream) and emits their
// events, bounding the resulting sends by ctx.
func (n *Node) FlushContext(ctx context.Context) error {
	n.mu.Lock()
	departed := n.confirmDepartedLocked(n.tracker.Flush())
	n.mu.Unlock()
	for _, tr := range departed {
		if err := n.emitEvent(ctx, tr, frameTiming{}); err != nil {
			return err
		}
	}
	// End of stream: drain any edges still sitting in a batched write
	// buffer so their results (and accounting) land before we return.
	if err := n.cfg.TrajStore.Flush(ctx); err != nil {
		return fmt.Errorf("camnode: flush edge buffer: %w", err)
	}
	return nil
}

// confirmDepartedLocked returns the departed tracks that become events and
// frees the accumulators of the rest (flickers and false positives below
// MinHits), which emitEvent, seeing only confirmed tracks, never would.
// Caller holds n.mu.
func (n *Node) confirmDepartedLocked(departed []*tracker.Track) []*tracker.Track {
	confirmed := n.tracker.ConfirmedDeparted(departed)
	for _, tr := range departed {
		if !slices.Contains(confirmed, tr) {
			delete(n.accum, tr.ID)
		}
	}
	return confirmed
}

// emitEvent turns a departed track into a detection event: signature and
// direction extraction, trajectory-graph vertex insertion,
// re-identification, the confirming stage, and the informing stage.
func (n *Node) emitEvent(ctx context.Context, tr *tracker.Track, ft frameTiming) error {
	now := n.cfg.Clock.Now()

	n.mu.Lock()
	acc := n.accum[tr.ID]
	delete(n.accum, tr.ID)
	n.mu.Unlock()
	if acc == nil {
		return nil // track never got a signature (should not happen)
	}
	hist := acc.Histogram()

	boxes := make([]feature.Centroid, 0, len(tr.Tracklet))
	truthID := ""
	for _, obs := range tr.Tracklet {
		boxes = append(boxes, feature.Centroid{X: obs.Box.CenterX(), Y: obs.Box.CenterY()})
		if obs.TruthID != "" {
			truthID = obs.TruthID
		}
	}
	dir := feature.EstimateDirection(boxes, n.cfg.HeadingDeg)

	ev := protocol.DetectionEvent{
		ID:        protocol.NewEventID(n.cfg.CameraID, tr.ID),
		CameraID:  n.cfg.CameraID,
		Timestamp: now,
		Direction: dir,
		Histogram: hist,
		TrackID:   tr.ID,
		TruthID:   truthID,
	}

	// (a) Insert the vertex; its ID travels inside the event. A store
	// outage must not stall the camera: the event is dropped (it cannot
	// travel without a vertex ID), the error is counted, and processing
	// continues — the store client redials with backoff, so inserts
	// resume when the server returns.
	vid, err := n.cfg.TrajStore.AddVertex(ev)
	if err != nil {
		n.m.sendErrors.Inc()
		return nil
	}
	ev.VertexID = vid
	n.m.events.Inc()
	n.m.vertices.Inc()

	// Root this event's trace (trace ID = event ID) with the retroactive
	// capture → detect → track chain. The sampling decision taken here
	// follows the trace everywhere, including across the wire.
	capT, ds, de := ft.capture, ft.detectStart, ft.detectEnd
	if capT.IsZero() {
		capT = now
	}
	if ds.IsZero() {
		ds = now
	}
	if de.IsZero() {
		de = now
	}
	capSC := n.cfg.Tracer.RecordRoot(string(ev.ID), "capture", capT, ds, "camera", n.cfg.CameraID)
	detSC := n.cfg.Tracer.RecordChild(capSC, "detect", ds, de)
	trackSC := n.cfg.Tracer.RecordChild(detSC, "track", de, now)

	// (b) Re-identify against the candidate pool. A re-identification
	// counts whether or not the edge write lands.
	up, dist, matched := n.matcher.Match(hist, n.pool)
	if matched {
		n.m.reidMatches.Inc()
		// The commit and confirm spans hang off the handoff span,
		// stitching this camera's work into the upstream event's trace —
		// provided it was still open, not evicted by the tracer's bound.
		var handoffSC obs.SpanContext
		if n.cfg.Tracer.EndSpan(obs.SpanContext(up.Span), "outcome", "matched", "event", string(ev.ID)) {
			handoffSC = obs.SpanContext(up.Span)
		}
		n.insertEdge(up.Event.VertexID, vid, dist, handoffSC, ft.capture)
		n.pool.MarkMatched(up.Event.ID)
		// Confirming stage: notify the predecessor camera. The confirm
		// span's context rides on the envelope, so the predecessor's
		// retire fan-out joins the same trace.
		if up.ReplyAddr != "" {
			confirmSC := n.cfg.Tracer.Start(handoffSC, "", "confirm")
			n.send(withSpan(ctx, confirmSC), up.ReplyAddr, protocol.Confirm{
				EventID:        up.Event.ID,
				ByCameraID:     n.cfg.CameraID,
				MatchedEventID: ev.ID,
				Distance:       dist,
			}, n.m.confirmsSent)
			n.cfg.Tracer.EndSpan(confirmSC, "to", up.ReplyAddr)
		}
	} else {
		n.m.reidMisses.Inc()
	}

	// Informing stage: forward the event to the MDCS for its direction.
	// The inform span's context travels on each envelope, so receiving
	// cameras open their handoff spans inside this event's trace.
	if dir.Valid() {
		refs := n.top.Lookup(dir)
		if len(refs) > 0 {
			inform := protocol.Inform{Event: ev, FromAddr: n.ep.Addr()}
			informSC := n.cfg.Tracer.Start(trackSC, "", "inform")
			informCtx := withSpan(ctx, informSC)
			sent := make([]protocol.CameraRef, 0, len(refs))
			for _, ref := range refs {
				if ref.Addr == "" {
					continue
				}
				n.send(informCtx, ref.Addr, inform, n.m.informsSent)
				sent = append(sent, ref)
			}
			n.cfg.Tracer.EndSpan(informSC, "fanout", strconv.Itoa(len(sent)))
			if len(sent) > 0 {
				n.rememberInform(ev.ID, sent)
			}
		}
	}

	if n.cfg.Hooks.OnEvent != nil {
		n.cfg.Hooks.OnEvent(ev, matched, up.Event.ID, dist)
	}
	return nil
}

// withSpan attaches sc to ctx when sc can parent spans; otherwise ctx
// keeps whatever span it already carries.
func withSpan(ctx context.Context, sc obs.SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return obs.ContextWithSpan(ctx, sc)
}

// insertEdge hands a re-identification edge to the store, whose result
// flows through edgeCommitted so the Stats accounting stays exact. When a
// handoff span context is available, a "commit" child span brackets
// queue-to-ack and its context travels to the store, which records the
// WAL group commit underneath it.
func (n *Node) insertEdge(from, to int64, weight float64, parent obs.SpanContext, capture time.Time) {
	commitSC := n.cfg.Tracer.Start(parent, "", "commit")
	n.cfg.TrajStore.QueueEdgeTraced(from, to, weight, protocol.TraceContext(commitSC), func(err error) {
		n.edgeCommitted(commitSC, capture, err)
	})
}

// edgeCommitted records the outcome of one edge insert: it ends the
// commit span, observes the end-to-end capture→ack latency, and counts
// the edge — or, for a failed edge, a send error, since the trajectory
// graph is a remote peer like any other. It may run on the batch
// writer's flusher goroutine.
func (n *Node) edgeCommitted(commitSC obs.SpanContext, capture time.Time, err error) {
	if err != nil {
		n.cfg.Tracer.EndSpan(commitSC, "outcome", "error")
		n.m.sendErrors.Inc()
		return
	}
	n.cfg.Tracer.EndSpan(commitSC, "outcome", "ok")
	if !capture.IsZero() {
		// The commit span context doubles as the exemplar: when this
		// commit was sampled, the latency bucket it lands in links back to
		// the full capture→commit trace.
		n.m.e2eCommit.ObserveWithExemplar(n.cfg.Clock.Now().Sub(capture).Seconds(), commitSC)
	}
	n.m.edges.Inc()
}

// rememberInform records where an event was informed, bounded FIFO. A
// repeat for an already-pending event replaces the recipient set without
// re-appending to the FIFO, so a stale slot cannot evict the live entry.
func (n *Node) rememberInform(id protocol.EventID, sentTo []protocol.CameraRef) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, tracked := n.pending[id]; !tracked {
		n.pendOrd = append(n.pendOrd, id)
	}
	n.pending[id] = sentTo
	for len(n.pendOrd) > maxPendingInforms {
		old := n.pendOrd[0]
		n.pendOrd = n.pendOrd[1:]
		delete(n.pending, old)
	}
}
