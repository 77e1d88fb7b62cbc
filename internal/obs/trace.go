package obs

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// SpanContext identifies a position in a distributed trace. It is small
// enough to travel on every wire message: protocol.TraceContext mirrors
// it field-for-field so the two convert with a plain struct conversion.
//
// TraceID names the whole causal story (Coral-Pie uses the detection
// event ID, which is already globally unique and deterministic). SpanID
// names one span within it; ParentID is the SpanID of the causing span,
// empty at the root. Sampled carries the head-sampling decision taken at
// the root — unsampled contexts still propagate so that every node in
// the trace agrees, but record nothing.
type SpanContext struct {
	TraceID  string `json:"traceId"`
	SpanID   string `json:"spanId"`
	ParentID string `json:"parentId,omitempty"`
	Sampled  bool   `json:"sampled"`
}

// Valid reports whether sc can parent further spans.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

type spanCtxKey struct{}

// ContextWithSpan attaches sc to ctx for in-process propagation (the
// transport layer extracts it from incoming envelopes and hands it to
// handlers this way).
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span context attached to ctx, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// newSpanID allocates the next span ID as lowercase hex with the
// configured prefix.
func (t *Tracer) newSpanID() string {
	return t.idPrefix + strconv.FormatUint(t.ids.Add(1), 16)
}

// sampleRootLocked takes the head-sampling decision for a new trace
// root. Caller holds t.mu.
func (t *Tracer) sampleRootLocked() bool {
	t.roots++
	if t.sampleEvery <= 1 {
		return true
	}
	return (t.roots-1)%int64(t.sampleEvery) == 0
}

// RecordRoot records an already-measured span as the root of a new
// trace and returns its context. This is where the sampling decision is
// taken: an unsampled root records nothing, but the returned context
// still propagates (Sampled=false) so descendants stay silent too.
func (t *Tracer) RecordRoot(trace, name string, start, end time.Time, attrs ...string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sc := SpanContext{TraceID: trace, SpanID: t.newSpanID(), Sampled: t.sampleRootLocked()}
	if !sc.Sampled {
		return sc
	}
	t.record(Span{
		Trace: trace, Name: name, SpanID: sc.SpanID,
		Start: start, End: end, Attrs: labelsOf(canonicalize(attrs)),
	})
	return sc
}

// RecordChild records an already-measured span as a child of parent and
// returns its context. An invalid parent yields an invalid (no-op)
// context; an unsampled parent propagates without recording.
func (t *Tracer) RecordChild(parent SpanContext, name string, start, end time.Time, attrs ...string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !parent.Valid() {
		return SpanContext{}
	}
	sc := SpanContext{TraceID: parent.TraceID, SpanID: t.newSpanID(), ParentID: parent.SpanID, Sampled: parent.Sampled}
	if !sc.Sampled {
		return sc
	}
	t.record(Span{
		Trace: sc.TraceID, Name: name, SpanID: sc.SpanID, ParentID: sc.ParentID,
		Start: start, End: end, Attrs: labelsOf(canonicalize(attrs)),
	})
	return sc
}

// Start opens a live span and returns its context; close it with
// EndSpan. With a valid parent the span joins the parent's trace and
// inherits its sampling decision. Without one it is a standalone,
// always-recorded span of trace — a handoff span for an inform that
// carried no context — and with no trace either Start opens nothing and
// returns an invalid context. Like all open spans it competes for the
// FIFO bound and may be evicted if never ended.
func (t *Tracer) Start(parent SpanContext, trace, name string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sc := SpanContext{TraceID: trace, Sampled: true}
	if parent.Valid() {
		sc = SpanContext{TraceID: parent.TraceID, ParentID: parent.SpanID, Sampled: parent.Sampled}
	} else if trace == "" {
		return SpanContext{}
	}
	sc.SpanID = t.newSpanID()
	if !sc.Sampled {
		return sc
	}
	t.active[sc.SpanID] = &Span{Trace: sc.TraceID, Name: name, SpanID: sc.SpanID, ParentID: sc.ParentID, Start: now}
	t.activeOrd = append(t.activeOrd, sc.SpanID)
	for len(t.activeOrd) > t.max {
		old := t.activeOrd[0]
		t.activeOrd = t.activeOrd[1:]
		if _, live := t.active[old]; live {
			delete(t.active, old)
			t.evicted++
		}
	}
	return sc
}

// EndSpan closes a span opened by Start, attaching the given attribute
// pairs, and reports whether it was still open: false for a span already
// ended or evicted, and for invalid and unsampled contexts.
func (t *Tracer) EndSpan(sc SpanContext, attrs ...string) bool {
	if t == nil || !sc.Valid() || !sc.Sampled {
		return false
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.active[sc.SpanID]
	if !ok {
		return false
	}
	delete(t.active, sc.SpanID)
	sp.End = now
	sp.Attrs = labelsOf(canonicalize(attrs))
	t.record(*sp)
	return true
}

// SpanSink receives every span as it is recorded. The sink runs while
// the tracer's lock is held: it must be fast and must not call back
// into the tracer.
type SpanSink func(Span)

// SetSink installs (or, with nil, removes) the span sink.
func (t *Tracer) SetSink(sink SpanSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = sink
}

// TraceNode is a span plus its children, as assembled by AssembleTrace.
type TraceNode struct {
	Span
	Children []*TraceNode `json:"children,omitempty"`
}

// AssembleTrace collects the completed spans of one trace still in the
// ring and links them into trees by ParentID. It returns the roots —
// parentless spans plus orphans whose parent has rotated out — in ring
// (oldest-first) order; children keep ring order too.
func (t *Tracer) AssembleTrace(id string) []*TraceNode {
	var nodes []*TraceNode
	byID := make(map[string]*TraceNode)
	for _, sp := range t.Recent() {
		if sp.Trace != id {
			continue
		}
		n := &TraceNode{Span: sp}
		nodes = append(nodes, n)
		if sp.SpanID != "" {
			byID[sp.SpanID] = n
		}
	}
	var roots []*TraceNode
	for _, n := range nodes {
		if n.ParentID != "" {
			if p, ok := byID[n.ParentID]; ok && p != n {
				p.Children = append(p.Children, n)
				continue
			}
		}
		roots = append(roots, n)
	}
	return roots
}

// Traces lists the distinct trace IDs present in the ring, oldest
// first.
func (t *Tracer) Traces() []string {
	seen := make(map[string]bool)
	var out []string
	for _, sp := range t.Recent() {
		if sp.Trace == "" || seen[sp.Trace] {
			continue
		}
		seen[sp.Trace] = true
		out = append(out, sp.Trace)
	}
	return out
}

// JSONLWriter exports spans as JSON Lines, one span per line. Its
// Export method is usable directly as a Tracer sink. The first write or
// encode error latches and suppresses further output; check Err.
type JSONLWriter struct {
	mu  sync.Mutex
	w   io.Writer
	n   int64
	err error
}

// NewJSONLWriter returns an exporter writing to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

// Export writes sp as one JSON line.
func (e *JSONLWriter) Export(sp Span) {
	buf, err := json.Marshal(sp)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	if err != nil {
		e.err = err
		return
	}
	if _, err := e.w.Write(append(buf, '\n')); err != nil {
		e.err = err
		return
	}
	e.n++
}

// Count returns how many spans have been written successfully.
func (e *JSONLWriter) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Err returns the latched export error, if any.
func (e *JSONLWriter) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
