package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Span is one completed traced interval. A span belongs to a trace ID —
// in Coral-Pie, the detection-event ID that travels with a vehicle
// handoff from the informing camera through the MDCS to the
// re-identifying camera — and its name identifies the leg. SpanID
// and ParentID link spans into a tree: every span carries its own ID and
// (except for roots) the ID of the span that caused it, possibly on
// another node.
type Span struct {
	Trace    string    `json:"trace"`
	Name     string    `json:"name"`
	SpanID   string    `json:"spanId,omitempty"`
	ParentID string    `json:"parentId,omitempty"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Attrs    []Label   `json:"attrs,omitempty"`
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer records spans. Start opens a live span addressed by its own
// SpanID and EndSpan closes it, moving it into a bounded ring of recent
// spans; RecordRoot and RecordChild (trace.go) add already-measured spans
// directly. Spans link into per-trace trees via SpanContext, and head
// sampling applies at trace roots. Spans that are started and never
// ended are evicted FIFO once the active table exceeds its bound, so lost
// handoffs (vehicles that leave the camera network) cannot leak memory.
//
// The span-recording methods (RecordRoot, RecordChild, Start, EndSpan)
// are no-ops on a nil *Tracer, so callers need no tracing guard.
//
// Timestamps come from the injected clock and span IDs from a per-tracer
// sequence 1, 2, 3, …, so a Tracer driven by the discrete-event
// simulator's virtual clock produces identical spans — including
// identical tree topology — on identical runs.
type Tracer struct {
	clk         clock.Clock
	max         int
	ids         atomic.Uint64 // the last span ID allocated
	idPrefix    string
	sampleEvery int

	mu        sync.Mutex
	active    map[string]*Span // open spans by SpanID
	activeOrd []string         // SpanIDs in start order, for FIFO eviction
	recent    []Span           // ring buffer
	next      int              // ring write cursor
	full      bool
	finished  int64
	evicted   int64
	roots     int64 // sampling decisions taken at RecordRoot
	sink      SpanSink
}

// TracerConfig configures NewTracerWith. The zero value of every field
// has a sensible default.
type TracerConfig struct {
	// Clock provides span timestamps; nil uses real time.
	Clock clock.Clock
	// Capacity bounds both the active-span table and the recent-span
	// ring (minimum 1).
	Capacity int
	// IDPrefix prefixes every allocated span ID (e.g. the node name
	// plus "-"), keeping IDs unique across processes whose spans are
	// stitched into one trace offline.
	IDPrefix string
	// SampleEvery keeps 1 of every N traces rooted at this tracer
	// (RecordRoot); values <= 1 keep everything. The decision is
	// modular on the root sequence number — deterministic, not random —
	// and child spans inherit it, including across the wire.
	SampleEvery int
}

// NewTracerWith returns a tracer configured by cfg. See TracerConfig.
func NewTracerWith(cfg TracerConfig) *Tracer {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	capacity := cfg.Capacity
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		clk:         clk,
		max:         capacity,
		idPrefix:    cfg.IDPrefix,
		sampleEvery: cfg.SampleEvery,
		active:      make(map[string]*Span),
		recent:      make([]Span, capacity),
	}
}

// record appends to the ring and feeds the sink. Caller holds t.mu.
func (t *Tracer) record(sp Span) {
	t.recent[t.next] = sp
	t.next++
	t.finished++
	if t.next == len(t.recent) {
		t.next = 0
		t.full = true
	}
	if t.sink != nil {
		t.sink(sp)
	}
}

// Recent returns the completed spans still in the ring, oldest first.
func (t *Tracer) Recent() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	if t.full {
		out = append(out, t.recent[t.next:]...)
	}
	out = append(out, t.recent[:t.next]...)
	return out
}

// ActiveCount returns the number of open spans.
func (t *Tracer) ActiveCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// Finished returns the lifetime count of completed spans (including
// those that have rotated out of the ring).
func (t *Tracer) Finished() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished
}

// Evicted returns how many open spans were discarded unfinished.
func (t *Tracer) Evicted() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}
