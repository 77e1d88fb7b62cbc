// Package reid implements Coral-Pie's vehicle re-identification element
// (paper Sections 3.2, 4.1.3, 4.1.4): the candidate pool holding detection
// events received from upstream cameras, the Bhattacharyya-distance
// matcher, and the lazy garbage-collection policy — matched events are
// only annotated, and pruned when the pool grows too large, to keep eager
// deletion from turning re-identification false positives into false
// negatives.
package reid

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/feature"
	"repro/internal/protocol"
)

// Entry is one candidate-pool element: everything the receiving camera
// keeps about one upstream event.
type Entry struct {
	Event      protocol.DetectionEvent
	ReceivedAt time.Time
	Matched    bool
	// ReplyAddr is the informing camera's transport address, where the
	// confirmation goes; empty when the inform carried none.
	ReplyAddr string
	// Span is the handoff span opened when the inform landed, ended when
	// the event is matched, retired or expired.
	Span        protocol.TraceContext
	unmatchable bool // a non-finite bin: any distance is NaN or a false 0
}

// pruneThreshold is the pool size above which matched entries are
// garbage-collected (paper: "pruning ... only when the pool grows too
// large").
const pruneThreshold = 256

// PoolConfig parameterizes the candidate pool.
type PoolConfig struct {
	// OnEvict, when non-nil, is invoked (under the pool lock — keep it
	// cheap and reentrancy-free) for every entry removed by pruning.
	// Entry.Matched distinguishes normal cleanup of matched entries from
	// unmatched entries expired to bound pool memory; camnode uses the
	// latter to finish handoff tracer spans that would otherwise leak.
	OnEvict func(Entry)
}

// DefaultPoolConfig matches the prototype's behaviour.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{}
}

// Pool is a camera's candidate pool. It is safe for concurrent use: the
// connection manager adds entries from the network while the
// re-identification stage matches against them.
type Pool struct {
	cfg PoolConfig

	mu      sync.Mutex
	entries map[protocol.EventID]*Entry
	order   []protocol.EventID

	received int64
	matched  int64
	pruned   int64
	expired  int64
}

// NewPool returns an empty pool.
func NewPool(cfg PoolConfig) *Pool {
	return &Pool{
		cfg:     cfg,
		entries: make(map[protocol.EventID]*Entry),
	}
}

// Add inserts an entry received from an upstream camera and reports
// whether it is new. A duplicate event ID is not double-counted: it
// refreshes the stored event, and the reply address when the duplicate
// carries one, but keeps the first delivery's arrival time and span.
func (p *Pool) Add(e Entry) bool {
	for _, b := range e.Event.Histogram.Bins {
		e.unmatchable = e.unmatchable || math.IsNaN(b) || math.IsInf(b, 0)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.entries[e.Event.ID]; ok {
		existing.Event, existing.unmatchable = e.Event, e.unmatchable
		if e.ReplyAddr != "" {
			existing.ReplyAddr = e.ReplyAddr
		}
		return false
	}
	p.entries[e.Event.ID] = &e
	p.order = append(p.order, e.Event.ID)
	p.received++
	p.pruneLocked()
	return true
}

// MarkMatched annotates an event as matched (re-identified downstream or
// retired by the confirming protocol). It returns the entry and whether
// it was present and previously unmatched.
func (p *Pool) MarkMatched(id protocol.EventID) (Entry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[id]
	if !ok || e.Matched {
		return Entry{}, false
	}
	e.Matched = true
	p.matched++
	return *e, true
}

// pruneLocked removes matched entries once the pool exceeds
// pruneThreshold; if the pool is still over threshold afterwards
// (a flood of informs that never matched), the oldest unmatched entries
// are expired FIFO down to the threshold so pool memory stays bounded.
// Caller holds p.mu.
func (p *Pool) pruneLocked() {
	if len(p.entries) <= pruneThreshold {
		return
	}
	keep := p.order[:0]
	for _, id := range p.order {
		e, ok := p.entries[id]
		if !ok {
			continue
		}
		if e.Matched {
			delete(p.entries, id)
			p.pruned++
			if p.cfg.OnEvict != nil {
				p.cfg.OnEvict(*e)
			}
			continue
		}
		keep = append(keep, id)
	}
	p.order = keep
	for len(p.entries) > pruneThreshold && len(p.order) > 0 {
		id := p.order[0]
		p.order = p.order[1:]
		e, ok := p.entries[id]
		if !ok {
			continue
		}
		delete(p.entries, id)
		p.pruned++
		p.expired++
		if p.cfg.OnEvict != nil {
			p.cfg.OnEvict(*e)
		}
	}
}

// Size returns the number of entries currently held.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Unmatched returns how many entries have not been matched.
func (p *Pool) Unmatched() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.entries {
		if !e.Matched {
			n++
		}
	}
	return n
}

// Snapshot returns a copy of all entries, in insertion order.
func (p *Pool) Snapshot() []Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Entry, 0, len(p.entries))
	for _, id := range p.order {
		if e, ok := p.entries[id]; ok {
			out = append(out, *e)
		}
	}
	return out
}

// Stats reports the pool's lifetime counters: events received, matched,
// and pruned. Expired counts the subset of pruned entries that were
// still unmatched when evicted to bound pool memory.
type Stats struct {
	Received int64
	Matched  int64
	Pruned   int64
	Expired  int64
}

// Stats returns the lifetime counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Received: p.received, Matched: p.matched, Pruned: p.pruned, Expired: p.expired}
}

// MatcherConfig parameterizes re-identification.
type MatcherConfig struct {
	// BhattThreshold is the maximum Bhattacharyya distance accepted as a
	// match.
	BhattThreshold float64
}

// DefaultMatcherConfig returns the prototype threshold.
func DefaultMatcherConfig() MatcherConfig {
	return MatcherConfig{BhattThreshold: 0.35}
}

// Matcher matches fresh detection events against a candidate pool.
type Matcher struct {
	cfg MatcherConfig
}

// NewMatcher validates the config and returns a matcher.
func NewMatcher(cfg MatcherConfig) (*Matcher, error) {
	if cfg.BhattThreshold <= 0 || cfg.BhattThreshold > 1 {
		return nil, fmt.Errorf("reid: Bhattacharyya threshold %v out of (0,1]", cfg.BhattThreshold)
	}
	return &Matcher{cfg: cfg}, nil
}

// Match finds the unmatched pool entry with the smallest Bhattacharyya
// distance to the histogram. ok is false when nothing clears the
// threshold. The matched entry is NOT marked; callers mark it after the
// confirming protocol fires so the bookkeeping stays in one place.
func (m *Matcher) Match(h feature.Histogram, pool *Pool) (best Entry, distance float64, ok bool) {
	var buf [feature.HistogramSize]int
	support := feature.AppendSupport(buf[:0], h)
	pool.mu.Lock()
	defer pool.mu.Unlock()
	bestDist := m.cfg.BhattThreshold
	var bestEntry *Entry
	for _, id := range pool.order {
		e, present := pool.entries[id]
		if !present || e.Matched || e.unmatchable || len(e.Event.Histogram.Bins) != len(h.Bins) {
			continue
		}
		d := feature.SupportDistance(h, support, e.Event.Histogram)
		// Strict improvement required: on ties (e.g. same-color vehicles)
		// the earliest entry wins, exploiting the temporal locality of
		// vehicle movement — the first-informed candidate is the one
		// that has been traveling toward this camera the longest.
		if (bestEntry == nil && d <= bestDist) || (bestEntry != nil && d < bestDist) {
			bestDist = d
			bestEntry = e
		}
	}
	if bestEntry == nil {
		return Entry{}, 0, false
	}
	return *bestEntry, bestDist, true
}
