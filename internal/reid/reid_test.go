package reid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/imaging"
	"repro/internal/protocol"
)

var t0 = time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)

// histOf builds the signature of a solid-color patch.
func histOf(t *testing.T, c imaging.Color) feature.Histogram {
	t.Helper()
	f := imaging.MustNewFrame(32, 32)
	f.Fill(c)
	h, err := feature.Extract(f, imaging.Rect{X: 4, Y: 4, W: 24, H: 24})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func eventWith(t *testing.T, id string, c imaging.Color) protocol.DetectionEvent {
	t.Helper()
	return protocol.DetectionEvent{
		ID:        protocol.EventID(id),
		CameraID:  "up",
		Timestamp: t0,
		Histogram: histOf(t, c),
	}
}

func newMatcher(t *testing.T, cfg MatcherConfig) *Matcher {
	t.Helper()
	m, err := NewMatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMatcherValidation(t *testing.T) {
	if _, err := NewMatcher(MatcherConfig{BhattThreshold: 0}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewMatcher(MatcherConfig{BhattThreshold: 1.5}); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestAddAndSize(t *testing.T) {
	p := NewPool(PoolConfig{})
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Red), ReceivedAt: t0})
	p.Add(Entry{Event: eventWith(t, "up#2", imaging.Blue), ReceivedAt: t0})
	if p.Size() != 2 || p.Unmatched() != 2 {
		t.Errorf("size=%d unmatched=%d", p.Size(), p.Unmatched())
	}
	// Duplicate ID refreshes, does not grow.
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Red), ReceivedAt: t0.Add(time.Second)})
	if p.Size() != 2 {
		t.Errorf("duplicate grew pool to %d", p.Size())
	}
	if p.Stats().Received != 2 {
		t.Errorf("received = %d", p.Stats().Received)
	}
}

// TestDuplicateAddKeepsSpanRefreshesReplyAddr: a redelivered inform may
// come from a new address, which the confirm must use, but a redelivery
// without one must not erase it, and the first delivery's handoff span
// stays the event's span.
func TestDuplicateAddKeepsSpanRefreshesReplyAddr(t *testing.T) {
	p := NewPool(PoolConfig{})
	ev := eventWith(t, "up#1", imaging.Red)
	first := protocol.TraceContext{TraceID: "up#1", SpanID: "s1", Sampled: true}
	if !p.Add(Entry{Event: ev, ReceivedAt: t0, ReplyAddr: "addr1", Span: first}) {
		t.Fatal("first Add reported a duplicate")
	}
	second := protocol.TraceContext{TraceID: "up#1", SpanID: "s2", Sampled: true}
	if p.Add(Entry{Event: ev, ReceivedAt: t0, ReplyAddr: "addr2", Span: second}) {
		t.Fatal("duplicate Add reported a new entry")
	}
	if p.Add(Entry{Event: ev, ReceivedAt: t0}) {
		t.Fatal("duplicate Add reported a new entry")
	}
	got, ok := p.MarkMatched("up#1")
	if !ok {
		t.Fatal("MarkMatched failed")
	}
	if got.ReplyAddr != "addr2" {
		t.Errorf("reply addr = %q, want addr2 (refreshed, not erased by a blank one)", got.ReplyAddr)
	}
	if got.Span != first {
		t.Errorf("span = %+v, want the first delivery's %+v", got.Span, first)
	}
}

func TestMatchPicksClosestColor(t *testing.T) {
	p := NewPool(PoolConfig{})
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Red), ReceivedAt: t0})
	p.Add(Entry{Event: eventWith(t, "up#2", imaging.Blue), ReceivedAt: t0})
	m := newMatcher(t, DefaultMatcherConfig())

	got, dist, ok := m.Match(histOf(t, imaging.Red), p)
	if !ok {
		t.Fatal("no match found")
	}
	if got.Event.ID != "up#1" {
		t.Errorf("matched %v, want up#1", got.Event.ID)
	}
	if dist > 0.01 {
		t.Errorf("distance = %v", dist)
	}
}

func TestMatchRejectsAboveThreshold(t *testing.T) {
	p := NewPool(PoolConfig{})
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Blue), ReceivedAt: t0})
	m := newMatcher(t, MatcherConfig{BhattThreshold: 0.3})
	if _, _, ok := m.Match(histOf(t, imaging.Red), p); ok {
		t.Error("red matched blue below threshold 0.3")
	}
}

func TestMatchSkipsMatchedEntries(t *testing.T) {
	p := NewPool(PoolConfig{})
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Red), ReceivedAt: t0})
	if _, ok := p.MarkMatched("up#1"); !ok {
		t.Fatal("MarkMatched failed")
	}
	m := newMatcher(t, DefaultMatcherConfig())
	if _, _, ok := m.Match(histOf(t, imaging.Red), p); ok {
		t.Error("matched an already-matched entry")
	}
}

func TestMarkMatchedSemantics(t *testing.T) {
	p := NewPool(PoolConfig{})
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Red), ReceivedAt: t0})
	if _, ok := p.MarkMatched("ghost#1"); ok {
		t.Error("marking a missing entry should report false")
	}
	if _, ok := p.MarkMatched("up#1"); !ok {
		t.Error("first mark should succeed")
	}
	if _, ok := p.MarkMatched("up#1"); ok {
		t.Error("second mark should report false")
	}
	if p.Unmatched() != 0 || p.Stats().Matched != 1 {
		t.Errorf("unmatched=%d matched=%d", p.Unmatched(), p.Stats().Matched)
	}
}

func TestLazyPruning(t *testing.T) {
	p := NewPool(PoolConfig{})
	for i := 0; i < pruneThreshold; i++ {
		p.Add(Entry{Event: eventWith(t, fmt.Sprintf("up#%d", i), imaging.Red), ReceivedAt: t0})
	}
	p.MarkMatched("up#0")
	p.MarkMatched("up#1")
	// Below threshold: matched entries are annotated but retained.
	if p.Size() != pruneThreshold {
		t.Errorf("pruned early: size=%d", p.Size())
	}
	// Crossing the threshold triggers pruning of matched entries only.
	p.Add(Entry{Event: eventWith(t, "up#x", imaging.Blue), ReceivedAt: t0})
	if p.Size() != pruneThreshold-1 {
		t.Errorf("after prune size=%d, want %d", p.Size(), pruneThreshold-1)
	}
	if p.Stats().Pruned != 2 {
		t.Errorf("pruned=%d", p.Stats().Pruned)
	}
	snap := p.Snapshot()
	for _, e := range snap {
		if e.Event.ID == "up#0" || e.Event.ID == "up#1" {
			t.Errorf("matched entry %v survived pruning", e.Event.ID)
		}
	}
}

func TestSnapshotOrder(t *testing.T) {
	p := NewPool(PoolConfig{})
	ids := []string{"a#1", "b#2", "c#3"}
	for _, id := range ids {
		p.Add(Entry{Event: eventWith(t, id, imaging.Red), ReceivedAt: t0})
	}
	snap := p.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len=%d", len(snap))
	}
	for i, id := range ids {
		if string(snap[i].Event.ID) != id {
			t.Errorf("snapshot[%d] = %v, want %v", i, snap[i].Event.ID, id)
		}
	}
}

func TestMatchEmptyPool(t *testing.T) {
	p := NewPool(PoolConfig{})
	m := newMatcher(t, DefaultMatcherConfig())
	if _, _, ok := m.Match(histOf(t, imaging.Red), p); ok {
		t.Error("matched against empty pool")
	}
}

func TestConcurrentAddAndMatch(t *testing.T) {
	p := NewPool(PoolConfig{})
	m := newMatcher(t, DefaultMatcherConfig())
	target := histOf(t, imaging.Red)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Past the threshold, so pruning runs beside the matches.
		for i := 0; i < pruneThreshold+200; i++ {
			p.Add(Entry{Event: eventWith(t, "up#"+string(rune(i)), imaging.Blue), ReceivedAt: t0})
		}
	}()
	for i := 0; i < 200; i++ {
		m.Match(target, p)
	}
	<-done
}

func TestUnmatchedEvictionBoundsPool(t *testing.T) {
	var evicted []Entry
	p := NewPool(PoolConfig{OnEvict: func(e Entry) { evicted = append(evicted, e) }})
	// Two more unmatched entries than the threshold: nothing is matched,
	// so the old policy would let the pool grow without bound. The oldest
	// unmatched entries must be expired FIFO down to the threshold.
	for i := 0; i < pruneThreshold+2; i++ {
		p.Add(Entry{Event: eventWith(t, fmt.Sprintf("up#%d", i), imaging.Red), ReceivedAt: t0})
	}
	if p.Size() != pruneThreshold {
		t.Errorf("size = %d, want %d (bounded by threshold)", p.Size(), pruneThreshold)
	}
	st := p.Stats()
	if st.Expired != 2 || st.Pruned != 2 {
		t.Errorf("stats = %+v, want 2 expired / 2 pruned", st)
	}
	if len(evicted) != 2 {
		t.Fatalf("OnEvict calls = %d, want 2", len(evicted))
	}
	if evicted[0].Event.ID != "up#0" || evicted[1].Event.ID != "up#1" {
		t.Errorf("evicted %q, %q: not FIFO", evicted[0].Event.ID, evicted[1].Event.ID)
	}
	for _, e := range evicted {
		if e.Matched {
			t.Errorf("entry %q evicted as matched", e.Event.ID)
		}
	}
}

func TestOnEvictSeesMatchedFlag(t *testing.T) {
	var evicted []Entry
	p := NewPool(PoolConfig{OnEvict: func(e Entry) { evicted = append(evicted, e) }})
	p.Add(Entry{Event: eventWith(t, "up#a", imaging.Red), ReceivedAt: t0})
	for i := 1; i < pruneThreshold; i++ {
		p.Add(Entry{Event: eventWith(t, fmt.Sprintf("up#b%d", i), imaging.Blue), ReceivedAt: t0})
	}
	p.MarkMatched("up#a")
	p.Add(Entry{Event: eventWith(t, "up#c", imaging.Color{R: 40, G: 220, B: 40}), ReceivedAt: t0})
	if p.Size() != pruneThreshold {
		t.Errorf("size = %d, want %d", p.Size(), pruneThreshold)
	}
	if len(evicted) != 1 || evicted[0].Event.ID != "up#a" || !evicted[0].Matched {
		t.Errorf("evicted = %+v, want matched up#a", evicted)
	}
	if st := p.Stats(); st.Expired != 0 {
		t.Errorf("matched cleanup counted as expiry: %+v", st)
	}
}

// TestNonFiniteCandidateNeverMatches: a candidate with a NaN or infinite
// bin is never the match, even when it is the vehicle's own signature
// otherwise — whether the bin lies outside the vehicle's support (the
// support-only sum never reads it) or inside (+Inf would clamp the sum to
// a perfect 0). A finite duplicate inform makes the event matchable again.
func TestNonFiniteCandidateNeverMatches(t *testing.T) {
	h := histOf(t, imaging.Red)
	support := feature.AppendSupport(nil, h)
	outside := 0
	for h.Bins[outside] != 0 {
		outside++
	}
	poisoned := func(id string, bin int, v float64) Entry {
		ev := eventWith(t, id, imaging.Red)
		ev.Histogram.Bins[bin] = v
		return Entry{Event: ev, ReceivedAt: t0}
	}
	p := NewPool(PoolConfig{})
	p.Add(poisoned("up#nan", outside, math.NaN()))
	p.Add(poisoned("up#inf", support[0], math.Inf(1)))
	p.Add(poisoned("up#-inf", outside, math.Inf(-1)))
	m := newMatcher(t, DefaultMatcherConfig())
	if e, d, ok := m.Match(h, p); ok {
		t.Fatalf("matched %s at distance %v", e.Event.ID, d)
	}
	p.Add(Entry{Event: eventWith(t, "up#inf", imaging.Red), ReceivedAt: t0})
	if e, _, ok := m.Match(h, p); !ok || e.Event.ID != "up#inf" {
		t.Fatalf("after a finite re-inform: match %q, %v; want up#inf", e.Event.ID, ok)
	}
}

// BenchmarkMatchFullPool prices one re-identification against a pool at
// its default bound: 256 unmatched candidates, each signature with six
// set bins, as is the vehicle's.
func BenchmarkMatchFullPool(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sixBins := func() feature.Histogram {
		h := feature.Histogram{Bins: make([]float64, feature.HistogramSize)}
		for _, i := range rng.Perm(feature.HistogramSize)[:6] {
			h.Bins[i] = 1.0 / 6
		}
		return h
	}
	p := NewPool(DefaultPoolConfig())
	for i := 0; i < pruneThreshold; i++ {
		p.Add(Entry{Event: protocol.DetectionEvent{ID: protocol.EventID(fmt.Sprintf("up#%d", i)), Histogram: sixBins()}, ReceivedAt: t0})
	}
	m, err := NewMatcher(DefaultMatcherConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := sixBins()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(h, p)
	}
}
