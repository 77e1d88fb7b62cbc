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

func newPool(t *testing.T, threshold int) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{PruneThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newMatcher(t *testing.T, cfg MatcherConfig) *Matcher {
	t.Helper()
	m, err := NewMatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(PoolConfig{PruneThreshold: 0}); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestMatcherValidation(t *testing.T) {
	if _, err := NewMatcher(MatcherConfig{BhattThreshold: 0}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewMatcher(MatcherConfig{BhattThreshold: 1.5}); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := NewMatcher(MatcherConfig{BhattThreshold: 0.3, MaxEventAge: -time.Second}); err == nil {
		t.Error("negative age accepted")
	}
}

func TestAddAndSize(t *testing.T) {
	p := newPool(t, 10)
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
	p := newPool(t, 10)
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
	p := newPool(t, 10)
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Red), ReceivedAt: t0})
	p.Add(Entry{Event: eventWith(t, "up#2", imaging.Blue), ReceivedAt: t0})
	m := newMatcher(t, DefaultMatcherConfig())

	got, dist, ok := m.Match(histOf(t, imaging.Red), p, t0)
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
	p := newPool(t, 10)
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Blue), ReceivedAt: t0})
	m := newMatcher(t, MatcherConfig{BhattThreshold: 0.3})
	if _, _, ok := m.Match(histOf(t, imaging.Red), p, t0); ok {
		t.Error("red matched blue below threshold 0.3")
	}
}

func TestMatchSkipsMatchedEntries(t *testing.T) {
	p := newPool(t, 10)
	p.Add(Entry{Event: eventWith(t, "up#1", imaging.Red), ReceivedAt: t0})
	if _, ok := p.MarkMatched("up#1"); !ok {
		t.Fatal("MarkMatched failed")
	}
	m := newMatcher(t, DefaultMatcherConfig())
	if _, _, ok := m.Match(histOf(t, imaging.Red), p, t0); ok {
		t.Error("matched an already-matched entry")
	}
}

func TestMarkMatchedSemantics(t *testing.T) {
	p := newPool(t, 10)
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
	p := newPool(t, 4)
	for i := 0; i < 4; i++ {
		p.Add(Entry{Event: eventWith(t, "up#"+string(rune('0'+i)), imaging.Red), ReceivedAt: t0})
	}
	p.MarkMatched("up#0")
	p.MarkMatched("up#1")
	// Below threshold: matched entries are annotated but retained.
	if p.Size() != 4 {
		t.Errorf("pruned early: size=%d", p.Size())
	}
	// Crossing the threshold triggers pruning of matched entries only.
	p.Add(Entry{Event: eventWith(t, "up#9", imaging.Blue), ReceivedAt: t0})
	if p.Size() != 3 {
		t.Errorf("after prune size=%d, want 3", p.Size())
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

func TestMaxEventAgeFilter(t *testing.T) {
	p := newPool(t, 10)
	p.Add(Entry{Event: eventWith(t, "up#old", imaging.Red), ReceivedAt: t0})
	p.Add(Entry{Event: eventWith(t, "up#new", imaging.Red), ReceivedAt: t0.Add(50 * time.Second)})
	m := newMatcher(t, MatcherConfig{BhattThreshold: 0.3, MaxEventAge: 30 * time.Second})
	got, _, ok := m.Match(histOf(t, imaging.Red), p, t0.Add(60*time.Second))
	if !ok {
		t.Fatal("no match")
	}
	if got.Event.ID != "up#new" {
		t.Errorf("matched %v, want the fresh entry", got.Event.ID)
	}
}

func TestSnapshotOrder(t *testing.T) {
	p := newPool(t, 10)
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
	p := newPool(t, 10)
	m := newMatcher(t, DefaultMatcherConfig())
	if _, _, ok := m.Match(histOf(t, imaging.Red), p, t0); ok {
		t.Error("matched against empty pool")
	}
}

func TestConcurrentAddAndMatch(t *testing.T) {
	p := newPool(t, 64)
	m := newMatcher(t, DefaultMatcherConfig())
	target := histOf(t, imaging.Red)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			p.Add(Entry{Event: eventWith(t, "up#"+string(rune(i)), imaging.Blue), ReceivedAt: t0})
		}
	}()
	for i := 0; i < 200; i++ {
		m.Match(target, p, t0)
	}
	<-done
}

func TestUnmatchedEvictionBoundsPool(t *testing.T) {
	var evicted []Entry
	p, err := NewPool(PoolConfig{
		PruneThreshold: 3,
		OnEvict:        func(e Entry) { evicted = append(evicted, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Five unmatched entries: nothing is matched, so the old policy would
	// let the pool grow without bound. The oldest unmatched entries must
	// be expired FIFO down to the threshold.
	for i := 0; i < 5; i++ {
		p.Add(Entry{Event: eventWith(t, "up#"+string(rune('0'+i)), imaging.Red), ReceivedAt: t0})
	}
	if p.Size() != 3 {
		t.Errorf("size = %d, want 3 (bounded by threshold)", p.Size())
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
	p, err := NewPool(PoolConfig{
		PruneThreshold: 2,
		OnEvict:        func(e Entry) { evicted = append(evicted, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Add(Entry{Event: eventWith(t, "up#a", imaging.Red), ReceivedAt: t0})
	p.Add(Entry{Event: eventWith(t, "up#b", imaging.Blue), ReceivedAt: t0})
	p.MarkMatched("up#a")
	p.Add(Entry{Event: eventWith(t, "up#c", imaging.Color{R: 40, G: 220, B: 40}), ReceivedAt: t0})
	if p.Size() != 2 {
		t.Errorf("size = %d, want 2", p.Size())
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
	p := newPool(t, 16)
	p.Add(poisoned("up#nan", outside, math.NaN()))
	p.Add(poisoned("up#inf", support[0], math.Inf(1)))
	p.Add(poisoned("up#-inf", outside, math.Inf(-1)))
	m := newMatcher(t, DefaultMatcherConfig())
	if e, d, ok := m.Match(h, p, t0); ok {
		t.Fatalf("matched %s at distance %v", e.Event.ID, d)
	}
	p.Add(Entry{Event: eventWith(t, "up#inf", imaging.Red), ReceivedAt: t0})
	if e, _, ok := m.Match(h, p, t0); !ok || e.Event.ID != "up#inf" {
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
	p, err := NewPool(DefaultPoolConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < DefaultPoolConfig().PruneThreshold; i++ {
		p.Add(Entry{Event: protocol.DetectionEvent{ID: protocol.EventID(fmt.Sprintf("up#%d", i)), Histogram: sixBins()}, ReceivedAt: t0})
	}
	m, err := NewMatcher(DefaultMatcherConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := sixBins()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(h, p, t0)
	}
}
