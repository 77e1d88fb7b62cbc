package obs

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// tickClock advances a fixed step on every Now call, making span
// durations predictable.
type tickClock struct {
	t    time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

func TestSpanBeginFinish(t *testing.T) {
	clk := &tickClock{t: time.Unix(100, 0), step: time.Second}
	tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 8})
	sc := tr.Start(SpanContext{}, "cam0#1", "handoff")
	if tr.ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1", tr.ActiveCount())
	}
	if !tr.EndSpan(sc, "outcome", "matched") {
		t.Fatal("EndSpan should find the open span")
	}
	if tr.EndSpan(sc) {
		t.Fatal("second EndSpan should report no open span")
	}
	spans := tr.Recent()
	if len(spans) != 1 {
		t.Fatalf("recent = %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Trace != "cam0#1" || sp.Name != "handoff" {
		t.Fatalf("span identity = %q/%q", sp.Trace, sp.Name)
	}
	if sp.Duration() != time.Second {
		t.Fatalf("duration = %v, want 1s", sp.Duration())
	}
	if len(sp.Attrs) != 1 || sp.Attrs[0] != (Label{Name: "outcome", Value: "matched"}) {
		t.Fatalf("attrs = %v", sp.Attrs)
	}
	if tr.Finished() != 1 {
		t.Fatalf("finished = %d, want 1", tr.Finished())
	}
}

func TestSpanRingBound(t *testing.T) {
	tr := NewTracerWith(TracerConfig{Clock: clock.Fixed{T: time.Unix(0, 0)}, Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.EndSpan(tr.Start(SpanContext{}, string(rune('a'+i)), "s"))
	}
	spans := tr.Recent()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	// Oldest first: g, h, i, j.
	if spans[0].Trace != "g" || spans[3].Trace != "j" {
		t.Fatalf("ring order = %v..%v", spans[0].Trace, spans[3].Trace)
	}
	if tr.Finished() != 10 {
		t.Fatalf("finished = %d, want 10", tr.Finished())
	}
}

func TestSpanActiveEviction(t *testing.T) {
	tr := NewTracerWith(TracerConfig{Clock: clock.Fixed{T: time.Unix(0, 0)}, Capacity: 3})
	var scs []SpanContext
	for i := 0; i < 5; i++ {
		scs = append(scs, tr.Start(SpanContext{}, string(rune('a'+i)), "s"))
	}
	if tr.ActiveCount() != 3 {
		t.Fatalf("active = %d, want 3", tr.ActiveCount())
	}
	if tr.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", tr.Evicted())
	}
	// The two oldest were evicted; ending them finds nothing.
	if tr.EndSpan(scs[0]) || tr.EndSpan(scs[1]) {
		t.Fatal("evicted spans must not be endable")
	}
	if !tr.EndSpan(scs[4]) {
		t.Fatal("newest span must still be open")
	}
}

// TestNilTracerIsNoop: callers record spans without a tracing guard, so
// every span-recording method must be safe on a nil *Tracer.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	root := tr.RecordRoot("cam0#1", "capture", time.Unix(0, 0), time.Unix(1, 0))
	child := tr.RecordChild(SpanContext{TraceID: "cam0#1", SpanID: "1", Sampled: true}, "detect", time.Unix(1, 0), time.Unix(2, 0))
	live := tr.Start(SpanContext{}, "cam0#1", "handoff")
	if root.Valid() || child.Valid() || live.Valid() {
		t.Fatalf("nil tracer returned valid contexts: %+v %+v %+v", root, child, live)
	}
	if tr.EndSpan(SpanContext{TraceID: "cam0#1", SpanID: "1", Sampled: true}) {
		t.Fatal("EndSpan on a nil tracer reported an open span")
	}
}

// TestStartWithoutParentOrTrace: with neither a parent nor a trace ID
// there is nothing to hang a span on, so Start opens nothing.
func TestStartWithoutParentOrTrace(t *testing.T) {
	tr := NewTracerWith(TracerConfig{Clock: clock.Fixed{T: time.Unix(0, 0)}, Capacity: 4})
	if sc := tr.Start(SpanContext{}, "", "commit"); sc.Valid() {
		t.Fatalf("Start with no parent and no trace = %+v, want invalid", sc)
	}
	if tr.ActiveCount() != 0 {
		t.Fatalf("active = %d, want 0", tr.ActiveCount())
	}
}
