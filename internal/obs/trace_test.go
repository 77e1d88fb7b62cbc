package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanContextValid(t *testing.T) {
	if (SpanContext{}).Valid() {
		t.Fatal("zero context should be invalid")
	}
	if (SpanContext{TraceID: "a"}).Valid() {
		t.Fatal("context without span ID should be invalid")
	}
	if !(SpanContext{TraceID: "a", SpanID: "1"}).Valid() {
		t.Fatal("trace+span context should be valid")
	}
}

func TestContextPropagation(t *testing.T) {
	sc := SpanContext{TraceID: "cam0#1", SpanID: "7", Sampled: true}
	ctx := ContextWithSpan(context.Background(), sc)
	got, ok := SpanFromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("SpanFromContext = %+v, %v; want %+v, true", got, ok, sc)
	}
	if _, ok := SpanFromContext(context.Background()); ok {
		t.Fatal("empty context should carry no span")
	}
	// An invalid context stored deliberately must not round-trip as ok.
	ctx = ContextWithSpan(context.Background(), SpanContext{TraceID: "x"})
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("invalid stored context should not be returned")
	}
}

func TestRecordRootAndChildren(t *testing.T) {
	clk := &tickClock{t: time.Unix(100, 0), step: time.Second}
	tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 16})

	t0 := time.Unix(100, 0)
	root := tr.RecordRoot("cam0#1", "capture", t0, t0.Add(time.Second), "camera", "cam0")
	if !root.Valid() || !root.Sampled {
		t.Fatalf("root context invalid: %+v", root)
	}
	child := tr.RecordChild(root, "detect", t0.Add(time.Second), t0.Add(2*time.Second))
	if child.TraceID != root.TraceID || child.ParentID != root.SpanID {
		t.Fatalf("child not parented to root: %+v", child)
	}
	grand := tr.RecordChild(child, "track", t0.Add(2*time.Second), t0.Add(3*time.Second))

	roots := tr.AssembleTrace("cam0#1")
	if len(roots) != 1 {
		t.Fatalf("AssembleTrace roots = %d, want 1", len(roots))
	}
	n := roots[0]
	if n.Name != "capture" || len(n.Children) != 1 {
		t.Fatalf("root = %s with %d children, want capture with 1", n.Name, len(n.Children))
	}
	if n.Children[0].Name != "detect" || len(n.Children[0].Children) != 1 {
		t.Fatalf("depth-1 = %+v", n.Children[0].Span)
	}
	if got := n.Children[0].Children[0].SpanID; got != grand.SpanID {
		t.Fatalf("depth-2 span = %s, want %s", got, grand.SpanID)
	}
}

func TestRecordChildInvalidParent(t *testing.T) {
	tr := NewTracerWith(TracerConfig{Clock: &tickClock{t: time.Unix(0, 0), step: time.Second}, Capacity: 4})
	if sc := tr.RecordChild(SpanContext{}, "x", time.Unix(0, 0), time.Unix(1, 0)); sc.Valid() {
		t.Fatalf("child of invalid parent should be invalid, got %+v", sc)
	}
	if len(tr.Recent()) != 0 {
		t.Fatal("no span should be recorded")
	}
}

func TestStartEndSpan(t *testing.T) {
	clk := &tickClock{t: time.Unix(100, 0), step: time.Second}
	tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 8})
	root := tr.RecordRoot("cam0#1", "capture", time.Unix(100, 0), time.Unix(101, 0))

	live := tr.Start(root, "", "inform")
	if !live.Valid() {
		t.Fatalf("live child invalid: %+v", live)
	}
	if !tr.EndSpan(live, "fanout", "2") {
		t.Fatal("EndSpan should find the live span")
	}
	if tr.EndSpan(live) {
		t.Fatal("second EndSpan should find nothing")
	}

	spans := tr.Recent()
	last := spans[len(spans)-1]
	if last.Name != "inform" || last.ParentID != root.SpanID {
		t.Fatalf("finished live span = %+v", last)
	}
	if len(last.Attrs) == 0 || last.Attrs[len(last.Attrs)-1].Value != "2" {
		t.Fatalf("attrs not applied: %+v", last.Attrs)
	}
}

func TestSamplingEveryN(t *testing.T) {
	clk := &tickClock{t: time.Unix(0, 0), step: time.Second}
	tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 64, SampleEvery: 3})

	var sampled int
	for i := 0; i < 9; i++ {
		root := tr.RecordRoot(fmt.Sprintf("cam0#%d", i), "capture", time.Unix(0, 0), time.Unix(1, 0))
		child := tr.RecordChild(root, "detect", time.Unix(1, 0), time.Unix(2, 0))
		if root.Sampled {
			sampled++
			if !child.Valid() || !child.Sampled {
				t.Fatalf("sampled trace's child dropped: %+v", child)
			}
		} else if len(tr.AssembleTrace(fmt.Sprintf("cam0#%d", i))) != 0 {
			t.Fatalf("unsampled trace %d recorded spans", i)
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 roots, want 3", sampled)
	}
	// Unsampled contexts must not record live children either.
	unsampled := SpanContext{TraceID: "t", SpanID: "s", Sampled: false}
	live := tr.Start(unsampled, "", "x")
	if tr.EndSpan(live) {
		t.Fatal("unsampled live span should not record")
	}
}

func TestDeterministicSpanIDs(t *testing.T) {
	run := func() []string {
		clk := &tickClock{t: time.Unix(0, 0), step: time.Second}
		tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 16, IDPrefix: "cam0-"})
		root := tr.RecordRoot("cam0#1", "capture", time.Unix(0, 0), time.Unix(1, 0))
		child := tr.RecordChild(root, "detect", time.Unix(1, 0), time.Unix(2, 0))
		return []string{root.SpanID, child.SpanID}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run ids diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if !strings.HasPrefix(a[0], "cam0-") {
		t.Fatalf("span id %q missing prefix", a[0])
	}
}

func TestStartJoinsParentTrace(t *testing.T) {
	clk := &tickClock{t: time.Unix(100, 0), step: time.Second}
	tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 8})
	parent := SpanContext{TraceID: "cam0#1", SpanID: "cam0-3", Sampled: true}

	// The parent's trace wins over the trace argument.
	sc := tr.Start(parent, "other", "handoff:cam1")
	if sc.TraceID != "cam0#1" || sc.ParentID != "cam0-3" || !sc.Sampled {
		t.Fatalf("Start did not adopt parent: %+v", sc)
	}
	if tr.ActiveCount() != 1 {
		t.Fatalf("active = %d, want 1", tr.ActiveCount())
	}
	if !tr.EndSpan(sc, "outcome", "matched") {
		t.Fatal("EndSpan should close the joined span")
	}
	spans := tr.Recent()
	last := spans[len(spans)-1]
	if last.ParentID != "cam0-3" || last.Trace != "cam0#1" {
		t.Fatalf("finished joined span = %+v", last)
	}
}

func TestAssembleTraceOrphans(t *testing.T) {
	clk := &tickClock{t: time.Unix(0, 0), step: time.Second}
	tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 8})
	// A child whose parent never recorded (e.g. evicted) becomes a root.
	parent := SpanContext{TraceID: "t1", SpanID: "gone", Sampled: true}
	tr.RecordChild(parent, "orphan", time.Unix(0, 0), time.Unix(1, 0))
	roots := tr.AssembleTrace("t1")
	if len(roots) != 1 || roots[0].Name != "orphan" {
		t.Fatalf("orphan should surface as root, got %+v", roots)
	}
	if got := tr.Traces(); len(got) != 1 || got[0] != "t1" {
		t.Fatalf("Traces = %v", got)
	}
}

func TestJSONLWriterSink(t *testing.T) {
	clk := &tickClock{t: time.Unix(0, 0), step: time.Second}
	tr := NewTracerWith(TracerConfig{Clock: clk, Capacity: 8})
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	tr.SetSink(w.Export)

	root := tr.RecordRoot("cam0#1", "capture", time.Unix(0, 0), time.Unix(1, 0))
	tr.RecordChild(root, "detect", time.Unix(1, 0), time.Unix(2, 0))
	if w.Count() != 2 {
		t.Fatalf("exported %d spans, want 2", w.Count())
	}
	if w.Err() != nil {
		t.Fatalf("exporter error: %v", w.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var sp Span
	if err := json.Unmarshal([]byte(lines[1]), &sp); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if sp.Name != "detect" || sp.ParentID != root.SpanID {
		t.Fatalf("exported span = %+v", sp)
	}
}

// TestConcurrentTracerRace hammers every tracer entry point from
// concurrent goroutines so the race detector can check the ring buffer
// wraparound and active-span FIFO eviction paths. Invariants are checked
// afterwards; the test is primarily a -race target.
func TestConcurrentTracerRace(t *testing.T) {
	const (
		workers = 8
		iters   = 200
		cap     = 32 // far smaller than workers*iters: forces wraparound + eviction
	)
	tr := NewTracerWith(TracerConfig{Capacity: cap})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				trace := fmt.Sprintf("cam%d#%d", w, i)
				switch i % 3 {
				case 0:
					sc := tr.Start(SpanContext{}, trace, "handoff")
					tr.EndSpan(sc, "outcome", "matched")
				case 1:
					root := tr.RecordRoot(trace, "capture", time.Unix(0, 0), time.Unix(1, 0))
					live := tr.Start(root, "", "inform")
					tr.EndSpan(live, "fanout", "1")
				case 2:
					tr.Start(SpanContext{}, trace, "handoff")
					// Left open on purpose: exercises FIFO eviction.
				}
				tr.Recent()
				tr.AssembleTrace(trace)
			}
		}(w)
	}
	wg.Wait()

	if got := len(tr.Recent()); got > cap {
		t.Fatalf("ring holds %d spans, cap %d", got, cap)
	}
	if got := tr.ActiveCount(); got > cap {
		t.Fatalf("active spans %d exceed cap %d", got, cap)
	}
	if tr.Evicted() == 0 {
		t.Fatal("expected FIFO evictions with open spans over capacity")
	}
}
