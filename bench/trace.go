package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one request share Trace: the
// event ID for handoffs, "cam/seq" for frames, the ordinal for queries
// and writes. Times are nanoseconds since the recorder's origin.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Trace   string `json:"trace"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass runs the same code.
type recorder struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newID reserves a span ID before the span ends, so children can name
// their parent while it is still open.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

func (r *recorder) record(name string, id, parent int64, trace string, start, end time.Time) {
	if r == nil {
		return
	}
	sp := span{Name: name, ID: id, Parent: parent, Trace: trace,
		StartNs: int64(start.Sub(r.origin)), EndNs: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// leaf records a childless span under parent.
func (r *recorder) leaf(name string, parent spanRef, start, end time.Time) {
	if r == nil {
		return
	}
	r.record(name, r.newID(), parent.id, parent.trace, start, end)
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanRef names an open span: what a child needs to attach itself.
type spanRef struct {
	id    int64
	trace string
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other and may stick out of the parent (an asynchronous child can end
// after the call that started it returned); the covered part is the union
// of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.StartNs, sp.EndNs})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, sp := range spans {
		ivs := children[sp.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, edge := int64(0), sp.StartNs
		for _, iv := range ivs {
			lo, hi := max(iv[0], edge), min(iv[1], sp.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[sp.ID] = sp.EndNs - sp.StartNs - covered
	}
	return self
}

// spanStats groups span durations and self times by span name.
type spanStats struct {
	dur  map[string][]float64 // ns
	self map[string][]float64 // ns
}

func analyzeSpans(spans []span) spanStats {
	st := spanStats{dur: make(map[string][]float64), self: make(map[string][]float64)}
	self := selfTimes(spans)
	for _, sp := range spans {
		st.dur[sp.Name] = append(st.dur[sp.Name], float64(sp.EndNs-sp.StartNs))
		st.self[sp.Name] = append(st.self[sp.Name], float64(self[sp.ID]))
	}
	return st
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
