// Package obs is Coral-Pie's runtime telemetry layer: a concurrent
// metric registry (counters, gauges, fixed-bucket histograms), a
// lightweight span/trace facility keyed by vehicle handoffs, and HTTP
// exposition (/metrics in Prometheus text format, /healthz, /debug/obs).
//
// The package is stdlib-only and allocation-free on the observation hot
// path: callers resolve metric handles once (get-or-create on the
// registry) and then touch only atomics. Metric names follow the
// convention coralpie_<subsystem>_<name>.
//
// Registries are injectable so that a DES-driven simulation can own an
// isolated registry whose observations — driven by the simulator's
// virtual clock through internal/clock — are bit-for-bit reproducible
// across runs. Components that are not handed a registry fall back to
// the process-wide Default registry, which is what the cmd/ binaries
// expose over HTTP.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType discriminates the registry's metric families.
type MetricType string

// The metric family types, matching Prometheus exposition TYPE values.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing count. The zero value is a valid
// standalone counter; registry-backed counters additionally appear in
// snapshots and HTTP exposition.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative deltas are ignored (counters
// are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets (cumulative
// upper bounds, +Inf implicit). Observations are float64s; for
// durations, use ObserveDuration which records seconds, the Prometheus
// convention.
type Histogram struct {
	upper  []float64 // sorted upper bounds, shared with the family
	counts []atomic.Uint64
	inf    atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated

	// Exemplar support is opt-in (EnableExemplars): the histogram keeps
	// the trace coordinates of the most recent sampled observation, so
	// an operator can jump from a bad latency bucket straight to the
	// trace that produced it via /debug/trace.
	exemplars atomic.Bool
	exemplar  atomic.Pointer[Exemplar]
}

// Exemplar links one recent histogram observation to the trace that
// produced it, in the OpenMetrics sense: a sampled value annotated with
// the trace/span it belongs to.
type Exemplar struct {
	TraceID string  `json:"traceId"`
	SpanID  string  `json:"spanId"`
	Value   float64 `json:"value"`
}

// EnableExemplars opts the histogram into exemplar capture. Call once at
// wiring time; until then ObserveWithExemplar records the value but
// drops the trace coordinates, so un-opted histograms stay allocation-
// free.
func (h *Histogram) EnableExemplars() { h.exemplars.Store(true) }

// ObserveWithExemplar records one sample and, when exemplars are enabled
// and sc identifies a sampled trace, publishes (sc, v) as the
// histogram's current exemplar. Unsampled and invalid contexts record
// the value only — an exemplar must point at a trace that /debug/trace
// can actually resolve.
func (h *Histogram) ObserveWithExemplar(v float64, sc SpanContext) {
	h.Observe(v)
	if h.exemplars.Load() && sc.Valid() && sc.Sampled {
		h.exemplar.Store(&Exemplar{TraceID: sc.TraceID, SpanID: sc.SpanID, Value: v})
	}
}

// Exemplar returns the most recent sampled exemplar, or nil when none
// has been captured (or exemplars were never enabled).
func (h *Histogram) Exemplar() *Exemplar { return h.exemplar.Load() }

// Observe records one sample. It performs no allocation.
func (h *Histogram) Observe(v float64) {
	// Inline binary search (sort.SearchFloat64s on the shared slice —
	// no allocation either way, but explicit keeps the hot path obvious).
	i, j := 0, len(h.upper)
	for i < j {
		m := int(uint(i+j) >> 1)
		if h.upper[m] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponential bucket upper bounds: start,
// start*factor, ..., start*factor^(n-1). It panics on invalid inputs
// (registration-time programmer error).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DurationBuckets is the default latency bucketing: 100µs to ~105s in
// exponential steps of 4, wide enough for both the microsecond-scale
// pipeline stages of Table 1 and multi-second recovery timings.
func DurationBuckets() []float64 { return ExpBuckets(100e-6, 4, 10) }

// family is one named metric with a fixed type and a child per label set.
type family struct {
	name    string
	help    string
	typ     MetricType
	buckets []float64 // histograms only

	children map[string]any // label fingerprint -> *Counter / *Gauge / *Histogram
	labels   map[string][]string
}

// Registry holds metric families and hands out metric handles. All
// methods are safe for concurrent use; handle lookups take a lock, so
// callers on hot paths should resolve handles once up front.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by components that are
// not explicitly handed one.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter for name and the given label pairs
// (k1, v1, k2, v2, ...), creating it on first use. It panics on invalid
// names, odd label lists, or a name already registered with a different
// type — all registration-time programmer errors.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.child(name, help, TypeCounter, nil, labels)
	return m.(*Counter)
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m := r.child(name, help, TypeGauge, nil, labels)
	return m.(*Gauge)
}

// Histogram returns the histogram for name and labels, creating it on
// first use. buckets is consulted only on first registration of the
// family; nil uses DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	m := r.child(name, help, TypeHistogram, buckets, labels)
	return m.(*Histogram)
}

func (r *Registry) child(name, help string, typ MetricType, buckets []float64, labels []string) any {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list %q", name, labels))
	}
	pairs := canonicalize(labels)
	key := fingerprint(pairs)

	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		b := buckets
		if typ == TypeHistogram {
			if b == nil {
				b = DurationBuckets()
			}
			b = append([]float64(nil), b...)
			sort.Float64s(b)
		}
		fam = &family{
			name:     name,
			help:     help,
			typ:      typ,
			buckets:  b,
			children: make(map[string]any),
			labels:   make(map[string][]string),
		}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, fam.typ, typ))
	}
	if child, ok := fam.children[key]; ok {
		return child
	}
	var child any
	switch typ {
	case TypeCounter:
		child = &Counter{}
	case TypeGauge:
		child = &Gauge{}
	case TypeHistogram:
		child = &Histogram{
			upper:  fam.buckets,
			counts: make([]atomic.Uint64, len(fam.buckets)),
		}
	}
	fam.children[key] = child
	fam.labels[key] = pairs
	return child
}

// ValidName reports whether name is a metric name the registry accepts:
// [a-zA-Z_:][a-zA-Z0-9_:]*, the Prometheus metric-name grammar.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// canonicalize sorts label pairs by key so the same labels in any order
// map to the same child.
func canonicalize(labels []string) []string {
	n := len(labels) / 2
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, len(labels))
	for _, i := range idx {
		out = append(out, labels[2*i], labels[2*i+1])
	}
	return out
}

func fingerprint(pairs []string) string {
	return strings.Join(pairs, "\x00")
}

// Label is one name/value pair in a snapshot.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// BucketCount is one histogram bucket in a snapshot: the cumulative
// count of observations at or below the upper bound.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the upper bound as a string — the final bucket's
// bound is +Inf, which JSON numbers cannot represent (encoding/json
// would fail the whole document). Matches the Prometheus API, which
// also stringifies le.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, formatFloat(b.UpperBound), b.Count)), nil
}

// UnmarshalJSON accepts the stringified bound written by MarshalJSON.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    string `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	ub, err := parseFloat(raw.Le)
	if err != nil {
		return fmt.Errorf("obs: bucket bound %q: %w", raw.Le, err)
	}
	b.UpperBound = ub
	b.Count = raw.Count
	return nil
}

func parseFloat(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// MetricSnapshot is one metric (one label set) frozen at snapshot time.
type MetricSnapshot struct {
	Labels []Label `json:"labels,omitempty"`
	// Value holds counter and gauge values.
	Value int64 `json:"value,omitempty"`
	// Count, Sum, and Buckets hold histogram state.
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Exemplar is the histogram's most recent sampled exemplar, if any.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// FamilySnapshot is one metric family frozen at snapshot time.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Type    MetricType       `json:"type"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot is a point-in-time copy of a registry, ordered
// deterministically (families by name, children by label fingerprint) so
// equal registry states render identically.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Snapshot freezes the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(names))}
	for _, name := range names {
		fam := r.families[name]
		fs := FamilySnapshot{Name: fam.name, Help: fam.help, Type: fam.typ}
		keys := make([]string, 0, len(fam.children))
		for key := range fam.children {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ms := MetricSnapshot{Labels: labelsOf(fam.labels[key])}
			switch child := fam.children[key].(type) {
			case *Counter:
				ms.Value = child.Value()
			case *Gauge:
				ms.Value = child.Value()
			case *Histogram:
				ms.Count = child.Count()
				ms.Sum = child.Sum()
				ms.Exemplar = child.Exemplar()
				var cum uint64
				for i, ub := range fam.buckets {
					cum += child.counts[i].Load()
					ms.Buckets = append(ms.Buckets, BucketCount{UpperBound: ub, Count: cum})
				}
				ms.Buckets = append(ms.Buckets, BucketCount{
					UpperBound: math.Inf(1),
					Count:      cum + child.inf.Load(),
				})
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

func labelsOf(pairs []string) []Label {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]Label, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, Label{Name: pairs[i], Value: pairs[i+1]})
	}
	return out
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Output ordering is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteSnapshotPrometheus(w, r.Snapshot())
}

// WriteSnapshotPrometheus renders an already-taken snapshot in
// Prometheus text exposition format. It is the single renderer behind
// both a registry's /metrics endpoint and the fleet monitor's federated
// /cluster/metrics view (which synthesizes snapshots that never lived in
// one registry). Histogram exemplars are appended to the bucket the
// exemplar value falls in, using OpenMetrics exemplar syntax:
//
//	name_bucket{le="0.1"} 5 # {trace_id="evt-3",span_id="cam1-7"} 0.093
func WriteSnapshotPrometheus(w io.Writer, snap Snapshot) error {
	var b strings.Builder
	for _, fam := range snap.Families {
		if fam.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.Name, fam.Type)
		for _, m := range fam.Metrics {
			switch fam.Type {
			case TypeCounter, TypeGauge:
				b.WriteString(fam.Name)
				writeLabels(&b, m.Labels, "", 0)
				fmt.Fprintf(&b, " %d\n", m.Value)
			case TypeHistogram:
				exemplarAt := -1
				if m.Exemplar != nil {
					exemplarAt = len(m.Buckets) - 1
					for i, bc := range m.Buckets {
						if m.Exemplar.Value <= bc.UpperBound {
							exemplarAt = i
							break
						}
					}
				}
				for i, bc := range m.Buckets {
					b.WriteString(fam.Name)
					b.WriteString("_bucket")
					writeLabels(&b, m.Labels, "le", bc.UpperBound)
					fmt.Fprintf(&b, " %d", bc.Count)
					if i == exemplarAt {
						fmt.Fprintf(&b, " # {trace_id=%q,span_id=%q} %s",
							escapeLabel(m.Exemplar.TraceID), escapeLabel(m.Exemplar.SpanID),
							formatFloat(m.Exemplar.Value))
					}
					b.WriteByte('\n')
				}
				b.WriteString(fam.Name)
				b.WriteString("_sum")
				writeLabels(&b, m.Labels, "", 0)
				fmt.Fprintf(&b, " %s\n", formatFloat(m.Sum))
				b.WriteString(fam.Name)
				b.WriteString("_count")
				writeLabels(&b, m.Labels, "", 0)
				fmt.Fprintf(&b, " %d\n", m.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLabels renders {k="v",...}, optionally appending an le bucket
// label. No braces are emitted when there are no labels at all.
func writeLabels(b *strings.Builder, labels []Label, le string, ub float64) {
	if len(labels) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		b.WriteString(formatFloat(ub))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
