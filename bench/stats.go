package main

import (
	"math"
	"sort"
	"time"
)

// timing is the summary every latency metric is reported as: the sample
// count, the median, the fixed p95 the metric names use, and the highest
// percentile the sample supports (TailPct, Tail).
type timing struct {
	N       int     `json:"n"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// tailCandidates are the percentiles a timing may be reported at, low to
// high, in tenths of a percent so the sample count beyond each is exact.
var tailCandidates = []int{500, 750, 900, 950, 990, 999}

// highestPercentile returns the highest candidate percentile that still
// has at least ten samples beyond it, or 0 when not even the median does
// (n < 20): a percentile with fewer samples above it is one outlier away
// from a different value.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if n*(1000-p) >= 10*1000 {
			best = float64(p) / 10
		}
	}
	return best
}

// percentile interpolates linearly between closest ranks of a sorted
// sample, the same rule as numpy's default.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func summarize(values []float64) timing {
	if len(values) == 0 {
		return timing{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	t := timing{N: len(s), Mean: sum / float64(len(s)), P50: percentile(s, 50), P95: percentile(s, 95)}
	if p := highestPercentile(len(s)); p > 0 {
		t.TailPct, t.Tail = p, percentile(s, p)
	}
	return t
}

func median(values []float64) float64 { return quantile(values, 50) }

// quantile is percentile on an unsorted sample.
func quantile(values []float64, p float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, p)
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so the
// figure matches what the accepting driver computes. It needs two values.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// openLoop accounts for a fixed-rate generator: every operation has a due
// time on the schedule; latency counts from the due time, so a stall is
// charged to every operation it delayed, and lateness (start minus due)
// shows how far the generator itself ran behind.
type openLoop struct {
	start    time.Time
	interval time.Duration
	late     []float64 // ms
}

func (o *openLoop) due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// begin records that operation i started at now and returns its due time.
func (o *openLoop) begin(i int, now time.Time) time.Time {
	due := o.due(i)
	lateMs := float64(now.Sub(due)) / float64(time.Millisecond)
	if lateMs < 0 {
		lateMs = 0
	}
	o.late = append(o.late, lateMs)
	return due
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
