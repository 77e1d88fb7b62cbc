// Package metrics implements the evaluation arithmetic of the paper's
// Section 5: precision/recall/F-beta scoring of detection events against
// ground truth (Table 2), transition scoring for cross-camera
// re-identification accuracy (Section 5.6), and a nearest-rank latency
// recorder.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Confusion counts true positives, false positives, and false negatives.
type Confusion struct {
	TP int
	FP int
	FN int
}

// Precision returns TP / (TP + FP), or 1 when nothing was predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 1 when there was nothing to find.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FBeta combines precision and recall, weighting recall beta times as
// much as precision. The paper reports F2 (beta=2), which emphasizes
// minimizing false negatives.
func FBeta(precision, recall, beta float64) float64 {
	if precision <= 0 && recall <= 0 {
		return 0
	}
	b2 := beta * beta
	denom := b2*precision + recall
	if denom == 0 {
		return 0
	}
	return (1 + b2) * precision * recall / denom
}

// F2 returns the F2 score of the confusion counts.
func (c Confusion) F2() float64 {
	return FBeta(c.Precision(), c.Recall(), 2)
}

// Add accumulates another confusion into this one.
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
}

// Interval is one ground-truth vehicle pass through a camera's field of
// view.
type Interval struct {
	ID    string // ground-truth vehicle identity
	Enter time.Duration
	Exit  time.Duration
}

// ScoredEvent is one generated detection event reduced to what scoring
// needs: the ground-truth identity it claims (empty for pure false
// positives) and when it fired.
type ScoredEvent struct {
	TruthID string
	At      time.Duration
}

// ScoreEvents compares generated detection events against ground-truth
// visits for one camera: each visit should yield exactly one event for
// its vehicle no later than slack after the visit ends. Extra events for
// the same visit, events for absent vehicles, and truthless events are
// false positives; visits with no event are false negatives.
func ScoreEvents(truth []Interval, events []ScoredEvent, slack time.Duration) Confusion {
	type visitKey struct {
		id    string
		index int
	}
	// Index visits by vehicle, in time order.
	byVehicle := make(map[string][]Interval)
	for _, v := range truth {
		byVehicle[v.ID] = append(byVehicle[v.ID], v)
	}
	for id := range byVehicle {
		vs := byVehicle[id]
		sort.Slice(vs, func(i, j int) bool { return vs[i].Enter < vs[j].Enter })
		byVehicle[id] = vs
	}
	consumed := make(map[visitKey]bool)

	var c Confusion
	ordered := append([]ScoredEvent(nil), events...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, e := range ordered {
		if e.TruthID == "" {
			c.FP++
			continue
		}
		matched := false
		for i, v := range byVehicle[e.TruthID] {
			key := visitKey{id: e.TruthID, index: i}
			if consumed[key] {
				continue
			}
			// The event must fire during or shortly after the visit.
			if e.At >= v.Enter && e.At <= v.Exit+slack {
				consumed[key] = true
				matched = true
				break
			}
		}
		if matched {
			c.TP++
		} else {
			c.FP++
		}
	}
	for id, vs := range byVehicle {
		for i := range vs {
			if !consumed[visitKey{id: id, index: i}] {
				c.FN++
			}
		}
	}
	return c
}

// Transition is one ground-truth consecutive camera-to-camera movement of
// a vehicle.
type Transition struct {
	VehicleID string
	FromCam   string
	ToCam     string
}

// MatchedEdge is one re-identification result: the trajectory edge's
// upstream and downstream events reduced to their camera and ground-truth
// identities.
type MatchedEdge struct {
	FromCam   string
	ToCam     string
	FromTruth string
	ToTruth   string
}

// ScoreTransitions compares re-identification edges against ground-truth
// transitions. An edge is a true positive when both endpoints carry the
// same vehicle identity and that (vehicle, fromCam, toCam) transition is
// in the ground truth (each truth transition can be consumed once); every
// other edge is a false positive; unconsumed transitions are false
// negatives.
func ScoreTransitions(truth []Transition, edges []MatchedEdge) Confusion {
	remaining := make(map[Transition]int)
	for _, tr := range truth {
		remaining[tr]++
	}
	var c Confusion
	for _, e := range edges {
		if e.FromTruth == "" || e.FromTruth != e.ToTruth {
			c.FP++
			continue
		}
		key := Transition{VehicleID: e.FromTruth, FromCam: e.FromCam, ToCam: e.ToCam}
		if remaining[key] > 0 {
			remaining[key]--
			c.TP++
		} else {
			c.FP++
		}
	}
	for _, n := range remaining {
		c.FN += n
	}
	return c
}

// LatencyRecorder accumulates duration samples. Safe for concurrent use.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// Add records one sample.
func (r *LatencyRecorder) Add(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

// Mean returns the average sample, or 0 with no samples.
func (r *LatencyRecorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or an error with no samples.
func (r *LatencyRecorder) Percentile(p float64) (time.Duration, error) {
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v out of (0,100]", p)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0, fmt.Errorf("metrics: no samples")
	}
	r.sortLocked()
	// Nearest-rank: rank = ceil(p*n/100), computed exactly in integers.
	// Percentiles are taken at micro-percent precision so that float
	// artifacts in p itself (30.000000000000004 from 3*10.0, say) do not
	// bump the rank, while any real excess above a sample boundary does.
	n := int64(len(r.samples))
	pScaled := int64(math.Round(p * 1e6)) // micro-percents, exact for any sane p
	const whole = 100 * 1e6               // 100% in micro-percents
	rank := int((pScaled*n + whole - 1) / whole)
	if rank < 1 {
		rank = 1
	}
	return r.samples[rank-1], nil
}

// Max returns the largest sample, or 0 with no samples.
func (r *LatencyRecorder) Max() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	r.sortLocked()
	return r.samples[len(r.samples)-1]
}

func (r *LatencyRecorder) sortLocked() {
	if r.sorted {
		return
	}
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
	r.sorted = true
}
