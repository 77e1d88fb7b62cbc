// Package feature implements the signature extraction of Coral-Pie's
// vehicle identification element (paper Section 4.1.2): an adaptive
// color histogram that weights pixels near the center of the bounding box
// (following Tang et al., CVPRW 2018), the Bhattacharyya distance used to
// compare signatures during re-identification, and the direction-of-motion
// estimate derived from a tracklet's centroid sequence.
package feature

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/imaging"
)

// BinsPerChannel is the histogram resolution per RGB channel. 8 bins per
// channel gives the 512-bin signature carried in detection events.
const BinsPerChannel = 8

// HistogramSize is the total number of bins.
const HistogramSize = BinsPerChannel * BinsPerChannel * BinsPerChannel

// Histogram is a normalized color signature: entries sum to 1 (or the
// histogram is all zeros if it was built from no pixels).
type Histogram struct {
	Bins []float64 `json:"bins"`
}

// Valid reports whether the histogram has the expected bin count.
func (h Histogram) Valid() bool { return len(h.Bins) == HistogramSize }

// IsZero reports whether the histogram holds no mass.
func (h Histogram) IsZero() bool {
	for _, b := range h.Bins {
		if b != 0 {
			return false
		}
	}
	return true
}

func binIndex(c imaging.Color) int {
	const shift = 8 - 3 // 256 values -> 8 bins
	r := int(c.R) >> shift
	g := int(c.G) >> shift
	b := int(c.B) >> shift
	return (r*BinsPerChannel+g)*BinsPerChannel + b
}

// centerWeight returns the adaptive weight for a pixel at (x, y) within a
// box: a Gaussian centered on the box center whose scale tracks the box
// size, so border pixels (likely background) contribute little.
func centerWeight(x, y int, box imaging.Rect) float64 {
	cx, cy := box.CenterX(), box.CenterY()
	sx := float64(box.W) / 4
	sy := float64(box.H) / 4
	if sx <= 0 || sy <= 0 {
		return 1
	}
	dx := (float64(x) + 0.5 - cx) / sx
	dy := (float64(y) + 0.5 - cy) / sy
	return math.Exp(-(dx*dx + dy*dy) / 2)
}

// Accumulator builds an adaptive histogram incrementally across the frames
// of a tracklet. The zero value is not usable; call NewAccumulator.
type Accumulator struct {
	bins  []float64
	total float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{bins: make([]float64, HistogramSize)}
}

// Add folds the center-weighted pixels of box within img into the
// accumulator. Out-of-frame parts of the box are ignored.
func (a *Accumulator) Add(img *imaging.Frame, box imaging.Rect) error {
	if img == nil {
		return fmt.Errorf("feature: nil frame")
	}
	clipped := img.Clamp(box)
	if clipped.Empty() {
		return nil
	}
	for y := clipped.Y; y < clipped.Y+clipped.H; y++ {
		for x := clipped.X; x < clipped.X+clipped.W; x++ {
			w := centerWeight(x, y, box)
			a.bins[binIndex(img.At(x, y))] += w
			a.total += w
		}
	}
	return nil
}

// Histogram returns the normalized signature accumulated so far.
func (a *Accumulator) Histogram() Histogram {
	out := Histogram{Bins: make([]float64, HistogramSize)}
	if a.total == 0 {
		return out
	}
	inv := 1 / a.total
	for i, b := range a.bins {
		out.Bins[i] = b * inv
	}
	return out
}

// Extract computes the single-frame adaptive histogram for a box.
func Extract(img *imaging.Frame, box imaging.Rect) (Histogram, error) {
	acc := NewAccumulator()
	if err := acc.Add(img, box); err != nil {
		return Histogram{}, err
	}
	return acc.Histogram(), nil
}

// Bhattacharyya returns the Bhattacharyya distance between two normalized
// histograms: sqrt(1 − Σ sqrt(p·q)), which is 0 for identical
// distributions and 1 for disjoint ones. It returns an error if the
// histograms have mismatched sizes.
func Bhattacharyya(p, q Histogram) (float64, error) {
	if len(p.Bins) != len(q.Bins) {
		return 0, fmt.Errorf("feature: histogram size mismatch %d vs %d", len(p.Bins), len(q.Bins))
	}
	return SupportDistance(p, AppendSupport(nil, p), q), nil
}

// AppendSupport appends the indices of p's non-zero bins to dst, ascending.
func AppendSupport(dst []int, p Histogram) []int {
	for i, b := range p.Bins {
		if b != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// SupportDistance is Bhattacharyya for a q as long as p, given p's support
// (AppendSupport): a skipped term, sqrt(±0·q), is ±0 for a finite q, and
// adding ±0 to the sum (+0 or more) changes no bit.
func SupportDistance(p Histogram, support []int, q Histogram) float64 {
	var bc float64
	for _, i := range support {
		bc += math.Sqrt(p.Bins[i] * q.Bins[i])
	}
	if bc > 1 {
		bc = 1 // guard against accumulated floating-point excess
	}
	return math.Sqrt(1 - bc)
}

// Centroid is one tracklet point used for direction estimation.
type Centroid struct {
	X, Y float64
}

// BoxCentroids extracts the centroid sequence from tracklet boxes.
func BoxCentroids(boxes []imaging.Rect) []Centroid {
	out := make([]Centroid, 0, len(boxes))
	for _, b := range boxes {
		out = append(out, Centroid{X: b.CenterX(), Y: b.CenterY()})
	}
	return out
}

// EstimateDirection fits the dominant displacement of a centroid sequence
// (in image coordinates, +x right, +y down) and converts it to a compass
// direction using the camera's videoing angle: cameraHeadingDeg is the
// compass bearing that "up" in the image corresponds to in the world.
// It returns geo.DirectionInvalid when the tracklet shows no net motion.
func EstimateDirection(centroids []Centroid, cameraHeadingDeg float64) geo.Direction {
	if len(centroids) < 2 {
		return geo.DirectionInvalid
	}
	// Use the total-displacement vector between robust endpoint averages:
	// the mean of the first and last thirds of the tracklet, which damps
	// detector jitter better than first-to-last alone.
	k := len(centroids) / 3
	if k < 1 {
		k = 1
	}
	head := meanCentroid(centroids[:k])
	tail := meanCentroid(centroids[len(centroids)-k:])
	dx := tail.X - head.X
	dy := tail.Y - head.Y
	if math.Hypot(dx, dy) < 1e-6 {
		return geo.DirectionInvalid
	}
	// Image bearing: 0 = up, 90 = right (y grows downward).
	imageBearing := math.Atan2(dx, -dy) * 180 / math.Pi
	return geo.DirectionFromBearing(imageBearing + cameraHeadingDeg)
}

func meanCentroid(cs []Centroid) Centroid {
	var sx, sy float64
	for _, c := range cs {
		sx += c.X
		sy += c.Y
	}
	n := float64(len(cs))
	return Centroid{X: sx / n, Y: sy / n}
}
