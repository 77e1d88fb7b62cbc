package feature

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/imaging"
)

func coloredFrame(c imaging.Color) *imaging.Frame {
	f := imaging.MustNewFrame(64, 64)
	f.Fill(c)
	return f
}

func TestExtractNormalized(t *testing.T) {
	f := coloredFrame(imaging.Red)
	h, err := Extract(f, imaging.Rect{X: 10, Y: 10, W: 20, H: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !h.Valid() {
		t.Fatalf("histogram size = %d", len(h.Bins))
	}
	var sum float64
	for _, b := range h.Bins {
		sum += b
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("histogram sums to %v, want 1", sum)
	}
}

func TestExtractNilFrame(t *testing.T) {
	if _, err := Extract(nil, imaging.Rect{W: 5, H: 5}); err == nil {
		t.Error("nil frame should error")
	}
}

func TestExtractOffFrameBoxIsZero(t *testing.T) {
	f := coloredFrame(imaging.Red)
	h, err := Extract(f, imaging.Rect{X: 500, Y: 500, W: 10, H: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsZero() {
		t.Error("fully off-frame box should give zero histogram")
	}
}

func TestIdenticalColorsDistanceZero(t *testing.T) {
	f := coloredFrame(imaging.Red)
	box := imaging.Rect{X: 5, Y: 5, W: 30, H: 30}
	h1, err := Extract(f, box)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Extract(f, imaging.Rect{X: 20, Y: 20, W: 30, H: 30})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Bhattacharyya(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-6 {
		t.Errorf("same-color distance = %v, want ~0", d)
	}
}

func TestDifferentColorsDistanceLarge(t *testing.T) {
	hr, err := Extract(coloredFrame(imaging.Red), imaging.Rect{X: 5, Y: 5, W: 30, H: 30})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Extract(coloredFrame(imaging.Blue), imaging.Rect{X: 5, Y: 5, W: 30, H: 30})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Bhattacharyya(hr, hb)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.9 {
		t.Errorf("disjoint-color distance = %v, want ~1", d)
	}
}

func TestBhattacharyyaSizeMismatch(t *testing.T) {
	if _, err := Bhattacharyya(Histogram{Bins: make([]float64, 2)}, Histogram{Bins: make([]float64, 3)}); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestBhattacharyyaRangeProperty(t *testing.T) {
	f := func(seed1, seed2 uint8) bool {
		mk := func(seed uint8) Histogram {
			h := Histogram{Bins: make([]float64, HistogramSize)}
			// Put mass in a few pseudo-random bins.
			total := 0.0
			for i := 0; i < 5; i++ {
				idx := (int(seed)*31 + i*97) % HistogramSize
				h.Bins[idx] += float64(i + 1)
				total += float64(i + 1)
			}
			for i := range h.Bins {
				h.Bins[i] /= total
			}
			return h
		}
		a, b := mk(seed1), mk(seed2)
		d1, err1 := Bhattacharyya(a, b)
		d2, err2 := Bhattacharyya(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if d1 < 0 || d1 > 1 {
			return false
		}
		if math.Abs(d1-d2) > 1e-12 {
			return false // symmetry
		}
		self, err := Bhattacharyya(a, a)
		return err == nil && self < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCenterWeightingDiscountsBorder(t *testing.T) {
	// A frame whose center is red but whose border region is blue; a box
	// covering both should be dominated by the center color thanks to the
	// adaptive weighting.
	f := imaging.MustNewFrame(60, 60)
	f.Fill(imaging.Blue)
	f.FillRect(imaging.Rect{X: 18, Y: 18, W: 24, H: 24}, imaging.Red)
	h, err := Extract(f, imaging.Rect{X: 10, Y: 10, W: 40, H: 40})
	if err != nil {
		t.Fatal(err)
	}
	pureRed, err := Extract(coloredFrame(imaging.Red), imaging.Rect{X: 10, Y: 10, W: 40, H: 40})
	if err != nil {
		t.Fatal(err)
	}
	pureBlue, err := Extract(coloredFrame(imaging.Blue), imaging.Rect{X: 10, Y: 10, W: 40, H: 40})
	if err != nil {
		t.Fatal(err)
	}
	dRed, err := Bhattacharyya(h, pureRed)
	if err != nil {
		t.Fatal(err)
	}
	dBlue, err := Bhattacharyya(h, pureBlue)
	if err != nil {
		t.Fatal(err)
	}
	if dRed >= dBlue {
		t.Errorf("center color should dominate: dRed=%v dBlue=%v", dRed, dBlue)
	}
}

func TestAccumulatorAcrossFrames(t *testing.T) {
	acc := NewAccumulator()
	box := imaging.Rect{X: 10, Y: 10, W: 20, H: 20}
	if err := acc.Add(coloredFrame(imaging.Red), box); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(coloredFrame(imaging.Red), box); err != nil {
		t.Fatal(err)
	}
	h := acc.Histogram()
	single, err := Extract(coloredFrame(imaging.Red), box)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Bhattacharyya(h, single)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-6 {
		t.Errorf("accumulating identical frames should not change the signature, d=%v", d)
	}
}

func TestEmptyAccumulatorHistogram(t *testing.T) {
	h := NewAccumulator().Histogram()
	if !h.IsZero() || !h.Valid() {
		t.Error("empty accumulator should give a valid all-zero histogram")
	}
}

func TestBoxCentroids(t *testing.T) {
	cs := BoxCentroids([]imaging.Rect{
		{X: 0, Y: 0, W: 10, H: 10},
		{X: 10, Y: 0, W: 10, H: 10},
	})
	if len(cs) != 2 || cs[0].X != 5 || cs[1].X != 15 {
		t.Errorf("centroids = %v", cs)
	}
}

func TestEstimateDirection(t *testing.T) {
	line := func(dx, dy float64, n int) []Centroid {
		out := make([]Centroid, n)
		for i := range out {
			out[i] = Centroid{X: 100 + dx*float64(i), Y: 100 + dy*float64(i)}
		}
		return out
	}
	tests := []struct {
		name    string
		cs      []Centroid
		heading float64
		want    geo.Direction
	}{
		{"rightward camera-north", line(5, 0, 10), 0, geo.East},
		{"upward camera-north", line(0, -5, 10), 0, geo.North},
		{"downward camera-north", line(0, 5, 10), 0, geo.South},
		{"leftward camera-north", line(-5, 0, 10), 0, geo.West},
		{"rightward camera-east", line(5, 0, 10), 90, geo.South},
		{"upward camera-west", line(0, -5, 10), 270, geo.West},
		{"diagonal", line(5, -5, 10), 0, geo.NorthEast},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := EstimateDirection(tt.cs, tt.heading); got != tt.want {
				t.Errorf("EstimateDirection = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEstimateDirectionDegenerate(t *testing.T) {
	if got := EstimateDirection(nil, 0); got != geo.DirectionInvalid {
		t.Errorf("empty tracklet: %v", got)
	}
	if got := EstimateDirection([]Centroid{{X: 1, Y: 1}}, 0); got != geo.DirectionInvalid {
		t.Errorf("single point: %v", got)
	}
	still := []Centroid{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}}
	if got := EstimateDirection(still, 0); got != geo.DirectionInvalid {
		t.Errorf("stationary: %v", got)
	}
}

func TestEstimateDirectionRobustToJitter(t *testing.T) {
	// A rightward track with one wild outlier in the middle must still
	// read as East.
	cs := []Centroid{
		{X: 10, Y: 50}, {X: 15, Y: 50}, {X: 20, Y: 50},
		{X: 25, Y: 10}, // outlier
		{X: 30, Y: 50}, {X: 35, Y: 50}, {X: 40, Y: 50},
	}
	if got := EstimateDirection(cs, 0); got != geo.East {
		t.Errorf("jittered track direction = %v, want E", got)
	}
}

// denseBhattacharyya is the distance as a sum over every bin, the formula
// before the support-only sum: the oracle for its bits.
func denseBhattacharyya(p, q Histogram) (float64, error) {
	if len(p.Bins) != len(q.Bins) {
		return 0, fmt.Errorf("feature: histogram size mismatch %d vs %d", len(p.Bins), len(q.Bins))
	}
	var bc float64
	for i := range p.Bins {
		bc += math.Sqrt(p.Bins[i] * q.Bins[i])
	}
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc), nil
}

// TestSupportSumBitIdenticalToDenseSum: summing over p's non-zero bins
// gives the dense sum's exact bits, through Bhattacharyya and through
// SupportDistance, for signatures with 1–8 set bins and fully dense ones,
// with −0 in the empty bins, and with negative bins (a NaN term when
// multiplied by a positive bin, a −0 term against an empty one). A length
// mismatch is an error on both sides.
func TestSupportSumBitIdenticalToDenseSum(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	negZero := math.Copysign(0, -1)
	random := func(set int, negatives, negZeros bool) Histogram {
		h := Histogram{Bins: make([]float64, HistogramSize)}
		idx := rng.Perm(HistogramSize)[:set]
		var total float64
		for _, i := range idx {
			h.Bins[i] = rng.Float64()
			total += h.Bins[i]
		}
		for _, i := range idx {
			h.Bins[i] /= total
			if negatives && rng.Intn(4) == 0 {
				h.Bins[i] = -h.Bins[i]
			}
		}
		for i, b := range h.Bins {
			if negZeros && b == 0 && rng.Intn(2) == 0 {
				h.Bins[i] = negZero
			}
		}
		return h
	}
	sets := []int{1, 2, 3, 4, 5, 6, 7, 8, HistogramSize}
	compared := 0
	for trial := 0; trial < 400; trial++ {
		negatives, negZeros := trial%4 == 1, trial%4 == 2
		if trial%4 == 3 {
			negatives, negZeros = true, true
		}
		p := random(sets[rng.Intn(len(sets))], negatives, negZeros)
		q := random(sets[rng.Intn(len(sets))], negatives, negZeros)
		if trial%5 == 0 {
			// Overlapping supports, so many terms are non-zero.
			q = random(sets[rng.Intn(len(sets))], negatives, negZeros)
			for i, b := range p.Bins {
				if b != 0 && rng.Intn(2) == 0 {
					q.Bins[i] = math.Abs(b) * (0.5 + rng.Float64())
				}
			}
		}
		for _, pair := range [][2]Histogram{{p, q}, {q, p}, {p, p}} {
			want, _ := denseBhattacharyya(pair[0], pair[1])
			got, err := Bhattacharyya(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			viaSupport := SupportDistance(pair[0], AppendSupport(nil, pair[0]), pair[1])
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(viaSupport) != math.Float64bits(want) {
				t.Fatalf("trial %d: support-only distance %v (%#x), via SupportDistance %#x; dense %v (%#x)",
					trial, got, math.Float64bits(got), math.Float64bits(viaSupport), want, math.Float64bits(want))
			}
			compared++
		}
	}
	if compared != 1200 {
		t.Fatalf("compared %d pairs", compared)
	}

	short := Histogram{Bins: make([]float64, HistogramSize-1)}
	full := random(6, false, false)
	for _, pair := range [][2]Histogram{{short, full}, {full, short}} {
		_, wantErr := denseBhattacharyya(pair[0], pair[1])
		if _, err := Bhattacharyya(pair[0], pair[1]); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("length mismatch %d vs %d: error %v, dense %v", len(pair[0].Bins), len(pair[1].Bins), err, wantErr)
		}
	}
}
