package kalman

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows ...[]float64) *mat.Matrix {
	m := mat.New(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// newConstantVelocity1D builds a 1-D constant-velocity filter: state
// [position, velocity], observing position only.
func newConstantVelocity1D(t *testing.T, procNoise, obsNoise float64) *Filter {
	t.Helper()
	k, err := New(Config{
		InitialState:      mat.ColVector(0, 0),
		InitialCovariance: mat.Identity(2).Scale(100),
		Transition:        fromRows([]float64{1, 1}, []float64{0, 1}),
		Observation:       fromRows([]float64{1, 0}),
		ProcessNoise:      mat.Identity(2).Scale(procNoise),
		ObservationNoise:  fromRows([]float64{obsNoise}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil matrices should error")
	}
	f := mat.Identity(2)
	h := mat.Identity(2)
	bad := Config{
		InitialState:      mat.ColVector(0, 0),
		InitialCovariance: mat.Identity(3), // wrong shape
		Transition:        f,
		Observation:       h,
		ProcessNoise:      mat.Identity(2),
		ObservationNoise:  mat.Identity(2),
	}
	if _, err := New(bad); err == nil {
		t.Error("shape mismatch should error")
	}
	bad2 := bad
	bad2.InitialCovariance = mat.Identity(2)
	bad2.InitialState = mat.Identity(2) // not a column vector
	if _, err := New(bad2); err == nil {
		t.Error("non-column state should error")
	}
}

func TestTracksConstantVelocity(t *testing.T) {
	k := newConstantVelocity1D(t, 1e-4, 0.5)
	rng := rand.New(rand.NewSource(1))
	const velocity = 2.5
	for step := 1; step <= 200; step++ {
		k.Predict()
		truth := velocity * float64(step)
		z := mat.ColVector(truth + rng.NormFloat64()*0.5)
		if err := k.Update(z); err != nil {
			t.Fatalf("Update: %v", err)
		}
	}
	state := k.State()
	if math.Abs(state.At(0, 0)-velocity*200) > 2 {
		t.Errorf("position estimate %v, want ~%v", state.At(0, 0), velocity*200)
	}
	if math.Abs(state.At(1, 0)-velocity) > 0.3 {
		t.Errorf("velocity estimate %v, want ~%v", state.At(1, 0), velocity)
	}
}

func TestCovarianceShrinksWithMeasurements(t *testing.T) {
	k := newConstantVelocity1D(t, 1e-4, 1.0)
	before := k.p.At(0, 0)
	for i := 0; i < 10; i++ {
		k.Predict()
		if err := k.Update(mat.ColVector(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	after := k.p.At(0, 0)
	if after >= before {
		t.Errorf("covariance should shrink: before %v, after %v", before, after)
	}
}

func TestPredictGrowsUncertainty(t *testing.T) {
	k := newConstantVelocity1D(t, 0.1, 1.0)
	// Converge first.
	for i := 0; i < 20; i++ {
		k.Predict()
		if err := k.Update(mat.ColVector(0)); err != nil {
			t.Fatal(err)
		}
	}
	before := k.p.At(0, 0)
	for i := 0; i < 5; i++ {
		k.Predict()
	}
	after := k.p.At(0, 0)
	if after <= before {
		t.Errorf("predict-only should grow uncertainty: before %v, after %v", before, after)
	}
}

func TestUpdateMeasurementShape(t *testing.T) {
	k := newConstantVelocity1D(t, 1, 1)
	if err := k.Update(mat.ColVector(1, 2)); err == nil {
		t.Error("wrong measurement shape should error")
	}
}

func TestUpdatePullsTowardMeasurement(t *testing.T) {
	k := newConstantVelocity1D(t, 1e-3, 0.01)
	k.Predict()
	if err := k.Update(mat.ColVector(10)); err != nil {
		t.Fatal(err)
	}
	pos := k.State().At(0, 0)
	// High initial covariance + precise measurement: estimate jumps close to z.
	if math.Abs(pos-10) > 0.5 {
		t.Errorf("estimate %v, want near 10", pos)
	}
}

func TestStateReturnsCopy(t *testing.T) {
	k := newConstantVelocity1D(t, 1, 1)
	s := k.State()
	s.Set(0, 0, 999)
	if k.State().At(0, 0) == 999 {
		t.Error("State() must return a copy")
	}
}

func TestPredictAllocatesNothing(t *testing.T) {
	k := newBoxModel(t, 1)
	if n := testing.AllocsPerRun(100, k.Predict); n != 0 {
		t.Errorf("Predict allocated %v times, want 0", n)
	}
}

// newBoxModel is the tracker's 7-state constant-velocity box model
// observing [u, v, s, r], started at a seeded box.
func newBoxModel(t *testing.T, seed int64) *Filter {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := mat.Identity(7)
	for i := 0; i < 3; i++ {
		f.Set(i, i+4, 1)
	}
	h := mat.New(4, 7)
	p, q, r := mat.Identity(7), mat.Identity(7), mat.Identity(4)
	for i := 0; i < 7; i++ {
		if i < 4 {
			h.Set(i, i, 1)
			p.Set(i, i, 10)
		} else {
			p.Set(i, i, 10000)
			q.Set(i, i, 0.01)
		}
	}
	q.Set(6, 6, 0.0001)
	r.Set(2, 2, 10)
	r.Set(3, 3, 10)
	k, err := New(Config{
		InitialState:      mat.ColVector(100*rng.Float64(), 100*rng.Float64(), 200+50*rng.Float64(), 1+rng.Float64(), 0, 0, 0),
		InitialCovariance: p,
		Transition:        f,
		Observation:       h,
		ProcessNoise:      q,
		ObservationNoise:  r,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// oracleMul is a fresh a × b, summed in the order Mul sums.
func oracleMul(a, b *mat.Matrix) *mat.Matrix {
	out := mat.New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for k := 0; k < a.Cols(); k++ {
			if a.At(i, k) == 0 {
				continue
			}
			for j := 0; j < b.Cols(); j++ {
				out.Set(i, j, out.At(i, j)+a.At(i, k)*b.At(k, j))
			}
		}
	}
	return out
}

// oracleZip is a fresh matrix of op over a's and b's entries.
func oracleZip(a, b *mat.Matrix, op func(x, y float64) float64) *mat.Matrix {
	out := mat.New(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			out.Set(i, j, op(a.At(i, j), b.At(i, j)))
		}
	}
	return out
}

func plus(x, y float64) float64  { return x + y }
func minus(x, y float64) float64 { return x - y }

// TestInPlaceStepMatchesAllocatingFormulas runs 10⁴ seeded steps of the
// box model against the filter's formulas written with a fresh matrix per
// operation: state and covariance must agree bit for bit at every step.
func TestInPlaceStepMatchesAllocatingFormulas(t *testing.T) {
	k := newBoxModel(t, 44)
	x, p := k.State(), k.p.Clone()
	rng := rand.New(rand.NewSource(44))
	for step := 0; step < 10000; step++ {
		k.Predict()
		x = oracleMul(k.f, x)
		p = oracleZip(oracleMul(oracleMul(k.f, p), k.f.Transpose()), k.q, plus)
		if step%5 != 4 { // every fifth frame the track goes unmatched
			z := mat.ColVector(x.At(0, 0)+rng.NormFloat64(), x.At(1, 0)+rng.NormFloat64(),
				x.At(2, 0)+5*rng.NormFloat64(), x.At(3, 0)+0.05*rng.NormFloat64())
			if err := k.Update(z); err != nil {
				t.Fatal(err)
			}
			y := oracleZip(z, oracleMul(k.h, x), minus)
			s := oracleZip(oracleMul(oracleMul(k.h, p), k.h.Transpose()), k.r, plus)
			sInv, err := s.Inverse()
			if err != nil {
				t.Fatal(err)
			}
			gain := oracleMul(oracleMul(p, k.h.Transpose()), sInv)
			x = oracleZip(x, oracleMul(gain, y), plus)
			p = oracleMul(oracleZip(mat.Identity(7), oracleMul(gain, k.h), minus), p)
		}
		for _, c := range []struct {
			name      string
			got, want *mat.Matrix
		}{{"state", k.State(), x}, {"covariance", k.p, p}} {
			for i := 0; i < c.want.Rows(); i++ {
				for j := 0; j < c.want.Cols(); j++ {
					if g, w := c.got.At(i, j), c.want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("step %d: %s(%d,%d) = %v, want %v", step, c.name, i, j, g, w)
					}
				}
			}
		}
	}
}
