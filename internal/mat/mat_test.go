package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustFromRows builds a matrix from equal-length row slices.
func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			t.Fatalf("row %d has %d columns, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
}

func TestMul(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	want := mustFromRows(t, [][]float64{{19, 22}, {43, 50}})
	if got := New(2, 2).Mul(a, b); !got.EqualApprox(want, 1e-12) {
		t.Errorf("Mul =\n%v\nwant\n%v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	if got := New(4, 4).Mul(a, Identity(4)); !got.EqualApprox(a, 1e-12) {
		t.Error("A×I != A")
	}
	if got := New(4, 4).Mul(Identity(4), a); !got.EqualApprox(a, 1e-12) {
		t.Error("I×A != A")
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	New(2, 3).Mul(New(2, 3), New(2, 3))
}

func TestMulAliasPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on a destination that is an operand")
		}
	}()
	a := Identity(2)
	a.Mul(a, Identity(2))
}

// TestMulOverwritesDestination: a reused destination holds only the
// product, not the sum of it and what it held.
func TestMulOverwritesDestination(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	dst := mustFromRows(t, [][]float64{{9, 9}, {9, 9}})
	if got := dst.Mul(a, Identity(2)); got != dst || !dst.EqualApprox(a, 0) {
		t.Errorf("Mul into a used destination =\n%v\nwant\n%v", dst, a)
	}
}

func TestAddSubScale(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{10, 20}, {30, 40}})
	if got := New(2, 2).Add(a, b); got.At(1, 1) != 44 {
		t.Errorf("Add wrong: %v", got)
	}
	if got := New(2, 2).Sub(b, a); got.At(0, 0) != 9 {
		t.Errorf("Sub wrong: %v", got)
	}
	if got := a.Scale(3); got.At(1, 0) != 9 {
		t.Errorf("Scale wrong: %v", got)
	}
	// Operands untouched.
	if a.At(0, 0) != 1 || b.At(0, 0) != 10 {
		t.Error("operations must not mutate operands")
	}
	// The destination may be an operand.
	if c := a.Clone(); c.Add(c, b).At(1, 1) != 44 || c.Sub(c, b).At(1, 1) != 4 {
		t.Errorf("in-place Add/Sub wrong: %v", c)
	}
}

func TestTranspose(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("transpose values wrong:\n%v", at)
	}
	if !at.Transpose().EqualApprox(a, 0) {
		t.Error("double transpose should be identity operation")
	}
}

func TestInverse(t *testing.T) {
	a := mustFromRows(t, [][]float64{{4, 7}, {2, 6}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	want := mustFromRows(t, [][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !inv.EqualApprox(want, 1e-9) {
		t.Errorf("Inverse =\n%v\nwant\n%v", inv, want)
	}
}

func TestInverseSingular(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Error("non-square inverse should error")
	}
}

func TestInversePropertyAInvAIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the matrix comfortably invertible.
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		inv, err := a.Inverse()
		if err != nil {
			return false
		}
		return New(n, n).Mul(a, inv).EqualApprox(Identity(n), 1e-8) &&
			New(n, n).Mul(inv, a).EqualApprox(Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPivotingHandlesZeroLeadingEntry(t *testing.T) {
	a := mustFromRows(t, [][]float64{{0, 1}, {1, 0}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	if !inv.EqualApprox(a, 1e-12) {
		t.Errorf("permutation matrix is its own inverse, got\n%v", inv)
	}
}

func TestColVector(t *testing.T) {
	v := ColVector(1, 2, 3)
	if v.Rows() != 3 || v.Cols() != 1 || v.At(2, 0) != 3 {
		t.Errorf("ColVector wrong: %v", v)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone must be independent of original")
	}
}

func TestEqualApproxShapes(t *testing.T) {
	if New(2, 2).EqualApprox(New(2, 3), 1) {
		t.Error("different shapes must not be equal")
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	s := mustFromRows(t, [][]float64{{1.5, -2}, {0, math.Pi}}).String()
	if s == "" {
		t.Error("String() empty")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 3)
}
