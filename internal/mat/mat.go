// Package mat implements the small dense-matrix operations needed by the
// Kalman filter in the SORT tracker. Matrices are row-major float64 and
// sized for state dimensions under ~10, so simplicity beats cache tricks.
// Mul, Add and Sub write into their receiver, gonum-style (dst.Mul(a, b)),
// so a filter step reuses matrices it owns instead of allocating.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned by Inverse when the matrix has no inverse.
var ErrSingular = errors.New("mat: matrix is singular")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a rows×cols zero matrix. It panics if either dimension is
// not positive, which indicates a programming error rather than a runtime
// condition.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// ColVector returns a len(v)×1 column vector with the given entries.
func ColVector(v ...float64) *Matrix {
	m := New(len(v), 1)
	copy(m.data, v)
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul sets m to a × b and returns m. m must be a.Rows()×b.Cols() and
// share no storage with a or b.
func (m *Matrix) Mul(a, b *Matrix) *Matrix {
	if a.cols != b.rows || m.rows != a.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d = %dx%d × %dx%d", m.rows, m.cols, a.rows, a.cols, b.rows, b.cols))
	}
	if &m.data[0] == &a.data[0] || &m.data[0] == &b.data[0] {
		panic("mat: Mul destination aliases an operand")
	}
	clear(m.data)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			aik := a.data[i*a.cols+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				m.data[i*b.cols+j] += aik * b.data[k*b.cols+j]
			}
		}
	}
	return m
}

// Add sets m to a + b and returns m. All three have one shape; m may be
// a or b.
func (m *Matrix) Add(a, b *Matrix) *Matrix {
	m.mustSameShape(a, "Add")
	m.mustSameShape(b, "Add")
	for i := range m.data {
		m.data[i] = a.data[i] + b.data[i]
	}
	return m
}

// Sub sets m to a − b and returns m. All three have one shape; m may be
// a or b.
func (m *Matrix) Sub(a, b *Matrix) *Matrix {
	m.mustSameShape(a, "Sub")
	m.mustSameShape(b, "Sub")
	for i := range m.data {
		m.data[i] = a.data[i] - b.data[i]
	}
	return m
}

// Scale returns m scaled by s.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Inverse returns m⁻¹ computed by Gauss-Jordan elimination with partial
// pivoting. It returns ErrSingular when no inverse exists.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("mat: Inverse of non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest absolute value.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		pv := a.At(pivot, col)
		if math.Abs(pv) < 1e-12 {
			return nil, ErrSingular
		}
		a.swapRows(col, pivot)
		inv.swapRows(col, pivot)
		invPv := 1 / pv
		for j := 0; j < n; j++ {
			a.data[col*n+j] *= invPv
			inv.data[col*n+j] *= invPv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.data[r*n+j] -= f * a.data[col*n+j]
				inv.data[r*n+j] -= f * inv.data[col*n+j]
			}
		}
	}
	return inv, nil
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// EqualApprox reports whether m and b have the same shape and all entries
// within tol of each other.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a compact row-per-line layout.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteByte('\n')
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.4g", m.At(i, j))
		}
	}
	return sb.String()
}

func (m *Matrix) mustSameShape(b *Matrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}
