// Package kalman implements a linear Kalman filter. The SORT tracker uses
// it with the standard constant-velocity bounding-box model from Bewley et
// al. (ICIP 2016): state [u, v, s, r, u̇, v̇, ṡ] where (u, v) is the box
// center, s its area, and r its aspect ratio.
package kalman

import (
	"fmt"

	"repro/internal/mat"
)

// Filter is a linear Kalman filter with fixed matrices F, H, Q, R. It
// steps in place: Fᵀ and Hᵀ are computed once and every intermediate
// lives in a matrix the filter owns, so Predict allocates nothing and
// Update allocates only inside the inverse of S.
type Filter struct {
	x, p       *mat.Matrix // state estimate n×1, state covariance n×n
	f, h       *mat.Matrix // state transition n×n, observation model m×n
	q, r       *mat.Matrix // process noise n×n, observation noise m×m covariances
	ft, ht, id *mat.Matrix // Fᵀ, Hᵀ and the n×n identity
	// Scratch, by shape: n×1, n×n, n×n, m×1, m×n, m×m, n×m, n×m.
	xn, nn, nn2, y, mn, s, nm, gain *mat.Matrix
}

// Config collects the matrices and initial conditions for a Filter.
type Config struct {
	InitialState      *mat.Matrix // n×1
	InitialCovariance *mat.Matrix // n×n
	Transition        *mat.Matrix // F, n×n
	Observation       *mat.Matrix // H, m×n
	ProcessNoise      *mat.Matrix // Q, n×n
	ObservationNoise  *mat.Matrix // R, m×m
}

// New validates the configuration shapes and returns a Filter.
func New(cfg Config) (*Filter, error) {
	if cfg.InitialState == nil || cfg.InitialCovariance == nil ||
		cfg.Transition == nil || cfg.Observation == nil ||
		cfg.ProcessNoise == nil || cfg.ObservationNoise == nil {
		return nil, fmt.Errorf("kalman: all config matrices are required")
	}
	n := cfg.InitialState.Rows()
	m := cfg.Observation.Rows()
	if cfg.InitialState.Cols() != 1 {
		return nil, fmt.Errorf("kalman: initial state must be a column vector")
	}
	checks := []struct {
		name       string
		mtx        *mat.Matrix
		rows, cols int
	}{
		{"InitialCovariance", cfg.InitialCovariance, n, n},
		{"Transition", cfg.Transition, n, n},
		{"Observation", cfg.Observation, m, n},
		{"ProcessNoise", cfg.ProcessNoise, n, n},
		{"ObservationNoise", cfg.ObservationNoise, m, m},
	}
	for _, c := range checks {
		if c.mtx.Rows() != c.rows || c.mtx.Cols() != c.cols {
			return nil, fmt.Errorf("kalman: %s is %dx%d, want %dx%d",
				c.name, c.mtx.Rows(), c.mtx.Cols(), c.rows, c.cols)
		}
	}
	return &Filter{
		x: cfg.InitialState.Clone(), p: cfg.InitialCovariance.Clone(),
		f: cfg.Transition.Clone(), h: cfg.Observation.Clone(),
		q: cfg.ProcessNoise.Clone(), r: cfg.ObservationNoise.Clone(),
		ft: cfg.Transition.Transpose(), ht: cfg.Observation.Transpose(), id: mat.Identity(n),
		xn: mat.New(n, 1), nn: mat.New(n, n), nn2: mat.New(n, n), y: mat.New(m, 1),
		mn: mat.New(m, n), s: mat.New(m, m), nm: mat.New(n, m), gain: mat.New(n, m),
	}, nil
}

// State returns a copy of the current state estimate.
func (k *Filter) State() *mat.Matrix { return k.x.Clone() }

// Predict advances the state one step through the transition model:
// x ← Fx, P ← FPFᵀ + Q.
func (k *Filter) Predict() {
	k.xn.Mul(k.f, k.x)
	k.x, k.xn = k.xn, k.x
	k.p.Mul(k.nn.Mul(k.f, k.p), k.ft).Add(k.p, k.q)
}

// Update incorporates a measurement z (m×1):
//
//	y = z − Hx
//	S = HPHᵀ + R
//	K = PHᵀS⁻¹
//	x ← x + Ky
//	P ← (I − KH)P
func (k *Filter) Update(z *mat.Matrix) error {
	if z.Rows() != k.h.Rows() || z.Cols() != 1 {
		return fmt.Errorf("kalman: measurement is %dx%d, want %dx1", z.Rows(), z.Cols(), k.h.Rows())
	}
	y := k.y.Mul(k.h, k.x)
	y.Sub(z, y)
	s := k.s.Mul(k.mn.Mul(k.h, k.p), k.ht).Add(k.s, k.r)
	sInv, err := s.Inverse()
	if err != nil {
		return fmt.Errorf("kalman: innovation covariance: %w", err)
	}
	gain := k.gain.Mul(k.nm.Mul(k.p, k.ht), sInv)
	k.x.Add(k.x, k.xn.Mul(gain, y))
	ikh := k.nn.Sub(k.id, k.nn2.Mul(gain, k.h))
	k.nn2.Mul(ikh, k.p)
	k.p, k.nn2 = k.nn2, k.p
	return nil
}
