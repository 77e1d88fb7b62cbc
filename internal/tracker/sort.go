// Package tracker implements the SORT multi-object tracker (Bewley et al.,
// "Simple Online and Realtime Tracking", ICIP 2016) that Coral-Pie runs on
// RPi 2 to de-duplicate per-frame detections into one detection event per
// vehicle (paper Section 4.1.2).
package tracker

import (
	"fmt"
	"math"

	"repro/internal/hungarian"
	"repro/internal/imaging"
	"repro/internal/kalman"
	"repro/internal/mat"
	"repro/internal/vision"
)

// Config parameterizes the SORT tracker.
type Config struct {
	// MaxAge is how many consecutive frames a track may go unmatched
	// before it is considered departed (paper prototype: 3).
	MaxAge int
	// MinHits is how many matches a track needs before it is reported as
	// confirmed output.
	MinHits int
	// IoUThreshold is the minimum IoU for a detection-track match.
	IoUThreshold float64
}

// DefaultConfig returns the prototype parameters: the paper's max_age of
// 3, the reference SORT implementation's min_hits of 3 (suppressing
// single-frame false-positive tracks), and an IoU gate suited to the
// small boxes distant vehicles produce.
func DefaultConfig() Config {
	return Config{MaxAge: 3, MinHits: 3, IoUThreshold: 0.25}
}

func (c Config) validate() error {
	if c.MaxAge < 1 {
		return fmt.Errorf("tracker: MaxAge %d must be >= 1", c.MaxAge)
	}
	if c.MinHits < 1 {
		return fmt.Errorf("tracker: MinHits %d must be >= 1", c.MinHits)
	}
	if c.IoUThreshold <= 0 || c.IoUThreshold > 1 {
		return fmt.Errorf("tracker: IoUThreshold %v out of (0,1]", c.IoUThreshold)
	}
	return nil
}

// Observation is one matched detection on a track's tracklet.
type Observation struct {
	Seq       int64
	Box       imaging.Rect
	TruthID   string
	DetsIndex int // index into the Update call's detection slice
}

// Track is one tracked object. A track accumulates its tracklet (the
// sequence of matched boxes) so that feature extraction can run when the
// vehicle departs.
type Track struct {
	ID              int64
	Hits            int
	Age             int
	TimeSinceUpdate int
	Tracklet        []Observation

	kf *kalman.Filter
}

// PredictedBox returns the current Kalman state as a bounding box.
func (t *Track) PredictedBox() imaging.Rect {
	return stateToRect(t.kf.State())
}

// Confirmed reports whether the track has at least minHits matches.
func (t *Track) confirmed(minHits int) bool { return t.Hits >= minHits }

// Tracker is a SORT tracker. It is not safe for concurrent use; each
// camera pipeline owns one.
type Tracker struct {
	cfg    Config
	nextID int64
	tracks []*Track
}

// New validates the config and returns an empty tracker.
func New(cfg Config) (*Tracker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tracker{cfg: cfg, nextID: 1}, nil
}

// Assignment maps a detection index (into the Update call's slice) to the
// track it matched.
type Assignment struct {
	DetIndex int
	TrackID  int64
	IsNew    bool
}

// UpdateResult reports the outcome of one tracker step.
type UpdateResult struct {
	// Assignments covers every detection: matched to an existing track or
	// starting a new one.
	Assignments []Assignment
	// Departed holds tracks removed this step because they went unmatched
	// for more than MaxAge frames. The camera node turns each confirmed
	// departed track into a single vehicle detection event.
	Departed []*Track
	// Active is the number of live tracks after the update.
	Active int
}

// Update advances every track one frame, matches the detections to
// predicted boxes by maximum-IoU assignment, spawns tracks for unmatched
// detections, and retires tracks unmatched for more than MaxAge frames.
func (tr *Tracker) Update(seq int64, dets []vision.Detection) (UpdateResult, error) {
	// 1. Predict all tracks forward.
	for _, t := range tr.tracks {
		t.kf.Predict()
		t.Age++
		t.TimeSinceUpdate++
	}

	// 2. Associate detections to tracks by IoU.
	matchedDet := make([]int, len(dets)) // det index -> track index, -1 if none
	for i := range matchedDet {
		matchedDet[i] = -1
	}
	if len(dets) > 0 && len(tr.tracks) > 0 {
		iou := make([][]float64, len(dets))
		for i := range dets {
			iou[i] = make([]float64, len(tr.tracks))
		}
		for j, t := range tr.tracks {
			box := t.PredictedBox() // once per track, not per (detection, track)
			for i, d := range dets {
				iou[i][j] = d.Box.IoU(box)
			}
		}
		assign, _, err := hungarian.SolveMax(iou)
		if err != nil {
			return UpdateResult{}, fmt.Errorf("tracker: assignment: %w", err)
		}
		for i, j := range assign {
			if j == hungarian.Unassigned {
				continue
			}
			if iou[i][j] < tr.cfg.IoUThreshold {
				continue // reject weak matches
			}
			matchedDet[i] = j
		}
	}

	res := UpdateResult{Assignments: make([]Assignment, 0, len(dets))}

	// 3. Update matched tracks; spawn tracks for unmatched detections.
	for i, d := range dets {
		if j := matchedDet[i]; j >= 0 {
			t := tr.tracks[j]
			if err := t.kf.Update(rectToMeasurement(d.Box)); err != nil {
				return UpdateResult{}, fmt.Errorf("tracker: kalman update: %w", err)
			}
			t.Hits++
			t.TimeSinceUpdate = 0
			t.Tracklet = append(t.Tracklet, Observation{Seq: seq, Box: d.Box, TruthID: d.TruthID, DetsIndex: i})
			res.Assignments = append(res.Assignments, Assignment{DetIndex: i, TrackID: t.ID})
			continue
		}
		t, err := tr.newTrack(seq, i, d)
		if err != nil {
			return UpdateResult{}, err
		}
		tr.tracks = append(tr.tracks, t)
		res.Assignments = append(res.Assignments, Assignment{DetIndex: i, TrackID: t.ID, IsNew: true})
	}

	// 4. Retire stale tracks.
	live := tr.tracks[:0]
	for _, t := range tr.tracks {
		if t.TimeSinceUpdate > tr.cfg.MaxAge {
			res.Departed = append(res.Departed, t)
			continue
		}
		live = append(live, t)
	}
	// Zero the tail so retired tracks do not linger in the backing array.
	for i := len(live); i < len(tr.tracks); i++ {
		tr.tracks[i] = nil
	}
	tr.tracks = live
	res.Active = len(tr.tracks)
	return res, nil
}

// Flush retires every live track, returning them as departed. Used at
// end-of-stream so that vehicles still in the field of view produce their
// detection events.
func (tr *Tracker) Flush() []*Track {
	out := tr.tracks
	tr.tracks = nil
	return out
}

// ConfirmedDeparted filters departed tracks to those that met MinHits,
// which is the set the camera node emits as detection events.
func (tr *Tracker) ConfirmedDeparted(departed []*Track) []*Track {
	out := make([]*Track, 0, len(departed))
	for _, t := range departed {
		if t.confirmed(tr.cfg.MinHits) {
			out = append(out, t)
		}
	}
	return out
}

func (tr *Tracker) newTrack(seq int64, detIndex int, d vision.Detection) (*Track, error) {
	kf, err := newBoxFilter(d.Box)
	if err != nil {
		return nil, fmt.Errorf("tracker: new track: %w", err)
	}
	t := &Track{
		ID:       tr.nextID,
		Hits:     1,
		kf:       kf,
		Tracklet: []Observation{{Seq: seq, Box: d.Box, TruthID: d.TruthID, DetsIndex: detIndex}},
	}
	tr.nextID++
	return t, nil
}

// --- bounding-box Kalman model (constant velocity, Bewley et al.) ---

// newBoxFilter builds the 7-state constant-velocity filter over
// [u, v, s, r, u̇, v̇, ṡ] with the covariance values from the reference
// SORT implementation.
func newBoxFilter(box imaging.Rect) (*kalman.Filter, error) {
	const n = 7
	f := mat.Identity(n)
	f.Set(0, 4, 1)
	f.Set(1, 5, 1)
	f.Set(2, 6, 1)

	h := mat.New(4, n)
	for i := 0; i < 4; i++ {
		h.Set(i, i, 1)
	}

	p := mat.Identity(n).Scale(10)
	for i := 4; i < n; i++ {
		p.Set(i, i, 10000)
	}

	q := mat.Identity(n)
	q.Set(4, 4, 0.01)
	q.Set(5, 5, 0.01)
	q.Set(6, 6, 0.0001)

	r := mat.Identity(4)
	r.Set(2, 2, 10)
	r.Set(3, 3, 10)

	z := rectToMeasurement(box)
	x0 := mat.ColVector(z.At(0, 0), z.At(1, 0), z.At(2, 0), z.At(3, 0), 0, 0, 0)
	return kalman.New(kalman.Config{
		InitialState:      x0,
		InitialCovariance: p,
		Transition:        f,
		Observation:       h,
		ProcessNoise:      q,
		ObservationNoise:  r,
	})
}

// rectToMeasurement converts a box to the [u, v, s, r] measurement where
// (u, v) is the center, s the area, and r the aspect ratio.
func rectToMeasurement(b imaging.Rect) *mat.Matrix {
	w, h := float64(b.W), float64(b.H)
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return mat.ColVector(b.CenterX(), b.CenterY(), w*h, w/h)
}

// stateToRect converts the filter state back to an integer box.
func stateToRect(x *mat.Matrix) imaging.Rect {
	u, v := x.At(0, 0), x.At(1, 0)
	s, r := x.At(2, 0), x.At(3, 0)
	if s < 1 {
		s = 1
	}
	if r <= 0 {
		r = 1
	}
	w := math.Sqrt(s * r)
	h := s / w
	return imaging.Rect{
		X: int(math.Round(u - w/2)),
		Y: int(math.Round(v - h/2)),
		W: max(1, int(math.Round(w))),
		H: max(1, int(math.Round(h))),
	}
}
