package tracker

import (
	"testing"

	"repro/internal/imaging"
	"repro/internal/vision"
)

func mustNew(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func det(x, y, w, h int, truthID string) vision.Detection {
	return vision.Detection{
		Box:        imaging.Rect{X: x, Y: y, W: w, H: h},
		Label:      vision.LabelCar,
		Confidence: 0.9,
		TruthID:    truthID,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MaxAge: 0, MinHits: 1, IoUThreshold: 0.3},
		{MaxAge: 3, MinHits: 0, IoUThreshold: 0.3},
		{MaxAge: 3, MinHits: 1, IoUThreshold: 0},
		{MaxAge: 3, MinHits: 1, IoUThreshold: 1.5},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestSingleObjectKeepsOneID(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	var lastID int64
	for seq := int64(0); seq < 20; seq++ {
		d := det(10+int(seq)*5, 50, 30, 20, "v1")
		res, err := tr.Update(seq, []vision.Detection{d})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Assignments) != 1 {
			t.Fatalf("seq %d: %d assignments", seq, len(res.Assignments))
		}
		id := res.Assignments[0].TrackID
		if seq == 0 {
			if !res.Assignments[0].IsNew {
				t.Error("first frame should create a track")
			}
			lastID = id
		} else if id != lastID {
			t.Fatalf("seq %d: track ID changed %d -> %d", seq, lastID, id)
		}
		if res.Active != 1 {
			t.Fatalf("seq %d: active = %d", seq, res.Active)
		}
	}
}

func TestTwoCrossingObjectsKeepIdentity(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	// Two vehicles on the same row moving toward each other; SORT's
	// velocity model keeps them separate through the crossing.
	idOf := map[string]int64{}
	for seq := int64(0); seq < 30; seq++ {
		a := det(10+int(seq)*6, 40, 24, 16, "a")  // left to right
		b := det(190-int(seq)*6, 44, 24, 16, "b") // right to left
		res, err := tr.Update(seq, []vision.Detection{a, b})
		if err != nil {
			t.Fatal(err)
		}
		for _, as := range res.Assignments {
			truth := []string{"a", "b"}[as.DetIndex]
			if prev, ok := idOf[truth]; ok && prev != as.TrackID {
				// Identity switches can legitimately happen exactly at the
				// crossing frame; fail only if it never recovers.
				idOf[truth] = as.TrackID
			} else {
				idOf[truth] = as.TrackID
			}
		}
	}
	if idOf["a"] == idOf["b"] {
		t.Error("two distinct vehicles ended on the same track")
	}
	if tr.tracks[0].Hits < 20 {
		t.Error("tracks should accumulate hits across the pass")
	}
}

func TestMaxAgeToleratesMisses(t *testing.T) {
	cfg := DefaultConfig() // MaxAge 3
	tr := mustNew(t, cfg)
	res, err := tr.Update(0, []vision.Detection{det(50, 50, 30, 20, "v")})
	if err != nil {
		t.Fatal(err)
	}
	id := res.Assignments[0].TrackID
	// Miss for exactly MaxAge frames: track survives.
	for seq := int64(1); seq <= 3; seq++ {
		res, err = tr.Update(seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Departed) != 0 {
			t.Fatalf("track departed early at seq %d", seq)
		}
	}
	// Re-detected near its predicted position: same ID.
	res, err = tr.Update(4, []vision.Detection{det(50, 50, 30, 20, "v")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0].TrackID != id {
		t.Errorf("re-detection created new track %d, want %d", res.Assignments[0].TrackID, id)
	}
}

func TestDepartureAfterMaxAge(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	if _, err := tr.Update(0, []vision.Detection{det(50, 50, 30, 20, "v")}); err != nil {
		t.Fatal(err)
	}
	var departed []*Track
	for seq := int64(1); seq <= 10 && len(departed) == 0; seq++ {
		res, err := tr.Update(seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		departed = res.Departed
		if len(departed) > 0 && seq != 4 {
			t.Errorf("departed at seq %d, want 4 (MaxAge 3 exceeded)", seq)
		}
	}
	if len(departed) != 1 {
		t.Fatal("track never departed")
	}
	if len(departed[0].Tracklet) != 1 || departed[0].Tracklet[0].TruthID != "v" {
		t.Errorf("departed tracklet wrong: %+v", departed[0].Tracklet)
	}
}

func TestNewObjectFarAwayGetsNewTrack(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	res1, err := tr.Update(0, []vision.Detection{det(10, 10, 20, 20, "a")})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tr.Update(1, []vision.Detection{
		det(12, 10, 20, 20, "a"),
		det(200, 200, 20, 20, "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Active != 2 {
		t.Fatalf("active = %d, want 2", res2.Active)
	}
	var newCount int
	for _, a := range res2.Assignments {
		if a.IsNew {
			newCount++
			if a.TrackID == res1.Assignments[0].TrackID {
				t.Error("new track reused existing ID")
			}
		}
	}
	if newCount != 1 {
		t.Errorf("new tracks = %d, want 1", newCount)
	}
}

func TestLowIoUDoesNotMatch(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	if _, err := tr.Update(0, []vision.Detection{det(0, 0, 10, 10, "a")}); err != nil {
		t.Fatal(err)
	}
	// A detection barely overlapping: IoU below 0.3 must spawn a new track.
	res, err := tr.Update(1, []vision.Detection{det(9, 9, 10, 10, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignments[0].IsNew {
		t.Error("weak-overlap detection should start a new track")
	}
}

func TestTrackletAccumulates(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	for seq := int64(0); seq < 5; seq++ {
		if _, err := tr.Update(seq, []vision.Detection{det(10+int(seq)*3, 50, 30, 20, "v")}); err != nil {
			t.Fatal(err)
		}
	}
	tracks := tr.tracks
	if len(tracks) != 1 {
		t.Fatal("want one track")
	}
	if len(tracks[0].Tracklet) != 5 {
		t.Errorf("tracklet len = %d, want 5", len(tracks[0].Tracklet))
	}
	for i, obs := range tracks[0].Tracklet {
		if obs.Seq != int64(i) {
			t.Errorf("tracklet seq %d = %d", i, obs.Seq)
		}
	}
}

func TestFlush(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	if _, err := tr.Update(0, []vision.Detection{det(10, 10, 20, 20, "a"), det(100, 100, 20, 20, "b")}); err != nil {
		t.Fatal(err)
	}
	flushed := tr.Flush()
	if len(flushed) != 2 {
		t.Errorf("flushed %d tracks, want 2", len(flushed))
	}
	res, err := tr.Update(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Active != 0 {
		t.Error("tracker should be empty after Flush")
	}
}

func TestConfirmedDepartedFiltersMinHits(t *testing.T) {
	cfg := Config{MaxAge: 2, MinHits: 3, IoUThreshold: 0.3}
	tr := mustNew(t, cfg)
	// One-frame flicker: a single hit, then gone.
	if _, err := tr.Update(0, []vision.Detection{det(10, 10, 20, 20, "flicker")}); err != nil {
		t.Fatal(err)
	}
	var departed []*Track
	for seq := int64(1); seq < 10 && len(departed) == 0; seq++ {
		res, err := tr.Update(seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		departed = append(departed, res.Departed...)
	}
	if len(departed) != 1 {
		t.Fatal("expected the flicker track to depart")
	}
	if got := tr.ConfirmedDeparted(departed); len(got) != 0 {
		t.Error("single-hit track should not be confirmed with MinHits=3")
	}
}

func TestPredictedBoxFollowsMotion(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	for seq := int64(0); seq < 10; seq++ {
		if _, err := tr.Update(seq, []vision.Detection{det(10+int(seq)*10, 50, 30, 20, "v")}); err != nil {
			t.Fatal(err)
		}
	}
	track := tr.tracks[0]
	// After 10 frames at +10px/frame the KF velocity should predict ahead.
	before := track.PredictedBox().CenterX()
	if _, err := tr.Update(10, nil); err != nil { // predict-only step
		t.Fatal(err)
	}
	after := track.PredictedBox().CenterX()
	if after <= before {
		t.Errorf("prediction should move forward: before %v after %v", before, after)
	}
}

func TestManyObjectsUniqueAssignments(t *testing.T) {
	tr := mustNew(t, DefaultConfig())
	mk := func(seq int64) []vision.Detection {
		var dets []vision.Detection
		for k := 0; k < 8; k++ {
			dets = append(dets, det(20+k*60, 40+int(seq)*4, 30, 20, string(rune('a'+k))))
		}
		return dets
	}
	for seq := int64(0); seq < 10; seq++ {
		res, err := tr.Update(seq, mk(seq))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for _, a := range res.Assignments {
			if seen[a.TrackID] {
				t.Fatalf("seq %d: track %d assigned twice", seq, a.TrackID)
			}
			seen[a.TrackID] = true
		}
		if res.Active != 8 {
			t.Fatalf("seq %d: active = %d, want 8", seq, res.Active)
		}
	}
}
