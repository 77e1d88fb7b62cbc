package trajstore

import (
	"math"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/protocol"
)

var trackEpoch = time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)

// sightingEvent is a detection event at a camera, offset from trackEpoch,
// with a ground-truth vehicle ID.
func sightingEvent(id string, camera string, at time.Duration, truth string) protocol.DetectionEvent {
	h := feature.Histogram{Bins: make([]float64, feature.HistogramSize)}
	h.Bins[0] = 1
	return protocol.DetectionEvent{
		ID:        protocol.EventID(id),
		CameraID:  camera,
		Timestamp: trackEpoch.Add(at),
		Histogram: h,
		TruthID:   truth,
	}
}

// buildGraph constructs:
//
//	v1(camA,0s) --0.1--> v2(camB,10s) --0.2--> v3(camC,20s)
//	                \--0.5--> v4(camX,12s)          (false-positive branch)
func buildGraph(t *testing.T) (*Store, []int64) {
	t.Helper()
	s := NewMemStore()
	mk := func(id, cam string, at time.Duration, truth string) int64 {
		t.Helper()
		vid, err := s.AddVertex(sightingEvent(id, cam, at, truth))
		if err != nil {
			t.Fatal(err)
		}
		return vid
	}
	v1 := mk("camA#1", "camA", 0, "veh-1")
	v2 := mk("camB#1", "camB", 10*time.Second, "veh-1")
	v3 := mk("camC#1", "camC", 20*time.Second, "veh-1")
	v4 := mk("camX#1", "camX", 12*time.Second, "veh-2")
	for _, e := range []struct {
		from, to int64
		w        float64
	}{{v1, v2, 0.1}, {v2, v3, 0.2}, {v1, v4, 0.5}} {
		if err := s.AddEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return s, []int64{v1, v2, v3, v4}
}

func TestReconstructRanksLongestFirst(t *testing.T) {
	s, ids := buildGraph(t)
	tracks, err := FindTracks(s.Snapshot(), "camA#1", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2 (true path + FP branch)", len(tracks))
	}
	best := tracks[0]
	if len(best.Hops) != 3 {
		t.Fatalf("best track hops = %d, want 3", len(best.Hops))
	}
	wantCams := []string{"camA", "camB", "camC"}
	for i, cam := range best.Cameras() {
		if cam != wantCams[i] {
			t.Errorf("hop %d = %s, want %s", i, cam, wantCams[i])
		}
	}
	if math.Abs(best.TotalWeight-0.3) > 1e-9 {
		t.Errorf("total weight = %v", best.TotalWeight)
	}
	if math.Abs(best.MeanWeight-0.15) > 1e-9 {
		t.Errorf("mean weight = %v", best.MeanWeight)
	}
	if best.Duration != 20*time.Second {
		t.Errorf("duration = %v", best.Duration)
	}
	if best.Hops[0].LinkWeight != 0 || best.Hops[1].LinkWeight != 0.1 {
		t.Errorf("link weights = %+v", best.Hops)
	}
	// The false-positive branch ranks second.
	if len(tracks[1].Hops) != 2 || tracks[1].Hops[1].Camera != "camX" {
		t.Errorf("second track = %+v", tracks[1])
	}
	_ = ids
}

func TestBest(t *testing.T) {
	s, _ := buildGraph(t)
	best, err := BestTrack(s.Snapshot(), "camB#1", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	// Through the middle sighting, the best track spans all three cameras.
	if len(best.Hops) != 3 {
		t.Errorf("best = %+v", best.Cameras())
	}
	if _, err := BestTrack(s.Snapshot(), "ghost#1", DefaultTraceLimits()); err == nil {
		t.Error("unknown event accepted")
	}
}

func TestTieBreakByMeanWeight(t *testing.T) {
	s := NewMemStore()
	mk := func(id, cam string, at time.Duration) int64 {
		vid, err := s.AddVertex(sightingEvent(id, cam, at, ""))
		if err != nil {
			t.Fatal(err)
		}
		return vid
	}
	v1 := mk("a#1", "a", 0)
	v2 := mk("b#1", "b", time.Second)
	v3 := mk("c#1", "c", time.Second)
	if err := s.AddEdge(v1, v2, 0.4); err != nil { // weak branch
		t.Fatal(err)
	}
	if err := s.AddEdge(v1, v3, 0.1); err != nil { // strong branch
		t.Fatal(err)
	}
	tracks, err := FindTracks(s.Snapshot(), "a#1", DefaultTraceLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	if tracks[0].Hops[1].Camera != "c" {
		t.Errorf("equal-length tracks should rank by confidence; got %v first", tracks[0].Cameras())
	}
}

func TestVehicleSightings(t *testing.T) {
	s, _ := buildGraph(t)
	hops, err := SightingsOf(s.Snapshot(), int64(s.NumVertices()), "veh-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Fatalf("sightings = %d", len(hops))
	}
	for i := 1; i < len(hops); i++ {
		if hops[i].Time.Before(hops[i-1].Time) {
			t.Error("sightings out of time order")
		}
	}
}

func TestNilReader(t *testing.T) {
	if _, err := FindTracks(nil, "x#1", DefaultTraceLimits()); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := SightingsOf(nil, 1, "v"); err == nil {
		t.Error("nil reader accepted")
	}
}
