package sim

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/roadnet"
	"repro/internal/vision"
)

func newRealtimeFixture(t *testing.T) *Camera {
	t.Helper()
	g, ids, err := roadnet.Corridor(3, 200, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(WorldConfig{Sim: des.New(epoch), Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
		t.Fatal(err)
	}
	node, err := g.Node(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	cam, err := w.AddCamera(DefaultCameraSpec("rt", node.Pos, 0), func(*vision.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

func TestRealtimeSourceValidation(t *testing.T) {
	cam := newRealtimeFixture(t)
	if _, err := NewRealtimeSourceAt(nil, time.Now(), time.Second); err == nil {
		t.Error("nil camera accepted")
	}
	if _, err := NewRealtimeSourceAt(cam, time.Now(), 0); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRealtimeSourceStreamsAndEnds(t *testing.T) {
	cam := newRealtimeFixture(t)
	// Virtual clock injection: no real sleeping.
	now := time.Unix(1000, 0)
	src, err := NewRealtimeSourceAt(cam, now, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var slept time.Duration
	src.now = func() time.Time { return now }
	src.sleep = func(d time.Duration) {
		slept += d
		now = now.Add(d)
	}

	var frames int
	var lastSeq int64 = -1
	var prev *vision.Frame
	for {
		f, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != lastSeq+1 {
			t.Fatalf("seq jumped %d -> %d", lastSeq, f.Seq)
		}
		// A live pipeline holds several frames: each has its own pixels.
		if prev != nil && &prev.Image.Pix[0] == &f.Image.Pix[0] {
			t.Fatalf("frames %d and %d share a pixel buffer", prev.Seq, f.Seq)
		}
		lastSeq, prev = f.Seq, f
		frames++
		if frames > 100 {
			t.Fatal("stream never ended")
		}
	}
	// 15 FPS over 1 s plus the frame at t=0: 16 frames.
	if frames < 15 || frames > 16 {
		t.Errorf("frames = %d, want ~15", frames)
	}
	if slept < 900*time.Millisecond {
		t.Errorf("slept %v, should pace frames across the second", slept)
	}
}

func TestRealtimeSourceFutureEpoch(t *testing.T) {
	cam := newRealtimeFixture(t)
	now := time.Unix(1000, 0)
	start := now.Add(2 * time.Second) // epoch in the future
	src, err := NewRealtimeSourceAt(cam, start, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var firstSleep time.Duration
	src.now = func() time.Time { return now }
	src.sleep = func(d time.Duration) {
		if firstSleep == 0 {
			firstSleep = d
		}
		now = now.Add(d)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if firstSleep < 1900*time.Millisecond {
		t.Errorf("first sleep = %v, should wait for the shared epoch", firstSleep)
	}
}

// TestRealtimeSourceStampsWallClock: a live frame carries the wall-clock
// instant it is due, whatever epoch the rendered world's simulator uses
// (coral-node builds its world on time.Unix(0, 0)).
func TestRealtimeSourceStampsWallClock(t *testing.T) {
	cam := newRealtimeFixture(t) // world epoch: 2020-12-07
	start := time.Date(2026, 10, 15, 9, 0, 0, 0, time.UTC)
	now := start
	src, err := NewRealtimeSourceAt(cam, start, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	src.now = func() time.Time { return now }
	src.sleep = func(d time.Duration) { now = now.Add(d) }
	for i := 0; i < 3; i++ {
		f, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := start.Add(time.Duration(i) * src.interval); !f.Time.Equal(want) {
			t.Fatalf("frame %d stamped %v, want its due instant %v", i, f.Time, want)
		}
	}
}
