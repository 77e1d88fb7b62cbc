package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/roadnet"
	"repro/internal/vision"
)

var epoch = time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)

// newCorridorWorld builds a 3-node east-west corridor with 200 m spacing.
func newCorridorWorld(t *testing.T) (*World, []roadnet.NodeID) {
	t.Helper()
	g, ids, err := roadnet.Corridor(3, 200, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(WorldConfig{Sim: des.New(epoch), Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	return w, ids
}

func nodePos(t *testing.T, w *World, id roadnet.NodeID) geo.Point {
	t.Helper()
	n, err := w.Graph().Node(id)
	if err != nil {
		t.Fatal(err)
	}
	return n.Pos
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(WorldConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestAddVehicleValidation(t *testing.T) {
	w, ids := newCorridorWorld(t)
	bad := []VehicleSpec{
		{ID: "", SpeedMPS: 10, Route: ids},
		{ID: "v", SpeedMPS: 0, Route: ids},
		{ID: "v", SpeedMPS: 10, Route: ids[:1]},
		{ID: "v", SpeedMPS: 10, Route: []roadnet.NodeID{ids[0], ids[2]}}, // no direct lane
	}
	for i, spec := range bad {
		if err := w.AddVehicle(spec); err == nil {
			t.Errorf("case %d accepted: %+v", i, spec)
		}
	}
	good := VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 10, Route: ids}
	if err := w.AddVehicle(good); err != nil {
		t.Fatal(err)
	}
	if err := w.AddVehicle(good); err == nil {
		t.Error("duplicate vehicle accepted")
	}
}

func TestVehicleMotion(t *testing.T) {
	w, ids := newCorridorWorld(t)
	// 400 m at 20 m/s = 20 s.
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids, Depart: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	done, err := w.VehicleDone("v")
	if err != nil {
		t.Fatal(err)
	}
	if diff := (done - 25*time.Second).Abs(); diff > 50*time.Millisecond {
		t.Errorf("done = %v, want ~25s", done)
	}
	if _, visible, _ := w.VehiclePosition("v", 2*time.Second); visible {
		t.Error("visible before departure")
	}
	pos, visible, err := w.VehiclePosition("v", 10*time.Second)
	if err != nil || !visible {
		t.Fatal("should be visible at t=10s")
	}
	// 5 s into the trip at 20 m/s = 100 m east of node 0.
	if d := pos.DistanceMeters(nodePos(t, w, ids[0])); d < 95 || d > 105 {
		t.Errorf("traveled %vm, want ~100", d)
	}
	if _, visible, _ := w.VehiclePosition("v", 30*time.Second); visible {
		t.Error("visible after completion")
	}
	if _, _, err := w.VehiclePosition("ghost", 0); err == nil {
		t.Error("unknown vehicle accepted")
	}
}

func TestTrafficLightDelaysVehicle(t *testing.T) {
	w, ids := newCorridorWorld(t)
	// Light at the middle node: red except for the first 10% of each
	// 60 s cycle.
	if err := w.AddTrafficLight(TrafficLight{Node: ids[1], Period: 60 * time.Second, GreenFrac: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
		t.Fatal(err)
	}
	// Leg 1: 10 s; arrives at node 1 at t=10s, cycle position 10s > 6s
	// green window, so it waits until t=60s, then 10 s more.
	done, err := w.VehicleDone("v")
	if err != nil {
		t.Fatal(err)
	}
	if diff := (done - 70*time.Second).Abs(); diff > 50*time.Millisecond {
		t.Errorf("done = %v, want ~70s (waited at the light)", done)
	}
	// While waiting the vehicle sits at node 1.
	pos, visible, err := w.VehiclePosition("v", 30*time.Second)
	if err != nil || !visible {
		t.Fatal("should be waiting at the light")
	}
	if d := pos.DistanceMeters(nodePos(t, w, ids[1])); d > 1 {
		t.Errorf("waiting position off by %vm", d)
	}
}

func TestTrafficLightValidation(t *testing.T) {
	w, ids := newCorridorWorld(t)
	if err := w.AddTrafficLight(TrafficLight{Node: 999, Period: time.Minute, GreenFrac: 0.5}); err == nil {
		t.Error("unknown node accepted")
	}
	if err := w.AddTrafficLight(TrafficLight{Node: ids[0], Period: 0, GreenFrac: 0.5}); err == nil {
		t.Error("zero period accepted")
	}
	if err := w.AddTrafficLight(TrafficLight{Node: ids[0], Period: time.Minute, GreenFrac: 1.5}); err == nil {
		t.Error("bad green fraction accepted")
	}
}

func TestGreenAt(t *testing.T) {
	l := TrafficLight{Period: 10 * time.Second, GreenFrac: 0.5}
	if green, _ := l.greenAt(2 * time.Second); !green {
		t.Error("t=2s should be green")
	}
	green, next := l.greenAt(7 * time.Second)
	if green {
		t.Error("t=7s should be red")
	}
	if next != 10*time.Second {
		t.Errorf("next green at %v, want 10s", next)
	}
}

func TestCameraRendersVehicle(t *testing.T) {
	w, ids := newCorridorWorld(t)
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
		t.Fatal(err)
	}
	spec := DefaultCameraSpec("cam1", nodePos(t, w, ids[1]), 0)
	cam, err := w.AddCamera(spec, func(*vision.Frame) {})
	if err != nil {
		t.Fatal(err)
	}

	// At t=10s the vehicle is exactly at node 1 (the camera position).
	f := cam.Render(10 * time.Second)
	if len(f.Truth) != 1 || f.Truth[0].ID != "v" {
		t.Fatalf("truth = %+v", f.Truth)
	}
	box := f.Truth[0].Box
	cx, cy := box.CenterX(), box.CenterY()
	if cx < float64(spec.Width)/2-2 || cx > float64(spec.Width)/2+2 {
		t.Errorf("vehicle centered at x=%v", cx)
	}
	if cy < float64(spec.Height)/2-2 || cy > float64(spec.Height)/2+2 {
		t.Errorf("vehicle centered at y=%v", cy)
	}
	// The rendered pixels really are the vehicle color.
	center := f.Image.At(int(cx), int(cy))
	if center != imaging.Red {
		t.Errorf("center pixel = %+v", center)
	}
	// Far away (t=0, 200 m west): out of frame.
	f0 := cam.Render(0)
	if len(f0.Truth) != 0 {
		t.Errorf("vehicle should be out of view at t=0: %+v", f0.Truth)
	}
}

func TestCameraMotionDirectionInImage(t *testing.T) {
	// With heading 0 (up = north), an eastbound vehicle should move
	// rightward (+x) across the image.
	w, ids := newCorridorWorld(t)
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
		t.Fatal(err)
	}
	cam, err := w.AddCamera(DefaultCameraSpec("cam1", nodePos(t, w, ids[1]), 0), func(*vision.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	f1 := cam.Render(9 * time.Second)
	f2 := cam.Render(10 * time.Second)
	if len(f1.Truth) != 1 || len(f2.Truth) != 1 {
		t.Skipf("vehicle not visible at both instants: %d/%d", len(f1.Truth), len(f2.Truth))
	}
	if f2.Truth[0].Box.CenterX() <= f1.Truth[0].Box.CenterX() {
		t.Error("eastbound vehicle should move right in the image")
	}
}

func TestCameraTicksAndVisits(t *testing.T) {
	w, ids := newCorridorWorld(t)
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
		t.Fatal(err)
	}
	var frames int
	var truthFrames int
	_, err := w.AddCamera(DefaultCameraSpec("cam1", nodePos(t, w, ids[1]), 0), func(f *vision.Frame) {
		frames++
		if len(f.Truth) > 0 {
			truthFrames++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.StartCameras()
	w.Sim().RunUntil(25 * time.Second)
	w.StopCameras()
	w.Sim().Run() // drain

	if frames < 300 { // 15 FPS * 25 s minus the first tick offset
		t.Errorf("frames = %d", frames)
	}
	if truthFrames == 0 {
		t.Error("vehicle never appeared in any frame")
	}
	visits, err := w.Visits("cam1")
	if err != nil {
		t.Fatal(err)
	}
	if len(visits) != 1 || visits[0].VehicleID != "v" {
		t.Fatalf("visits = %+v", visits)
	}
	v := visits[0]
	if v.Exit <= v.Enter {
		t.Errorf("visit interval = %+v", v)
	}
	// The vehicle passes the camera around t=10s.
	if v.Enter > 12*time.Second || v.Exit < 8*time.Second {
		t.Errorf("visit window = [%v, %v], want around 10s", v.Enter, v.Exit)
	}
}

func TestTwoSeparateVisits(t *testing.T) {
	w, ids := newCorridorWorld(t)
	// Same vehicle passes the camera twice: out and back.
	route := []roadnet.NodeID{ids[0], ids[1], ids[2], ids[1], ids[0]}
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Blue, SpeedMPS: 20, Route: route}); err != nil {
		t.Fatal(err)
	}
	cam, err := w.AddCamera(DefaultCameraSpec("cam1", nodePos(t, w, ids[1]), 0), func(*vision.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.VehicleDone("v")
	if err != nil {
		t.Fatal(err)
	}
	for ts := time.Duration(0); ts < done; ts += 100 * time.Millisecond {
		cam.Render(ts)
	}
	visits := cam.Visits()
	if len(visits) != 2 {
		t.Errorf("visits = %+v, want 2 passes", visits)
	}
}

func TestStopCamera(t *testing.T) {
	w, ids := newCorridorWorld(t)
	frames := 0
	_, err := w.AddCamera(DefaultCameraSpec("cam1", nodePos(t, w, ids[0]), 0), func(*vision.Frame) { frames++ })
	if err != nil {
		t.Fatal(err)
	}
	w.StartCameras()
	w.Sim().RunUntil(2 * time.Second)
	countAtStop := frames
	if err := w.StopCamera("cam1"); err != nil {
		t.Fatal(err)
	}
	w.Sim().RunUntil(10 * time.Second)
	if frames != countAtStop {
		t.Errorf("frames after stop: %d -> %d", countAtStop, frames)
	}
	if err := w.StopCamera("ghost"); err == nil {
		t.Error("unknown camera accepted")
	}
}

func TestAddCameraValidation(t *testing.T) {
	w, ids := newCorridorWorld(t)
	pos := nodePos(t, w, ids[0])
	if _, err := w.AddCamera(CameraSpec{ID: "", Position: pos, FPS: 15, Width: 10, Height: 10, PxPerMeter: 1}, func(*vision.Frame) {}); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := w.AddCamera(DefaultCameraSpec("c", pos, 0), nil); err == nil {
		t.Error("nil consumer accepted")
	}
	bad := DefaultCameraSpec("c", pos, 0)
	bad.FPS = 0
	if _, err := w.AddCamera(bad, func(*vision.Frame) {}); err == nil {
		t.Error("zero FPS accepted")
	}
	if _, err := w.AddCamera(DefaultCameraSpec("c", pos, 0), func(*vision.Frame) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddCamera(DefaultCameraSpec("c", pos, 0), func(*vision.Frame) {}); err == nil {
		t.Error("duplicate camera accepted")
	}
}

func TestPaletteColorsDistinct(t *testing.T) {
	seen := make(map[imaging.Color]bool)
	for i := 0; i < 24; i++ {
		c := PaletteColor(i)
		if seen[c] {
			t.Errorf("palette color %d repeats: %+v", i, c)
		}
		seen[c] = true
	}
}

func TestRandomRoute(t *testing.T) {
	g, sites, err := roadnet.Campus()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	route, err := RandomRoute(g, rng, sites[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) < 2 {
		t.Fatalf("route = %v", route)
	}
	for i := 0; i+1 < len(route); i++ {
		if !g.HasEdge(route[i], route[i+1]) {
			t.Fatalf("route uses missing lane %d->%d", route[i], route[i+1])
		}
	}
	// No immediate U-turns on the campus grid (alternatives always exist).
	for i := 0; i+2 < len(route); i++ {
		if route[i] == route[i+2] {
			t.Errorf("U-turn at leg %d: %v", i, route[:i+3])
		}
	}
	if _, err := RandomRoute(g, rng, sites[0], 0); err == nil {
		t.Error("zero legs accepted")
	}
}

// TestRenderMatchesReference checks Render's cached background and
// vehicle order against a frame painted from scratch: the textured
// background, then each ground-truth box, which must come in vehicle-ID
// order whatever order the vehicles were added in. Every frame must also
// own its pixels, since consumers keep rendered frames.
func TestRenderMatchesReference(t *testing.T) {
	g, sites, err := roadnet.Campus()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, err := NewWorld(WorldConfig{Sim: des.New(epoch), Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		colors := make(map[string]imaging.Color)
		for i, n := range rng.Perm(40) {
			route, err := RandomRoute(g, rng, sites[rng.Intn(2)], 4)
			if err != nil {
				t.Fatal(err)
			}
			spec := VehicleSpec{ID: fmt.Sprintf("v%02d", n), Color: PaletteColor(n),
				SpeedMPS: 8 + 6*rng.Float64(), Route: route, Depart: time.Duration(i) * 600 * time.Millisecond}
			if err := w.AddVehicle(spec); err != nil {
				t.Fatal(err)
			}
			colors[spec.ID] = spec.Color
		}
		spec := DefaultCameraSpec("cam", nodePos(t, w, sites[0]), 0)
		spec.Seed = uint64(seed) * 7919
		spec.BrightnessOffset = int(seed)*5 - 10
		cam, err := w.AddCamera(spec, func(*vision.Frame) {})
		if err != nil {
			t.Fatal(err)
		}
		var prev *vision.Frame
		drawn := 0
		for now := time.Duration(0); now < 30*time.Second; now += 1700 * time.Millisecond {
			f := cam.Render(now)
			want := imaging.MustNewFrame(spec.Width, spec.Height)
			want.FillTexturedBackground(imaging.Color{R: 96, G: 96, B: 100}, spec.Seed)
			for i, obj := range f.Truth {
				if i > 0 && f.Truth[i-1].ID >= obj.ID {
					t.Fatalf("seed %d at %v: vehicles drawn out of ID order: %s before %s", seed, now, f.Truth[i-1].ID, obj.ID)
				}
				want.FillRect(obj.Box, shiftColor(colors[obj.ID], spec.BrightnessOffset))
			}
			drawn += len(f.Truth)
			if !f.Image.Equal(want) {
				t.Fatalf("seed %d at %v: render differs from the reference", seed, now)
			}
			if prev != nil && &prev.Image.Pix[0] != &f.Image.Pix[0] {
				t.Fatalf("seed %d at %v: the frame is not drawn into the camera's buffer", seed, now)
			}
			prev = f
		}
		if drawn == 0 {
			t.Fatalf("seed %d: no vehicle ever in view; the check is vacuous", seed)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	mk := func() *vision.Frame {
		w, ids := newCorridorWorld(t)
		if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
			t.Fatal(err)
		}
		cam, err := w.AddCamera(DefaultCameraSpec("cam1", nodePos(t, w, ids[1]), 0), func(*vision.Frame) {})
		if err != nil {
			t.Fatal(err)
		}
		return cam.Render(10 * time.Second)
	}
	a, b := mk(), mk()
	if !a.Image.Equal(b.Image) {
		t.Error("render not deterministic")
	}
}

// TestRenderAllocatesNoPixelBuffer: a frame with a vehicle in view costs
// its headers and truth, not a 147 KB pixel buffer. The heap counters are
// the process's, so the least of three rounds is taken.
func TestRenderAllocatesNoPixelBuffer(t *testing.T) {
	w, ids := newCorridorWorld(t)
	if err := w.AddVehicle(VehicleSpec{ID: "v", Color: imaging.Red, SpeedMPS: 20, Route: ids}); err != nil {
		t.Fatal(err)
	}
	cam, err := w.AddCamera(DefaultCameraSpec("cam1", nodePos(t, w, ids[1]), 0), func(*vision.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	if f := cam.Render(10 * time.Second); len(f.Truth) != 1 {
		t.Fatalf("truth = %+v, want the vehicle in view", f.Truth)
	}
	const calls = 100
	perCall := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			cam.Render(10 * time.Second)
		}
		runtime.ReadMemStats(&after)
		perCall = min(perCall, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	if perCall > 256 {
		t.Errorf("Render allocated %d B per call, want <= 256", perCall)
	}
}
