package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/vision"
)

// CameraSpec describes one simulated camera.
type CameraSpec struct {
	ID string
	// Position is the camera's geographic location (typically an
	// intersection it watches).
	Position geo.Point
	// HeadingDeg is the compass bearing that "up" in the image
	// corresponds to.
	HeadingDeg float64
	// FPS is the frame rate (the paper's gateway sustains ~15).
	FPS float64
	// Width and Height are the frame dimensions in pixels.
	Width, Height int
	// PxPerMeter scales the world into the image; it determines the
	// effective field-of-view range.
	PxPerMeter float64
	// Seed varies the background texture per camera.
	Seed uint64
	// BrightnessOffset shifts every rendered pixel by this signed amount
	// per channel, modeling per-camera exposure differences — the reason
	// the same vehicle's color histogram differs across real cameras.
	BrightnessOffset int
}

// DefaultCameraSpec fills in the common parameters for a camera at pos.
func DefaultCameraSpec(id string, pos geo.Point, headingDeg float64) CameraSpec {
	return CameraSpec{
		ID:         id,
		Position:   pos,
		HeadingDeg: headingDeg,
		FPS:        15,
		Width:      256,
		Height:     192,
		PxPerMeter: 4,
		Seed:       hashString(id),
	}
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// FrameConsumer receives each rendered frame (typically a camera node's
// ProcessFrameContext). The pixels are the camera's buffer, redrawn at its
// next tick.
type FrameConsumer func(f *vision.Frame)

// Visit is one ground-truth pass of a vehicle through a camera's field of
// view.
type Visit struct {
	VehicleID string
	Enter     time.Duration
	Exit      time.Duration
}

// visitTracker accumulates visibility intervals per vehicle.
type visitTracker struct {
	open   map[string]*Visit
	closed []Visit
	gap    time.Duration
}

func newVisitTracker(gap time.Duration) *visitTracker {
	return &visitTracker{open: make(map[string]*Visit), gap: gap}
}

func (vt *visitTracker) observe(vehicleID string, now time.Duration) {
	if v, ok := vt.open[vehicleID]; ok {
		if now-v.Exit <= vt.gap {
			v.Exit = now
			return
		}
		vt.closed = append(vt.closed, *v)
	}
	vt.open[vehicleID] = &Visit{VehicleID: vehicleID, Enter: now, Exit: now}
}

func (vt *visitTracker) snapshot() []Visit {
	out := append([]Visit(nil), vt.closed...)
	for _, v := range vt.open {
		out = append(out, *v)
	}
	return out
}

// vehicleFootprintMeters are the nominal car dimensions rendered into
// frames.
const (
	vehicleLengthM = 4.5
	vehicleWidthM  = 2.2
)

// Camera is one simulated camera: it renders frames of the world on a
// fixed tick and feeds them to its consumer.
type Camera struct {
	spec     CameraSpec
	world    *World
	consumer FrameConsumer
	seq      int64
	ticker   *des.Ticker
	visits   *visitTracker
	// background is the textured backdrop's pixels, a pure function of
	// the spec, rendered on first use. A string, so it cannot be written
	// through.
	background string
	// pix is the camera's one pixel buffer, which every Render draws into.
	// It holds background but for drawn, the last frame's vehicle boxes,
	// which Render restores rather than copy 147 KB a frame (slow under -race).
	pix   []byte
	drawn []imaging.Rect
}

// AddCamera installs a camera; its ticks begin when StartCameras runs.
func (w *World) AddCamera(spec CameraSpec, consumer FrameConsumer) (*Camera, error) {
	if spec.ID == "" {
		return nil, errors.New("sim: camera id required")
	}
	if _, ok := w.cameras[spec.ID]; ok {
		return nil, fmt.Errorf("sim: camera %q already exists", spec.ID)
	}
	if consumer == nil {
		return nil, errors.New("sim: camera consumer required")
	}
	if spec.FPS <= 0 || spec.Width <= 0 || spec.Height <= 0 || spec.PxPerMeter <= 0 {
		return nil, fmt.Errorf("sim: camera %q has invalid geometry/rate", spec.ID)
	}
	c := &Camera{
		spec:     spec,
		world:    w,
		consumer: consumer,
		visits:   newVisitTracker(2 * time.Second),
	}
	w.cameras[spec.ID] = c
	return c, nil
}

// StartCameras begins every camera's frame ticks. Cameras start in
// sorted ID order so their tick events enter the simulator — and
// same-timestamp frames therefore fire — in an order that is a pure
// function of the camera set, keeping runs reproducible.
func (w *World) StartCameras() {
	for _, id := range w.cameraIDs() {
		w.cameras[id].start()
	}
}

// StopCameras cancels every camera's ticks (so Run can terminate).
func (w *World) StopCameras() {
	for _, id := range w.cameraIDs() {
		w.cameras[id].stop()
	}
}

// cameraIDs returns the installed camera IDs, sorted.
func (w *World) cameraIDs() []string {
	out := make([]string, 0, len(w.cameras))
	for id := range w.cameras {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// StopCamera stops a single camera, simulating its failure.
func (w *World) StopCamera(id string) error {
	c, ok := w.cameras[id]
	if !ok {
		return fmt.Errorf("sim: camera %q not found", id)
	}
	c.stop()
	return nil
}

// StartCamera restarts a single stopped camera, simulating a node
// recovery. Starting a camera that is already ticking is a no-op, so
// recovery code does not need to track whether the failure ever
// happened.
func (w *World) StartCamera(id string) error {
	c, ok := w.cameras[id]
	if !ok {
		return fmt.Errorf("sim: camera %q not found", id)
	}
	c.start()
	return nil
}

func (c *Camera) start() {
	if c.ticker != nil {
		return
	}
	interval := time.Duration(float64(time.Second) / c.spec.FPS)
	c.ticker = c.world.sim.Every(interval, c.tick)
}

func (c *Camera) stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// tick renders one frame and hands it to the consumer.
func (c *Camera) tick() {
	now := c.world.sim.Now()
	f := c.Render(now)
	c.consumer(f)
}

// Render produces the camera's frame at virtual time now, with
// ground-truth annotations, and records vehicle visits. The pixels are
// drawn into the camera's own buffer, allocated once and reused by every
// call: they are valid until this camera's next Render, a consumer that
// keeps them copies them (RealtimeSource.Next does), and none writes
// into them.
func (c *Camera) Render(now time.Duration) *vision.Frame {
	if c.pix == nil {
		bg := imaging.MustNewFrame(c.spec.Width, c.spec.Height)
		bg.FillTexturedBackground(imaging.Color{R: 96, G: 96, B: 100}, c.spec.Seed)
		c.background, c.pix = string(bg.Pix), bg.Pix
	}
	img := &imaging.Frame{Width: c.spec.Width, Height: c.spec.Height, Pix: c.pix}
	for _, r := range c.drawn {
		for y := r.Y; y < r.Y+r.H; y++ {
			i := (y*img.Width + r.X) * 3
			copy(c.pix[i:i+r.W*3], c.background[i:i+r.W*3])
		}
	}
	c.drawn = c.drawn[:0]

	f := &vision.Frame{
		CameraID: c.spec.ID,
		Seq:      c.seq,
		Time:     c.world.sim.Epoch().Add(now),
		Image:    img,
	}
	c.seq++

	h := headingRadians(c.spec.HeadingDeg)
	sinH, cosH := math.Sin(h), math.Cos(h)
	ppm := c.spec.PxPerMeter

	carW := max(4, int(math.Round(vehicleLengthM*ppm)))
	carH := max(3, int(math.Round(vehicleWidthM*ppm)))

	// Vehicles render in sorted ID order: when two boxes overlap, draw
	// order decides which color wins the shared pixels, so iterating the
	// map directly would make frame content — and every detection and
	// re-id decision downstream — vary run to run.
	for _, v := range c.world.byID {
		pos, visible := v.position(c.world.graph, now)
		if !visible {
			continue
		}
		east, north := planarOffsetMeters(c.spec.Position, pos)
		right := east*cosH - north*sinH
		forward := east*sinH + north*cosH
		x := float64(c.spec.Width)/2 + right*ppm
		y := float64(c.spec.Height)/2 - forward*ppm
		box := imaging.Rect{
			X: int(math.Round(x)) - carW/2,
			Y: int(math.Round(y)) - carH/2,
			W: carW,
			H: carH,
		}
		// The vehicle is in-frame when its centroid is; partially visible
		// boxes at the border are clipped by the detector anyway.
		if x < 0 || x >= float64(c.spec.Width) || y < 0 || y >= float64(c.spec.Height) {
			continue
		}
		img.FillRect(box, shiftColor(v.spec.Color, c.spec.BrightnessOffset))
		c.drawn = append(c.drawn, img.Clamp(box))
		f.Truth = append(f.Truth, vision.TruthObject{
			ID:    v.spec.ID,
			Label: vision.LabelCar,
			Box:   box,
		})
		c.visits.observe(v.spec.ID, now)
	}
	return f
}

// Visits returns the ground-truth vehicle passes recorded so far.
func (c *Camera) Visits() []Visit {
	return c.visits.snapshot()
}

// Visits returns the recorded ground truth for one camera.
func (w *World) Visits(cameraID string) ([]Visit, error) {
	c, ok := w.cameras[cameraID]
	if !ok {
		return nil, fmt.Errorf("sim: camera %q not found", cameraID)
	}
	return c.Visits(), nil
}

// Camera returns an installed camera by ID.
func (w *World) Camera(id string) (*Camera, error) {
	c, ok := w.cameras[id]
	if !ok {
		return nil, fmt.Errorf("sim: camera %q not found", id)
	}
	return c, nil
}

// Spec returns the camera's spec.
func (c *Camera) Spec() CameraSpec { return c.spec }

// shiftColor applies a per-camera exposure offset with clamping.
func shiftColor(c imaging.Color, offset int) imaging.Color {
	if offset == 0 {
		return c
	}
	clamp := func(v int) uint8 {
		if v < 0 {
			return 0
		}
		if v > 255 {
			return 255
		}
		return uint8(v)
	}
	return imaging.Color{
		R: clamp(int(c.R) + offset),
		G: clamp(int(c.G) + offset),
		B: clamp(int(c.B) + offset),
	}
}
