package sim

import (
	"bytes"
	"errors"
	"io"
	"time"

	"repro/internal/vision"
)

// RealtimeSource adapts a simulated camera to a wall-clock frame source:
// each Next call sleeps until the next frame instant and renders the
// world at the corresponding virtual time. It lets the live TCP runtime
// (cmd/coral-node) consume synthetic traffic as if it were a real camera
// stream.
type RealtimeSource struct {
	camera   *Camera
	interval time.Duration
	start    time.Time
	deadline time.Time
	tick     int64
	now      func() time.Time
	sleep    func(time.Duration)
}

// NewRealtimeSourceAt wraps a camera at its spec's FPS, ending the stream
// after duration. It anchors virtual time zero at start, which may be in
// the future: processes on different machines sharing the same start
// instant then render the same world in lock-step, enabling cross-camera
// re-identification over a real network.
func NewRealtimeSourceAt(camera *Camera, start time.Time, duration time.Duration) (*RealtimeSource, error) {
	if camera == nil {
		return nil, errors.New("sim: nil camera")
	}
	if duration <= 0 {
		return nil, errors.New("sim: non-positive stream duration")
	}
	return &RealtimeSource{
		camera:   camera,
		interval: time.Duration(float64(time.Second) / camera.spec.FPS),
		start:    start,
		deadline: start.Add(duration),
		now:      time.Now,
		sleep:    time.Sleep,
	}, nil
}

// Next blocks until the next frame instant and returns the rendered
// frame, stamped with that wall-clock instant (not the world's DES epoch
// plus the offset, which would date a live frame to the simulation's
// calendar); io.EOF after the configured duration. Each frame's pixels
// are its own copy: a live pipeline holds several frames at once.
func (s *RealtimeSource) Next() (*vision.Frame, error) {
	due := s.start.Add(time.Duration(s.tick) * s.interval)
	if due.After(s.deadline) {
		return nil, io.EOF
	}
	if wait := due.Sub(s.now()); wait > 0 {
		s.sleep(wait)
	}
	s.tick++
	f := s.camera.Render(due.Sub(s.start))
	f.Time = due
	f.Image.Pix = bytes.Clone(f.Image.Pix)
	return f, nil
}
