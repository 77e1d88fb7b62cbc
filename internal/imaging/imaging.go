// Package imaging provides the raw RGB frame representation that flows
// through the Coral-Pie pipeline. The paper transports frames in raw form
// (Section 4.1.5, "Image Serialization") because JPEG/NumPy encoding blew
// the latency budget on a Raspberry Pi; this package mirrors that choice:
// frames are flat RGB byte buffers, with a trivial PPM codec for the frame
// store and debugging.
package imaging

import (
	"errors"
	"fmt"
	"io"
)

// Color is an 8-bit RGB triple.
type Color struct {
	R, G, B uint8
}

// Common colors used by the simulator's vehicle palette and tests.
var (
	Black = Color{0, 0, 0}
	White = Color{255, 255, 255}
	Gray  = Color{128, 128, 128}
	Red   = Color{220, 40, 40}
	Blue  = Color{40, 80, 220}
)

// Frame is a width×height raw RGB image. Pixels are stored row-major,
// three bytes per pixel.
type Frame struct {
	Width  int
	Height int
	Pix    []uint8 // len = Width*Height*3
}

// NewFrame allocates a black frame. It returns an error for non-positive
// dimensions.
func NewFrame(width, height int) (*Frame, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("imaging: invalid frame size %dx%d", width, height)
	}
	return &Frame{Width: width, Height: height, Pix: make([]uint8, width*height*3)}, nil
}

// MustNewFrame is NewFrame for statically known-good dimensions; it panics
// on error and is intended for tests and internal constants.
func MustNewFrame(width, height int) *Frame {
	f, err := NewFrame(width, height)
	if err != nil {
		panic(err)
	}
	return f
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	c := &Frame{Width: f.Width, Height: f.Height, Pix: make([]uint8, len(f.Pix))}
	copy(c.Pix, f.Pix)
	return c
}

// In reports whether (x, y) lies inside the frame.
func (f *Frame) In(x, y int) bool {
	return x >= 0 && x < f.Width && y >= 0 && y < f.Height
}

// At returns the pixel at (x, y). Out-of-bounds reads return Black.
func (f *Frame) At(x, y int) Color {
	if !f.In(x, y) {
		return Black
	}
	i := (y*f.Width + x) * 3
	return Color{R: f.Pix[i], G: f.Pix[i+1], B: f.Pix[i+2]}
}

// Set writes the pixel at (x, y). Out-of-bounds writes are ignored.
func (f *Frame) Set(x, y int, c Color) {
	if !f.In(x, y) {
		return
	}
	i := (y*f.Width + x) * 3
	f.Pix[i], f.Pix[i+1], f.Pix[i+2] = c.R, c.G, c.B
}

// Fill paints the whole frame with one color.
func (f *Frame) Fill(c Color) {
	for i := 0; i < len(f.Pix); i += 3 {
		f.Pix[i], f.Pix[i+1], f.Pix[i+2] = c.R, c.G, c.B
	}
}

// Rect is an axis-aligned integer rectangle. X, Y is the top-left corner;
// the rectangle spans [X, X+W) × [Y, Y+H).
type Rect struct {
	X, Y, W, H int
}

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Area returns W*H, or 0 for empty rectangles.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// CenterX returns the horizontal center as a float.
func (r Rect) CenterX() float64 { return float64(r.X) + float64(r.W)/2 }

// CenterY returns the vertical center as a float.
func (r Rect) CenterY() float64 { return float64(r.Y) + float64(r.H)/2 }

// Intersect returns the overlap of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	x1 := max(r.X, o.X)
	y1 := max(r.Y, o.Y)
	x2 := min(r.X+r.W, o.X+o.W)
	y2 := min(r.Y+r.H, o.Y+o.H)
	return Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

// IoU returns the intersection-over-union of two rectangles in [0, 1].
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter <= 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Clamp returns r clipped to the frame bounds.
func (f *Frame) Clamp(r Rect) Rect {
	return r.Intersect(Rect{X: 0, Y: 0, W: f.Width, H: f.Height})
}

// FillRect paints the rectangle (clipped to the frame) with c.
func (f *Frame) FillRect(r Rect, c Color) {
	r = f.Clamp(r)
	if r.Empty() {
		return
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		i := (y*f.Width + r.X) * 3
		for x := 0; x < r.W; x++ {
			f.Pix[i], f.Pix[i+1], f.Pix[i+2] = c.R, c.G, c.B
			i += 3
		}
	}
}

// DrawRectOutline draws a one-pixel rectangle border, used to annotate
// bounding boxes on stored frames.
func (f *Frame) DrawRectOutline(r Rect, c Color) {
	if r.Empty() {
		return
	}
	for x := r.X; x < r.X+r.W; x++ {
		f.Set(x, r.Y, c)
		f.Set(x, r.Y+r.H-1, c)
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		f.Set(r.X, y, c)
		f.Set(r.X+r.W-1, y, c)
	}
}

// noisePattern derives a cheap deterministic per-pixel perturbation from
// the coordinates and a seed, giving camera backgrounds texture without a
// per-frame RNG.
func noisePattern(x, y int, seed uint64) uint8 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ seed
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return uint8(h & 0x1F) // 0..31
}

// FillTexturedBackground paints a gray asphalt-like background whose
// texture is a deterministic function of the seed, so identical scenes
// render identical frames.
func (f *Frame) FillTexturedBackground(base Color, seed uint64) {
	for y := 0; y < f.Height; y++ {
		for x := 0; x < f.Width; x++ {
			n := noisePattern(x, y, seed)
			f.Set(x, y, Color{
				R: clampU8(int(base.R) + int(n) - 16),
				G: clampU8(int(base.G) + int(n) - 16),
				B: clampU8(int(base.B) + int(n) - 16),
			})
		}
	}
}

func clampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Equal reports whether two frames have identical dimensions and pixels.
func (f *Frame) Equal(o *Frame) bool {
	if f.Width != o.Width || f.Height != o.Height {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// EncodePPM writes the frame as a binary PPM (P6) image.
func (f *Frame) EncodePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", f.Width, f.Height); err != nil {
		return fmt.Errorf("ppm header: %w", err)
	}
	if _, err := w.Write(f.Pix); err != nil {
		return fmt.Errorf("ppm pixels: %w", err)
	}
	return nil
}

// DecodePPM reads a binary PPM (P6) image as produced by EncodePPM.
func DecodePPM(r io.Reader) (*Frame, error) {
	var magic string
	var width, height, maxval int
	if _, err := fmt.Fscan(r, &magic, &width, &height, &maxval); err != nil {
		return nil, fmt.Errorf("ppm header: %w", err)
	}
	if magic != "P6" {
		return nil, fmt.Errorf("ppm: unsupported magic %q", magic)
	}
	if maxval != 255 {
		return nil, fmt.Errorf("ppm: unsupported maxval %d", maxval)
	}
	// Consume the single whitespace byte after the header.
	var ws [1]byte
	if _, err := io.ReadFull(r, ws[:]); err != nil {
		return nil, fmt.Errorf("ppm separator: %w", err)
	}
	f, err := NewFrame(width, height)
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, f.Pix); err != nil {
		return nil, fmt.Errorf("ppm pixels: %w", err)
	}
	return f, nil
}

// ErrShortBuffer is returned by FrameFromBytes when the pixel payload does
// not match the declared dimensions.
var ErrShortBuffer = errors.New("imaging: pixel buffer length mismatch")

// FrameFromBytes wraps an existing raw RGB buffer as a Frame without
// copying. The caller must not reuse the buffer.
func FrameFromBytes(width, height int, pix []uint8) (*Frame, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("imaging: invalid frame size %dx%d", width, height)
	}
	// Bound width before multiplying: dimensions decoded from a frame record
	// can make width*height*3 wrap to len(pix).
	if width > len(pix)/3/height || len(pix) != width*height*3 {
		return nil, fmt.Errorf("%w: have %d bytes for %dx%d RGB", ErrShortBuffer, len(pix), width, height)
	}
	return &Frame{Width: width, Height: height, Pix: pix}, nil
}
