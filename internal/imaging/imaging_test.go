package imaging

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewFrameValidation(t *testing.T) {
	if _, err := NewFrame(0, 10); err == nil {
		t.Error("zero width should error")
	}
	if _, err := NewFrame(10, -1); err == nil {
		t.Error("negative height should error")
	}
	f, err := NewFrame(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Pix) != 4*3*3 {
		t.Errorf("pix len = %d", len(f.Pix))
	}
}

func TestSetAt(t *testing.T) {
	f := MustNewFrame(10, 10)
	f.Set(3, 4, Red)
	if got := f.At(3, 4); got != Red {
		t.Errorf("At(3,4) = %v", got)
	}
	if got := f.At(0, 0); got != Black {
		t.Errorf("unset pixel = %v", got)
	}
	// Out-of-bounds is safe.
	f.Set(-1, 0, White)
	f.Set(100, 0, White)
	if got := f.At(-1, 0); got != Black {
		t.Errorf("OOB At = %v", got)
	}
}

func TestFillAndFillRect(t *testing.T) {
	f := MustNewFrame(8, 8)
	f.Fill(Gray)
	if f.At(7, 7) != Gray {
		t.Error("Fill missed corner")
	}
	f.FillRect(Rect{X: 2, Y: 2, W: 3, H: 3}, Red)
	if f.At(2, 2) != Red || f.At(4, 4) != Red {
		t.Error("FillRect interior wrong")
	}
	if f.At(5, 5) != Gray || f.At(1, 1) != Gray {
		t.Error("FillRect bled outside")
	}
	// Clipping: a rect partially off-frame must not panic and must paint
	// the visible part.
	f.FillRect(Rect{X: -2, Y: -2, W: 4, H: 4}, Blue)
	if f.At(0, 0) != Blue || f.At(1, 1) != Blue {
		t.Error("clipped FillRect missed visible part")
	}
}

func TestDrawRectOutline(t *testing.T) {
	f := MustNewFrame(10, 10)
	f.DrawRectOutline(Rect{X: 1, Y: 1, W: 5, H: 4}, White)
	if f.At(1, 1) != White || f.At(5, 1) != White || f.At(1, 4) != White || f.At(5, 4) != White {
		t.Error("outline corners missing")
	}
	if f.At(3, 2) != Black {
		t.Error("outline filled interior")
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{X: 10, Y: 20, W: 4, H: 6}
	if r.Area() != 24 {
		t.Errorf("Area = %d", r.Area())
	}
	if r.CenterX() != 12 || r.CenterY() != 23 {
		t.Errorf("center = (%v,%v)", r.CenterX(), r.CenterY())
	}
	if (Rect{W: 0, H: 5}).Area() != 0 {
		t.Error("empty rect area should be 0")
	}
	if !(Rect{W: -1, H: 5}).Empty() {
		t.Error("negative width should be empty")
	}
}

func TestIntersect(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 10, H: 10}
	b := Rect{X: 5, Y: 5, W: 10, H: 10}
	got := a.Intersect(b)
	want := Rect{X: 5, Y: 5, W: 5, H: 5}
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	c := Rect{X: 20, Y: 20, W: 5, H: 5}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint rects should have empty intersection")
	}
}

func TestIoU(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 10, H: 10}
	tests := []struct {
		name string
		b    Rect
		want float64
	}{
		{"identical", a, 1},
		{"disjoint", Rect{X: 100, Y: 100, W: 10, H: 10}, 0},
		{"half overlap", Rect{X: 0, Y: 5, W: 10, H: 10}, 50.0 / 150.0},
		{"contained", Rect{X: 2, Y: 2, W: 5, H: 5}, 25.0 / 100.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.IoU(tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("IoU = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIoUProperties(t *testing.T) {
	f := func(x1, y1, w1, h1, x2, y2, w2, h2 int8) bool {
		a := Rect{X: int(x1), Y: int(y1), W: int(w1 & 0x3f), H: int(h1 & 0x3f)}
		b := Rect{X: int(x2), Y: int(y2), W: int(w2 & 0x3f), H: int(h2 & 0x3f)}
		iou := a.IoU(b)
		if iou < 0 || iou > 1 {
			return false
		}
		// Symmetry.
		return math.Abs(iou-b.IoU(a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPPMRoundTrip(t *testing.T) {
	f := MustNewFrame(6, 4)
	f.FillTexturedBackground(Gray, 12345)
	f.FillRect(Rect{X: 1, Y: 1, W: 2, H: 2}, Red)
	var buf bytes.Buffer
	if err := f.EncodePPM(&buf); err != nil {
		t.Fatalf("EncodePPM: %v", err)
	}
	got, err := DecodePPM(&buf)
	if err != nil {
		t.Fatalf("DecodePPM: %v", err)
	}
	if !got.Equal(f) {
		t.Error("PPM round trip lost data")
	}
}

func TestDecodePPMErrors(t *testing.T) {
	if _, err := DecodePPM(strings.NewReader("P5\n2 2\n255\n")); err == nil {
		t.Error("wrong magic should error")
	}
	if _, err := DecodePPM(strings.NewReader("P6\n2 2\n65535\n")); err == nil {
		t.Error("16-bit maxval should error")
	}
	if _, err := DecodePPM(strings.NewReader("P6\n2 2\n255\n\x00\x01")); err == nil {
		t.Error("truncated pixels should error")
	}
	if _, err := DecodePPM(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
}

func TestTexturedBackgroundDeterministic(t *testing.T) {
	a := MustNewFrame(16, 16)
	b := MustNewFrame(16, 16)
	a.FillTexturedBackground(Gray, 7)
	b.FillTexturedBackground(Gray, 7)
	if !a.Equal(b) {
		t.Error("same seed should render identical background")
	}
	c := MustNewFrame(16, 16)
	c.FillTexturedBackground(Gray, 8)
	if a.Equal(c) {
		t.Error("different seeds should differ")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustNewFrame(4, 4)
	c := f.Clone()
	c.Set(0, 0, White)
	if f.At(0, 0) == White {
		t.Error("Clone should not alias pixels")
	}
}

func TestEqualShapes(t *testing.T) {
	a := MustNewFrame(4, 4)
	b := MustNewFrame(4, 5)
	if a.Equal(b) {
		t.Error("different shapes should not be equal")
	}
}

func TestFrameFromBytes(t *testing.T) {
	pix := make([]uint8, 2*2*3)
	pix[0] = 200
	f, err := FrameFromBytes(2, 2, pix)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(0, 0).R != 200 {
		t.Error("FrameFromBytes should wrap without copying")
	}
	if _, err := FrameFromBytes(2, 2, make([]uint8, 5)); err == nil {
		t.Error("mismatched buffer should error")
	}
	if _, err := FrameFromBytes(0, 2, nil); err == nil {
		t.Error("bad dims should error")
	}
	// (2^62+1)*4*3 wraps to 12 in a 64-bit int: the dimensions must be
	// rejected, not matched against the 12-byte buffer.
	if _, err := FrameFromBytes(1<<62+1, 4, make([]uint8, 12)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("overflowing dims: err = %v, want ErrShortBuffer", err)
	}
}

func TestClamp(t *testing.T) {
	f := MustNewFrame(10, 10)
	got := f.Clamp(Rect{X: -5, Y: 8, W: 20, H: 20})
	want := Rect{X: 0, Y: 8, W: 10, H: 2}
	if got != want {
		t.Errorf("Clamp = %v, want %v", got, want)
	}
}
