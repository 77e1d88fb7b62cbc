package framestore

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

func record(camera string, seq int64) protocol.FrameRecord {
	img := imaging.MustNewFrame(8, 6)
	img.FillRect(imaging.Rect{X: int(seq % 8), Y: 0, W: 2, H: 2}, imaging.Red)
	return protocol.FrameRecord{
		CameraID:  camera,
		Seq:       seq,
		Timestamp: time.Date(2020, 12, 7, 0, 0, int(seq), 0, time.UTC),
		Width:     img.Width,
		Height:    img.Height,
		Pixels:    img.Pix,
		Annotations: []protocol.BoxAnnotation{
			{TrackID: seq, X: 1, Y: 1, W: 2, H: 2, Label: "car", Confidence: 0.9},
		},
	}
}

func TestMemStorePutGet(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.Put(record("cam1", 1)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("cam1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || len(got.Pixels) != 8*6*3 || len(got.Annotations) != 1 {
		t.Errorf("got %+v", got)
	}
	if _, err := s.Get("cam1", 99); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing seq: %v", err)
	}
	if _, err := s.Get("ghost", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing camera: %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	bad := record("cam1", 1)
	bad.CameraID = ""
	if err := s.Put(bad); err == nil {
		t.Error("missing camera accepted")
	}
	bad2 := record("cam1", 1)
	bad2.Pixels = bad2.Pixels[:10]
	if err := s.Put(bad2); err == nil {
		t.Error("inconsistent pixels accepted")
	}
	// (2^62+1)*4*3 wraps to 12 in a 64-bit int; a network record claiming
	// those dimensions over 12 pixel bytes must not be stored.
	huge := record("cam1", 2)
	huge.Width, huge.Height, huge.Pixels = 1<<62+1, 4, make([]byte, 12)
	if err := s.Put(huge); err == nil {
		t.Error("overflowing dimensions accepted")
	}
	if n := s.Count("cam1"); n != 0 {
		t.Errorf("store holds %d records, want 0", n)
	}
}

func TestPutIdempotent(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.Put(record("cam1", 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(record("cam1", 5)); err != nil {
		t.Fatal(err)
	}
	if s.Count("cam1") != 1 {
		t.Errorf("count = %d", s.Count("cam1"))
	}
}

func TestRange(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	for _, seq := range []int64{5, 1, 3, 9, 7} { // out of order
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.Range("cam1", 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 3 || recs[1].Seq != 5 || recs[2].Seq != 7 {
		t.Errorf("range = %+v", recs)
	}
	empty, err := s.Range("ghost", 0, 10)
	if err != nil || empty != nil {
		t.Errorf("ghost range = %v err %v", empty, err)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 5; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(record("cam2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(record("cam1", 6)); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close: %v", err)
	}

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if s2.Count("cam1") != 5 || s2.Count("cam2") != 1 {
		t.Fatalf("reloaded counts %d/%d", s2.Count("cam1"), s2.Count("cam2"))
	}
	got, err := s2.Get("cam1", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := record("cam1", 3)
	if got.Seq != want.Seq || len(got.Pixels) != len(want.Pixels) {
		t.Errorf("reloaded record differs")
	}
	for i := range got.Pixels {
		if got.Pixels[i] != want.Pixels[i] {
			t.Error("pixels corrupted")
			break
		}
	}
	cams := s2.Cameras()
	if len(cams) != 2 || cams[0] != "cam1" || cams[1] != "cam2" {
		t.Errorf("cameras = %v", cams)
	}
	// Appending continues after reload.
	if err := s2.Put(record("cam1", 6)); err != nil {
		t.Fatal(err)
	}
	if s2.Count("cam1") != 6 {
		t.Errorf("count after append = %d", s2.Count("cam1"))
	}
}

func TestServerClientOverBus(t *testing.T) {
	bus := transport.NewBus()
	sep, err := bus.Endpoint("framestore")
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }()
	srv, err := NewServer(store, sep)
	if err != nil {
		t.Fatal(err)
	}

	cep, err := bus.Endpoint("cam1")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewMultiClient(cep, []string{"framestore"}, MultiClientConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := cl.StoreFrameContext(context.Background(), record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	if store.Count("cam1") != 3 {
		t.Errorf("stored %d frames", store.Count("cam1"))
	}
	received, errs := srv.Stats()
	if received != 3 || errs != 0 {
		t.Errorf("stats = %d/%d", received, errs)
	}
}

func TestServerIgnoresWrongMessages(t *testing.T) {
	bus := transport.NewBus()
	sep, err := bus.Endpoint("framestore")
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = store.Close() }()
	srv, err := NewServer(store, sep)
	if err != nil {
		t.Fatal(err)
	}
	cep, err := bus.Endpoint("x")
	if err != nil {
		t.Fatal(err)
	}
	env, err := protocol.Seal(protocol.Retire{EventID: "a#1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cep.Send(context.Background(), "framestore", env); err != nil {
		t.Fatal(err)
	}
	if _, errs := srv.Stats(); errs != 1 {
		t.Errorf("errors = %d, want 1", errs)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	bus := transport.NewBus()
	sep, err := bus.Endpoint("framestore")
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, sep)
	if err != nil {
		t.Fatal(err)
	}

	cep, err := bus.Endpoint("cam1")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewMultiClient(cep, []string{"framestore"}, MultiClientConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := cl.StoreFrameContext(context.Background(), record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.DrainObservations(); got != 1 {
		t.Errorf("drain observations = %d, want 1", got)
	}
	// Intake is cut: frames after shutdown neither land nor count.
	_ = cl.StoreFrameContext(context.Background(), record("cam1", 4))
	received, errs := srv.Stats()
	if received != 3 || errs != 0 {
		t.Errorf("stats after shutdown = %d/%d, want 3/0", received, errs)
	}
	// The store was flushed and closed as part of the drain.
	if err := store.Put(record("cam1", 5)); !errors.Is(err, ErrClosed) {
		t.Errorf("store accepts writes after shutdown: %v", err)
	}
	// Idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if got := srv.DrainObservations(); got != 1 {
		t.Errorf("drain observations after repeat = %d, want 1", got)
	}

	// The flushed frames survive a reopen.
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := re.Count("cam1"); got != 3 {
		t.Errorf("reopened store holds %d frames, want 3", got)
	}
}
