package framestore

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
)

// fixtureRecord is the record testdata/floor-store and testdata/json-store
// hold for (camera, seq), seqs 1..10 for cameras "cam1" and "cam.2" in
// segments of SegmentBytes 2048. floor-store holds them as binary records;
// json-store was written by the engine that stored records as JSON with
// base64 pixels, a format this version refuses.
func fixtureRecord(camera string, seq int64) protocol.FrameRecord {
	const w, h = 12, 8
	pix := make([]byte, w*h*3)
	for i := range pix {
		pix[i] = byte(int(seq)*31 + i*7)
	}
	rec := protocol.FrameRecord{CameraID: camera, Seq: seq,
		Timestamp: time.Date(2020, 12, 7, 10, 0, int(seq), 0, time.FixedZone("", 3600)),
		Width:     w, Height: h, Pixels: pix}
	if seq%2 == 0 {
		rec.Annotations = []protocol.BoxAnnotation{{TrackID: seq, X: 1, Y: 2, W: 3, H: 4, Label: "car", Confidence: 0.75}}
	}
	return rec
}

// copyStore copies a checked-in store directory into a temp dir, since
// opening a store rewrites its manifests.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func checkServes(t *testing.T, s *Store, camera string, from, to int64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		got, err := s.Get(camera, seq)
		if err != nil {
			t.Fatalf("Get(%s, %d): %v", camera, seq, err)
		}
		want := fixtureRecord(camera, seq)
		if crc32.ChecksumIEEE(got.Pixels) != crc32.ChecksumIEEE(want.Pixels) {
			t.Fatalf("%s/%d: pixel CRC %08x, want %08x", camera, seq, crc32.ChecksumIEEE(got.Pixels), crc32.ChecksumIEEE(want.Pixels))
		}
		_, gotOff := got.Timestamp.Zone()
		if !got.Timestamp.Equal(want.Timestamp) || gotOff != 3600 {
			t.Fatalf("%s/%d: timestamp %v, want %v", camera, seq, got.Timestamp, want.Timestamp)
		}
		got.Timestamp, want.Timestamp = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%d:\n got %+v\nwant %+v", camera, seq, got, want)
		}
	}
}

// readDir returns every file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestOpenFloorStore opens a directory of binary-record segments an
// earlier version wrote, appends behind them in the same active segment,
// and requires every frame, old and new, to be served after a reopen.
func TestOpenFloorStore(t *testing.T) {
	dir := copyStore(t, "testdata/floor-store")
	cameras := []string{"cam1", "cam.2"}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.ReloadStats(); st.Frames != 20 || st.CorruptRecords+st.TornTails+st.DuplicateRecords != 0 {
		t.Fatalf("reload stats = %+v, want 20 clean frames", st)
	}
	for _, cam := range cameras {
		checkServes(t, s, cam, 1, 10)
		for seq := int64(11); seq <= 14; seq++ {
			if err := s.Put(fixtureRecord(cam, seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if st := re.ReloadStats(); st.Frames != 28 || st.CorruptRecords+st.TornTails+st.DuplicateRecords != 0 {
		t.Fatalf("reload stats = %+v, want 28 clean frames", st)
	}
	for _, cam := range cameras {
		checkServes(t, re, cam, 1, 14)
	}
}

// TestOpenStoreRefusesJSONRecords: a directory whose segments hold JSON
// records is refused with ErrPreFloorFormat, not reopened with those
// frames skipped as corrupt, and every file in it is left as it was.
func TestOpenStoreRefusesJSONRecords(t *testing.T) {
	dir := copyStore(t, "testdata/json-store")
	before := readDir(t, dir)
	// Cameras open in name order, and "cam.2" sorts first.
	first := filepath.Join(dir, "cam.2.00000000.seg")
	if _, err := OpenStore(dir); !errors.Is(err, ErrPreFloorFormat) || !strings.Contains(err.Error(), first) {
		t.Fatalf("open = %v, want ErrPreFloorFormat naming %s", err, first)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refused open changed the directory: %d files before, %d after", len(before), len(after))
	}
}
