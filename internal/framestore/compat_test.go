package framestore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/protocol"
)

// legacyRecord is the record testdata/json-store holds for (camera,
// seq). That directory was written by the engine that stored records as
// JSON with base64 pixels (SegmentBytes 2048, seqs 1..10 for cameras
// "cam1" and "cam.2"); it is the on-disk format a store upgraded in place
// still carries.
func legacyRecord(camera string, seq int64) protocol.FrameRecord {
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
		want := legacyRecord(camera, seq)
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

// recordFormats counts the JSON and binary records in one segment file.
func recordFormats(t *testing.T, path string) (jsonRecs, binRecs int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for len(data) > 4 {
		n := binary.BigEndian.Uint32(data)
		if data[4] == '{' {
			jsonRecs++
		} else {
			binRecs++
		}
		data = data[4+n:]
	}
	return jsonRecs, binRecs
}

// TestOpenLegacyJSONStore opens a directory of JSON-record segments,
// appends binary records behind them in the same active segment, and
// requires every frame, old and new, to be served after a reopen.
func TestOpenLegacyJSONStore(t *testing.T) {
	dir := copyStore(t, "testdata/json-store")
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
			if err := s.Put(legacyRecord(cam, seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if j, b := recordFormats(t, activeSegPath(t, dir, "cam1")); j == 0 || b == 0 {
		t.Fatalf("active segment holds %d JSON and %d binary records; want both", j, b)
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
