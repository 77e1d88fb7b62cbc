package framestore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// appendRaw appends length-prefixed bytes to a file, simulating a write
// that landed on disk outside the store's control (crash replay, torn
// write, bit rot).
func appendRaw(t *testing.T, path string, payload []byte, declaredLen int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(declaredLen))
	if _, err := f.Write(lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
}

// encodeRecord is rec as the store writes it, without the length prefix.
func encodeRecord(t *testing.T, rec protocol.FrameRecord) []byte {
	t.Helper()
	data, err := protocol.AppendFrameRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// activeSegPath returns the camera's newest segment file.
func activeSegPath(t *testing.T, dir, camera string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, camera+".*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments for %s: %v", camera, err)
	}
	return matches[len(matches)-1]
}

func writeAndClose(t *testing.T, dir string, seqs ...int64) {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReloadDedupesDuplicateRecords(t *testing.T) {
	dir := t.TempDir()
	writeAndClose(t, dir, 1, 2, 3)

	// A crash-replayed append: seq 2 lands on disk a second time.
	dup := encodeRecord(t, record("cam1", 2))
	appendRaw(t, activeSegPath(t, dir, "cam1"), dup, len(dup))

	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if got := s.Count("cam1"); got != 3 {
		t.Errorf("Count = %d, want 3 (duplicate must not overcount)", got)
	}
	recs, err := s.Range("cam1", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("Range returned %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Errorf("Range[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	if st := s.ReloadStats(); st.DuplicateRecords != 1 {
		t.Errorf("DuplicateRecords = %d, want 1 (stats: %+v)", st.DuplicateRecords, st)
	}
}

func TestReloadSalvagesAfterCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	writeAndClose(t, dir, 1, 2, 3)
	path := activeSegPath(t, dir, "cam1")

	// Rot the middle record's payload in place, framing intact: read
	// record 1's length to find record 2, then scribble inside it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n1 := binary.BigEndian.Uint32(data[:4])
	off2 := 4 + int(n1) + 4 // start of record 2's payload
	copy(data[off2:off2+8], "********")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	// The seed engine treated any decode failure as a tail and silently
	// discarded record 3; the salvaging scan keeps it.
	if got := s.Count("cam1"); got != 2 {
		t.Errorf("Count = %d, want 2 (records 1 and 3 salvaged)", got)
	}
	if _, err := s.Get("cam1", 3); err != nil {
		t.Errorf("record after the corrupt one must survive: %v", err)
	}
	if _, err := s.Get("cam1", 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("corrupt record: got %v, want ErrNotFound", err)
	}
	st := s.ReloadStats()
	if st.CorruptRecords != 1 || st.TornTails != 0 {
		t.Errorf("stats = %+v, want CorruptRecords=1 TornTails=0", st)
	}

	// Appending after salvage does not clobber salvaged records.
	if err := s.Put(record("cam1", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("cam1", 3); err != nil {
		t.Errorf("salvaged record overwritten by append: %v", err)
	}
}

func TestReloadTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	writeAndClose(t, dir, 1, 2)
	path := activeSegPath(t, dir, "cam1")

	// A torn write: the length prefix declares 100 bytes, only 10 landed.
	appendRaw(t, path, make([]byte, 10), 100)
	before, _ := os.Stat(path)

	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Count("cam1"); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	st := s.ReloadStats()
	if st.TornTails != 1 || st.TruncatedBytes != 14 {
		t.Errorf("stats = %+v, want TornTails=1 TruncatedBytes=14", st)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-14 {
		t.Errorf("tail not truncated: %d -> %d", before.Size(), after.Size())
	}

	// Reload-then-append round-trip: the truncated tail's bytes are reused.
	if err := s.Put(record("cam1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := re.Count("cam1"); got != 3 {
		t.Errorf("Count after append+reload = %d, want 3", got)
	}
	if st := re.ReloadStats(); st.TornTails != 0 || st.DuplicateRecords != 0 {
		t.Errorf("second reload found damage: %+v", st)
	}
}

func TestReloadCorruptLengthPrefix(t *testing.T) {
	dir := t.TempDir()
	writeAndClose(t, dir, 1)
	path := activeSegPath(t, dir, "cam1")

	// An impossible length with no intact record after it is a torn tail:
	// the record and the bytes behind it are truncated.
	appendRaw(t, path, make([]byte, 64), maxRecordBytes+1)

	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if got := s.Count("cam1"); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
	st := s.ReloadStats()
	if st.TornTails != 1 || st.TruncatedBytes != 68 {
		t.Errorf("stats = %+v, want TornTails=1 TruncatedBytes=68", st)
	}
}

// flipLengthBit returns seg with one bit of record i's (0-based) length
// prefix flipped: mask xor'd into its byte at (0..3).
func flipLengthBit(t testing.TB, seg []byte, i, at int, mask byte) []byte {
	t.Helper()
	off := 0
	for ; i > 0; i-- {
		off += 4 + int(binary.BigEndian.Uint32(seg[off:]))
	}
	if off+4 > len(seg) {
		t.Fatalf("segment of %d bytes has no record there", len(seg))
	}
	seg = bytes.Clone(seg)
	seg[off+at] ^= mask
	return seg
}

// TestReloadFlippedLengthBitKeepsLaterFrames: one flipped bit in the
// second record's length prefix damages that record alone. Whether the
// length now points past the end of the file or stays in range, the
// frames before and after it are served, the damage is one corrupt span
// rather than a torn tail, and the segment keeps every byte.
func TestReloadFlippedLengthBitKeepsLaterFrames(t *testing.T) {
	for _, c := range []struct {
		name string
		at   int
		mask byte
	}{
		{"length past the end", 0, 0x01}, // 242 -> 16 777 458
		{"length in range", 3, 0x01},     // 242 -> 243
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			writeAndClose(t, dir, 1, 2, 3, 4, 5)
			path := activeSegPath(t, dir, "cam1")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, flipLengthBit(t, data, 1, c.at, c.mask), 0o644); err != nil {
				t.Fatal(err)
			}

			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			for _, seq := range []int64{1, 3, 4, 5} {
				if _, err := s.Get("cam1", seq); err != nil {
					t.Errorf("frame %d: %v", seq, err)
				}
			}
			if _, err := s.Get("cam1", 2); !errors.Is(err, ErrNotFound) {
				t.Errorf("damaged frame 2: got %v, want ErrNotFound", err)
			}
			if st := s.ReloadStats(); st.CorruptRecords != 1 || st.TornTails != 0 || st.TruncatedBytes != 0 {
				t.Errorf("stats = %+v, want CorruptRecords=1 TornTails=0", st)
			}
			if info, err := os.Stat(path); err != nil || info.Size() != int64(len(data)) {
				t.Errorf("segment size after open: %v (%v), want %d", info.Size(), err, len(data))
			}
		})
	}
}

// TestReloadRefusesSingleFileLog: a pre-segment "<camera>.frames" log,
// length-prefixed JSON records as the seed engine wrote them, refuses the
// open with ErrPreFloorFormat naming it, before any camera is opened: the
// log and another camera's files are left as they were.
func TestReloadRefusesSingleFileLog(t *testing.T) {
	dir := t.TempDir()
	writeAndClose(t, dir, 1, 2)
	var raw []byte
	for seq := int64(1); seq <= 3; seq++ {
		data, err := json.Marshal(record("cam0", seq))
		if err != nil {
			t.Fatal(err)
		}
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(data)))
		raw = append(raw, data...)
	}
	legacy := filepath.Join(dir, "cam0.frames")
	if err := os.WriteFile(legacy, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)

	if _, err := OpenStore(dir); !errors.Is(err, ErrPreFloorFormat) || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("open = %v, want ErrPreFloorFormat naming %s", err, legacy)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refused open changed the directory: %d files before, %d after", len(before), len(after))
	}
}

func TestReloadDeletesStraySegments(t *testing.T) {
	dir := t.TempDir()
	writeAndClose(t, dir, 1, 2)

	// A GC that wrote its manifest but crashed before the unlink leaves a
	// segment file on disk that the manifest no longer lists. Its frames
	// were garbage-collected; they must not resurrect as phantoms.
	stray := segPath(dir, "cam1", 99)
	data := encodeRecord(t, record("cam1", 77))
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, stray, data, len(data))

	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if got := s.Count("cam1"); got != 2 {
		t.Errorf("Count = %d, want 2 (phantom frame resurrected)", got)
	}
	if _, err := s.Get("cam1", 77); !errors.Is(err, ErrNotFound) {
		t.Errorf("GC'd frame resurrected: %v", err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Error("stray segment not deleted")
	}
	if st := s.ReloadStats(); st.StraySegments != 1 {
		t.Errorf("StraySegments = %d, want 1", st.StraySegments)
	}
}

func TestReloadListedButMissingSegment(t *testing.T) {
	// A roll persists the manifest before creating the segment file; a
	// crash in between leaves a listed id with no file. Open must treat
	// it as empty, not fail.
	dir := t.TempDir()
	s, err := OpenStoreConfig(dir, Config{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1: every put seals its segment and rolls.
	for seq := int64(1); seq <= 3; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: delete the newest segment's file but keep it in
	// the manifest.
	if err := os.Remove(activeSegPath(t, dir, "cam1")); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := re.Count("cam1"); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if err := re.Put(record("cam1", 4)); err != nil {
		t.Fatalf("append into recreated segment: %v", err)
	}
}

func TestSegmentRollPersistence(t *testing.T) {
	// Multi-segment writes survive a reload with every record readable.
	dir := t.TempDir()
	s, err := OpenStoreConfig(dir, Config{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for seq := int64(1); seq <= n; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "cam1.*"+segSuffix))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := re.Count("cam1"); got != n {
		t.Errorf("Count = %d, want %d", got, n)
	}
	recs, err := re.Range("cam1", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("Range returned %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Fatalf("Range[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
}
