package recordlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The test framing: a 2-byte big-endian body length (1..maxBody), the
// body's CRC-32C and the body.
const (
	headerLen = 6
	maxBody   = 1024
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func probe(b []byte) ([]byte, int, bool) {
	if len(b) < headerLen {
		return nil, 0, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if n == 0 || n > maxBody || n > len(b)-headerLen {
		return nil, 0, false
	}
	body := b[headerLen : headerLen+n]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[2:]) {
		return nil, 0, false
	}
	return body, headerLen + n, true
}

func frame(dst []byte, body string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum([]byte(body), castagnoli))
	return append(dst, body...)
}

// event is one callback of a replay: a visited record or a damaged span.
type event struct {
	off, end int64
	damage   bool
	torn     bool
}

// replay writes data to a file and replays it, returning the callbacks
// in order, the size Replay kept and the file's bytes afterwards.
func replay(t *testing.T, r *Reader[[]byte], data []byte, judge func(Damage) error) ([]event, int64, []byte, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var got []event
	r.Probe = probe
	r.Visit = func(off int64, size int, body []byte) error {
		if !bytes.Equal(data[off+headerLen:off+int64(size)], body) {
			t.Fatalf("record at %d: visited body is not the file's bytes", off)
		}
		got = append(got, event{off: off, end: off + int64(size)})
		return nil
	}
	r.Damage = func(d Damage) error {
		if !bytes.Equal(d.Bytes, data[d.Offset:d.Next]) {
			t.Fatalf("damage at %d: Bytes is not the span %d..%d", d.Offset, d.Offset, d.Next)
		}
		got = append(got, event{off: d.Offset, end: d.Next, damage: true, torn: d.Torn})
		if judge != nil {
			return judge(d)
		}
		return nil
	}
	kept, rerr := r.Replay(f)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got, kept, after, rerr
}

// oracle classifies data by brute force: which offsets hold an intact
// record, then a walk over that table.
func oracle(data []byte) []event {
	size := make([]int, len(data))
	for i := range data {
		if _, n, ok := probe(data[i:]); ok {
			size[i] = n
		}
	}
	var out []event
	for off := 0; off < len(data); {
		if size[off] > 0 {
			out = append(out, event{off: int64(off), end: int64(off + size[off])})
			off += size[off]
			continue
		}
		next := len(data)
		for j := off + 1; j < len(data); j++ {
			if size[j] > 0 {
				next = j
				break
			}
		}
		out = append(out, event{off: int64(off), end: int64(next), damage: true, torn: next == len(data)})
		off = next
	}
	return out
}

func TestReplayCleanLog(t *testing.T) {
	log := frame(frame(frame(nil, "a"), "bb"), "ccc")
	got, kept, after, err := replay(t, &Reader[[]byte]{}, log, nil)
	want := []event{{off: 0, end: 7}, {off: 7, end: 15}, {off: 15, end: 24}}
	if err != nil || kept != int64(len(log)) || !reflect.DeepEqual(got, want) || !bytes.Equal(after, log) {
		t.Fatalf("replay = %v, kept %d, err %v; want %v, kept %d", got, kept, err, want, len(log))
	}
}

// TestReplayTornTailTruncated: a record cut short with nothing intact
// after it is a torn tail, truncated to the last intact record's end.
func TestReplayTornTailTruncated(t *testing.T) {
	good := frame(frame(nil, "a"), "bb")
	log := append(bytes.Clone(good), frame(nil, "ccc")[:7]...)
	got, kept, after, err := replay(t, &Reader[[]byte]{}, log, nil)
	want := []event{{off: 0, end: 7}, {off: 7, end: 15}, {off: 15, end: 22, damage: true, torn: true}}
	if err != nil || kept != 15 || !reflect.DeepEqual(got, want) || !bytes.Equal(after, good) {
		t.Fatalf("replay = %v, kept %d, err %v, file %d bytes; want %v, kept 15", got, kept, err, len(after), want)
	}
}

// TestReplayMidFileDamageResumes: a damaged record followed by an intact
// one is one span; the walk resumes at the intact record and the file
// keeps every byte.
func TestReplayMidFileDamageResumes(t *testing.T) {
	log := frame(frame(frame(nil, "a"), "bb"), "ccc")
	log[7] ^= 0x01 // record 2's length 2 -> 258
	got, kept, after, err := replay(t, &Reader[[]byte]{}, log, nil)
	want := []event{{off: 0, end: 7}, {off: 7, end: 15, damage: true}, {off: 15, end: 24}}
	if err != nil || kept != int64(len(log)) || !reflect.DeepEqual(got, want) || !bytes.Equal(after, log) {
		t.Fatalf("replay = %v, kept %d, err %v; want %v, kept %d", got, kept, err, want, len(log))
	}
}

// TestReplayRefusedDamageLeavesFile: a Damage error ends the replay
// before the torn tail is truncated.
func TestReplayRefusedDamageLeavesFile(t *testing.T) {
	log := append(frame(nil, "a"), 0, 0, 0)
	refuse := errors.New("refused")
	_, _, after, err := replay(t, &Reader[[]byte]{}, log, func(Damage) error { return refuse })
	if !errors.Is(err, refuse) || !bytes.Equal(after, log) {
		t.Fatalf("err %v, file %x; want the Damage error and %x", err, after, log)
	}
}

// TestReplayReusesBuffer: a shorter file after a longer one reads as
// itself, not as the longer file's leftover bytes.
func TestReplayReusesBuffer(t *testing.T) {
	var r Reader[[]byte]
	long := frame(frame(nil, "aaaa"), "bbbb")
	if _, _, _, err := replay(t, &r, long, nil); err != nil {
		t.Fatal(err)
	}
	got, kept, _, err := replay(t, &r, frame(nil, "c"), nil)
	if err != nil || kept != 7 || !reflect.DeepEqual(got, []event{{off: 0, end: 7}}) {
		t.Fatalf("second replay = %v, kept %d, err %v", got, kept, err)
	}
}

// FuzzReplay replays arbitrary bytes under the test framing. Replay must
// not panic; its callbacks must be the brute-force oracle's, records in
// order and disjoint; only a torn tail may shrink the file. Separately, a
// clean log built from the input and cut at any byte must read as a torn
// tail, never as mid-file damage.
func FuzzReplay(f *testing.F) {
	clean := frame(frame(frame(nil, "a"), "bb"), "ccc")
	f.Add(clean, uint16(0))
	f.Add(clean[:len(clean)-2], uint16(9))
	f.Add(append(bytes.Clone(clean), make([]byte, 32)...), uint16(20))
	mid := bytes.Clone(clean)
	mid[7] ^= 0x01
	f.Add(mid, uint16(7))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		if len(data) > 1<<12 {
			return // the oracle is quadratic
		}
		got, kept, after, err := replay(t, &Reader[[]byte]{}, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(data); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay = %v, oracle %v", got, want)
		}
		wantKept := int64(len(data))
		for i, e := range got {
			if i > 0 && e.off != got[i-1].end || e.end <= e.off {
				t.Fatalf("callback %d (%v) does not start where %v ends", i, e, got[i-1])
			}
			if e.torn {
				wantKept = e.off
			}
		}
		if kept != wantKept || !bytes.Equal(after, data[:kept]) {
			t.Fatalf("kept %d, file %d bytes; want %d", kept, len(after), wantKept)
		}

		// A clean log of the input's bytes, in bodies of 1..64 bytes with
		// the high bit set, so no length inside a body is in range.
		var log []byte
		for len(data) > 1 {
			n := min(1+int(data[0])%64, len(data)-1)
			body := bytes.Clone(data[1 : 1+n])
			for i := range body {
				body[i] |= 0x80
			}
			log = frame(log, string(body))
			data = data[1+n:]
		}
		c := int(cut) % (len(log) + 1)
		got, _, _, err = replay(t, &Reader[[]byte]{}, log[:c], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range got {
			if e.damage && (!e.torn || i != len(got)-1) {
				t.Fatalf("log of %d bytes cut at %d: mid-file damage %v", len(log), c, e)
			}
		}
	})
}
