package framestore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/recordlog"
)

// Disk layout: each camera owns size-bounded append-only segment files
// "<camera>.<id:08d>.seg" plus a manifest "<camera>.manifest" naming the
// live segments in order. Crash protocol:
//
//   - roll: the manifest (with the new id appended and Next bumped) is
//     persisted BEFORE the segment file is created, so a listed-but-
//     missing segment just means "no records landed yet" and is created
//     empty on open;
//   - GC: the manifest (with the segment removed) is persisted BEFORE
//     the unlink, so an on-disk segment absent from the manifest is a GC
//     leftover and is deleted on open — a GC'd frame can never resurrect
//     as a phantom after a crash.
//
// A segment record is a 4-byte big-endian length and a binary frame record
// (protocol.AppendFrameRecord). A directory older versions wrote — a
// single-file "<camera>.frames" log, or a segment holding a JSON record —
// fails the open with ErrPreFloorFormat.

// segSuffix and manifestSuffix are the on-disk file extensions.
const (
	segSuffix      = ".seg"
	manifestSuffix = ".manifest"
)

// ErrPreFloorFormat is returned by OpenStore for a directory holding a
// format older versions wrote, which this version does not read.
var ErrPreFloorFormat = errors.New("framestore: pre-floor format; serve the directory with a framestore-server built from 71177d7 up to 96814f2 and -retain-frames until retention has collected the segments holding JSON records, or remove them")

// manifest is the persisted per-camera segment list.
type manifest struct {
	Version  int     `json:"version"`
	Segments []int64 `json:"segments"`
	// Next is the next segment id to allocate; ids below it that are
	// neither listed nor on disk were deleted by GC.
	Next int64 `json:"next"`
}

// recordRef locates one record: its segment and byte offset. The zero
// value is used by the in-memory backend.
type recordRef struct {
	seg *segment
	off int64
}

// segment is one append-only slice of a camera's log. Records are
// immutable once published, so readers serve ReadAt against f while
// holding a refcount; the file handle is closed only when the segment is
// dead (GC'd or store-closed) and the last reader releases it.
type segment struct {
	id   int64
	path string

	// The fields below are guarded by Store.mu, except that w is used by
	// the per-camera append path under cameraLog.wmu (only the writer
	// touches w).
	f      *os.File
	w      *bufio.Writer // non-nil while this is the active segment
	size   int64
	frames int64
	minSeq int64
	maxSeq int64
	newest time.Time // newest record timestamp, drives age retention
	refs   int       // pins by in-flight readers + 1 for the store itself
	dead   bool
}

// acquire pins the segment's file handle for a read. Caller holds
// Store.mu; the returned file stays valid until release.
func (seg *segment) acquire() *os.File {
	seg.refs++
	return seg.f
}

// noteRecord folds one published record into the segment's bookkeeping.
// Caller holds Store.mu.
func (seg *segment) noteRecord(seq int64, ts time.Time, n int64) {
	if seg.frames == 0 || seq < seg.minSeq {
		seg.minSeq = seq
	}
	if seg.frames == 0 || seq > seg.maxSeq {
		seg.maxSeq = seq
	}
	if ts.After(seg.newest) {
		seg.newest = ts
	}
	seg.frames++
	seg.size += n
}

// release drops one reader pin, closing the file if the segment is dead
// and this was the last pin.
func (s *Store) release(seg *segment) {
	s.mu.Lock()
	_ = s.releaseLocked(seg)
	s.mu.Unlock()
}

// releaseLocked is release with Store.mu held.
func (s *Store) releaseLocked(seg *segment) error {
	seg.refs--
	if seg.dead && seg.refs <= 0 && seg.f != nil {
		err := seg.f.Close()
		seg.f = nil
		return err
	}
	return nil
}

// cameraLog is one camera's segment chain plus index.
type cameraLog struct {
	camera string

	// wmu serializes appends, rolls, manifest writes, and GC for this
	// camera. Lock order: wmu before Store.mu, never the reverse.
	wmu sync.Mutex

	// The fields below are guarded by Store.mu.
	segs  []*segment // manifest order; last may be active (w != nil)
	index map[int64]recordRef
	seqs  []int64
	next  int64                          // next segment id
	mem   map[int64]protocol.FrameRecord // in-memory backend (segs unused)
}

// active returns the camera's writable segment, nil if none. Caller
// holds Store.mu.
func (cl *cameraLog) active() *segment {
	if n := len(cl.segs); n > 0 && cl.segs[n-1].w != nil {
		return cl.segs[n-1]
	}
	return nil
}

func (cl *cameraLog) manifestPath(dir string) string {
	return filepath.Join(dir, cl.camera+manifestSuffix)
}

func segPath(dir, camera string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%08d%s", camera, id, segSuffix))
}

// writeManifest persists the camera's current segment list atomically
// (tmp + rename). Caller holds cl.wmu but NOT Store.mu; it briefly takes
// Store.mu to snapshot the segment ids.
func (s *Store) writeManifest(cl *cameraLog) error {
	s.mu.Lock()
	m := snapshotManifest(cl)
	s.mu.Unlock()
	return s.installManifest(cl, m)
}

// snapshotManifest captures the camera's current segment list. Caller
// holds Store.mu (or runs single-threaded on the open path).
func snapshotManifest(cl *cameraLog) manifest {
	m := manifest{Version: 1, Next: cl.next, Segments: make([]int64, len(cl.segs))}
	for i, seg := range cl.segs {
		m.Segments[i] = seg.id
	}
	return m
}

// installManifest writes one manifest snapshot to disk atomically
// (tmp + rename). Pure IO: takes no locks.
func (s *Store) installManifest(cl *cameraLog, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("framestore: marshal manifest: %w", err)
	}
	path := cl.manifestPath(s.dir)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("framestore: write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("framestore: install manifest: %w", err)
	}
	return nil
}

// rollSegment allocates and opens a fresh active segment. Caller holds
// cl.wmu and the previous active (if any) must already be sealed.
func (s *Store) rollSegment(cl *cameraLog) (*segment, error) {
	s.mu.Lock()
	id := cl.next
	cl.next++
	s.mu.Unlock()

	seg := &segment{id: id, path: segPath(s.dir, cl.camera, id), refs: 1}
	// Manifest first: a crash after this point leaves a listed segment
	// with no file, which open treats as empty (no records are lost —
	// none were written yet).
	s.mu.Lock()
	cl.segs = append(cl.segs, seg)
	s.mu.Unlock()
	if err := s.writeManifest(cl); err != nil {
		s.mu.Lock()
		cl.segs = cl.segs[:len(cl.segs)-1]
		s.mu.Unlock()
		return nil, err
	}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		s.mu.Lock()
		cl.segs = cl.segs[:len(cl.segs)-1]
		s.mu.Unlock()
		return nil, fmt.Errorf("framestore: create segment: %w", err)
	}
	s.mu.Lock()
	seg.f = f
	seg.w = bufio.NewWriter(f)
	s.mu.Unlock()
	return seg, nil
}

// sealActive flushes and seals the camera's active segment, if any.
// Caller holds cl.wmu.
func (s *Store) sealActive(cl *cameraLog) error {
	s.mu.Lock()
	seg := cl.active()
	s.mu.Unlock()
	if seg == nil {
		return nil
	}
	if err := seg.w.Flush(); err != nil {
		return fmt.Errorf("framestore: seal segment: %w", err)
	}
	s.mu.Lock()
	seg.w = nil
	s.mu.Unlock()
	return nil
}

// scanDir discovers and opens every camera found under the store root:
// manifested segment chains and segment files no manifest lists yet. A
// single-file "<camera>.frames" log refuses the open before any camera is
// opened.
func (s *Store) scanDir() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("framestore: scan: %w", err)
	}
	cameras := make(map[string]bool)
	orphans := make(map[string][]int64) // camera -> segment ids seen on disk
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(name, manifestSuffix):
			cameras[strings.TrimSuffix(name, manifestSuffix)] = true
		case strings.HasSuffix(name, ".frames"):
			return fmt.Errorf("%w (found %s, a single-file log)", ErrPreFloorFormat, filepath.Join(s.dir, name))
		case strings.HasSuffix(name, segSuffix):
			camera, id, ok := parseSegName(name)
			if !ok {
				continue
			}
			cameras[camera] = true
			orphans[camera] = append(orphans[camera], id)
		}
	}
	var r recordlog.Reader[protocol.FrameRecord] // one buffer for every segment
	for _, camera := range sortedKeys(cameras) {
		cl, err := s.openCamera(camera, orphans[camera], &r)
		if err != nil {
			return err
		}
		s.logs[camera] = cl
	}
	return nil
}

// parseSegName splits "<camera>.<id:08d>.seg"; camera names may contain
// dots, so the id is taken from the right.
func parseSegName(name string) (camera string, id int64, ok bool) {
	base := strings.TrimSuffix(name, segSuffix)
	i := strings.LastIndexByte(base, '.')
	if i <= 0 || i == len(base)-1 {
		return "", 0, false
	}
	id, err := strconv.ParseInt(base[i+1:], 10, 64)
	if err != nil || id < 0 {
		return "", 0, false
	}
	return base[:i], id, true
}

// openCamera loads one camera's segment chain: manifest load (or
// reconstruction from on-disk segments), stray-segment cleanup, and
// per-segment indexing with salvage through r. Single-threaded (open path)
// or called under Store.mu for a brand-new camera.
func (s *Store) openCamera(camera string, diskIDs []int64, r *recordlog.Reader[protocol.FrameRecord]) (*cameraLog, error) {
	cl := &cameraLog{camera: camera, index: make(map[int64]recordRef)}

	var m manifest
	data, err := os.ReadFile(cl.manifestPath(s.dir))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("framestore: manifest %s: %w", camera, err)
		}
	case errors.Is(err, os.ErrNotExist):
		// No manifest: adopt every segment found on disk, oldest first.
		slices.Sort(diskIDs)
		m = manifest{Version: 1, Segments: diskIDs}
	default:
		return nil, fmt.Errorf("framestore: manifest %s: %w", camera, err)
	}
	m.Next = max(m.Next, 0)
	for _, id := range m.Segments {
		m.Next = max(m.Next, id+1)
	}
	cl.next = m.Next

	// Stray segments (on disk, not in the manifest) are GC leftovers:
	// the manifest dropped them before the unlink, the unlink did not
	// land. Finish the job instead of resurrecting phantom frames.
	listed := make(map[int64]bool, len(m.Segments))
	for _, id := range m.Segments {
		listed[id] = true
	}
	for _, id := range diskIDs {
		if listed[id] {
			continue
		}
		if err := os.Remove(segPath(s.dir, camera, id)); err != nil {
			return nil, fmt.Errorf("framestore: remove stray segment: %w", err)
		}
		s.reload.StraySegments++
		slog.Warn("deleted stray segment left by an interrupted gc",
			"component", "framestore", "camera", camera, "segment", id)
	}

	for _, id := range m.Segments {
		seg, err := s.indexSegment(cl, id, r)
		if err != nil {
			return nil, err
		}
		cl.segs = append(cl.segs, seg)
		s.reload.Segments++
	}
	slices.Sort(cl.seqs)

	// Reopen the newest segment for appending (it may be mid-fill).
	if n := len(cl.segs); n > 0 {
		seg := cl.segs[n-1]
		if _, err := seg.f.Seek(seg.size, io.SeekStart); err != nil {
			return nil, fmt.Errorf("framestore: seek %s: %w", seg.path, err)
		}
		seg.w = bufio.NewWriter(seg.f)
	}
	// openCamera runs single-threaded (open path) or under Store.mu (a
	// new camera's first frame), so it snapshots the manifest inline
	// instead of going through writeManifest's locking.
	if err := s.installManifest(cl, snapshotManifest(cl)); err != nil {
		return nil, err
	}
	return cl, nil
}

// indexSegment opens one segment file and indexes it through r (shared
// across an open for its buffer) with probeFrame. A torn tail is
// truncated by r; a mid-file damaged span counts once in CorruptRecords,
// its bytes kept. A duplicate (camera, seq) keeps its first occurrence, so a
// crash-replayed append cannot overcount. A JSON record where the walk
// reaches damage, which versions before the binary frame record wrote,
// fails the open with ErrPreFloorFormat rather than pass for disk rot.
func (s *Store) indexSegment(cl *cameraLog, id int64, r *recordlog.Reader[protocol.FrameRecord]) (*segment, error) {
	path := segPath(s.dir, cl.camera, id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("framestore: open %s: %w", path, err)
	}
	seg := &segment{id: id, path: path, f: f, refs: 1}
	r.Probe = probeFrame
	r.Visit = func(off int64, size int, rec protocol.FrameRecord) error {
		if _, dup := cl.index[rec.Seq]; dup {
			s.reload.DuplicateRecords++
			return nil
		}
		cl.index[rec.Seq] = recordRef{seg: seg, off: off}
		cl.seqs = append(cl.seqs, rec.Seq)
		seg.noteRecord(rec.Seq, rec.Timestamp, int64(size))
		s.reload.Frames++
		return nil
	}
	r.Damage = func(d recordlog.Damage) error {
		if body, ok := recordBody(d.Bytes); ok && len(body) > 0 && body[0] == '{' {
			return fmt.Errorf("%w (JSON record at byte %d of %s)", ErrPreFloorFormat, d.Offset, path)
		}
		if d.Torn {
			s.reload.TornTails++
			s.reload.TruncatedBytes += int64(len(d.Bytes))
			return nil
		}
		s.reload.CorruptRecords++
		slog.Warn("skipped damaged span", "component", "framestore",
			"camera", cl.camera, "segment", id, "offset", d.Offset, "next", d.Next)
		return nil
	}
	kept, err := r.Replay(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	// A kept corrupt span occupies bytes without being indexed; size
	// covers it so appends land after, not over, it.
	seg.size = kept
	s.disk += kept
	return seg, nil
}

// recordBody returns the body of the length-prefixed record at the start
// of b, ok when its length is within maxRecordBytes and it lies in b.
func recordBody(b []byte) ([]byte, bool) {
	if len(b) < 4 {
		return nil, false
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxRecordBytes || int64(n) > int64(len(b)-4) {
		return nil, false
	}
	return b[4 : 4+n], true
}

// probeFrame is the segment probe: a record whose body decodes to a frame
// record Put would accept.
func probeFrame(b []byte) (protocol.FrameRecord, int, bool) {
	body, ok := recordBody(b)
	if !ok {
		return protocol.FrameRecord{}, 0, false
	}
	rec, err := protocol.DecodeFrameRecord(body)
	return rec, 4 + len(body), err == nil && validate(&rec) == nil
}

func readRecordAt(f *os.File, offset int64) (protocol.FrameRecord, error) {
	if f == nil {
		return protocol.FrameRecord{}, ErrClosed
	}
	var lenBuf [4]byte
	if _, err := f.ReadAt(lenBuf[:], offset); err != nil {
		return protocol.FrameRecord{}, fmt.Errorf("framestore: read: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxRecordBytes {
		return protocol.FrameRecord{}, fmt.Errorf("framestore: corrupt record length %d", n)
	}
	data := make([]byte, n)
	if _, err := f.ReadAt(data, offset+4); err != nil {
		return protocol.FrameRecord{}, fmt.Errorf("framestore: read: %w", err)
	}
	rec, err := protocol.DecodeFrameRecord(data)
	if err != nil {
		return protocol.FrameRecord{}, fmt.Errorf("framestore: decode: %w", err)
	}
	return rec, nil
}
