package framestore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
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

// file returns the pinned handle (caller already acquired).
func (seg *segment) file() *os.File { return seg.f }

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
	names := make([]string, 0, len(cameras))
	for c := range cameras {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, camera := range names {
		cl, err := s.openCamera(camera, orphans[camera])
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
// per-segment indexing with salvage. Single-threaded (open path) or called
// under Store.mu for a brand-new camera.
func (s *Store) openCamera(camera string, diskIDs []int64) (*cameraLog, error) {
	cl := &cameraLog{camera: camera, index: make(map[int64]recordRef)}
	logger := obs.DefaultLogger().WithComponent("framestore")

	var m manifest
	data, err := os.ReadFile(cl.manifestPath(s.dir))
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("framestore: manifest %s: %w", camera, err)
		}
	case errors.Is(err, os.ErrNotExist):
		// No manifest: adopt every segment found on disk, oldest first.
		sort.Slice(diskIDs, func(i, j int) bool { return diskIDs[i] < diskIDs[j] })
		m = manifest{Version: 1, Segments: diskIDs}
	default:
		return nil, fmt.Errorf("framestore: manifest %s: %w", camera, err)
	}
	m.Next = maxInt64(m.Next, maxID(m.Segments)+1)
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
		logger.Warn("deleted stray segment left by an interrupted gc",
			"camera", camera, "segment", fmt.Sprint(id))
	}

	for _, id := range m.Segments {
		seg, err := s.indexSegment(cl, id)
		if err != nil {
			return nil, err
		}
		cl.segs = append(cl.segs, seg)
		s.reload.Segments++
	}
	sort.Slice(cl.seqs, func(i, j int) bool { return cl.seqs[i] < cl.seqs[j] })

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

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxID(ids []int64) int64 {
	var m int64 = -1
	for _, id := range ids {
		if id > m {
			m = id
		}
	}
	return m
}

// indexSegment opens and indexes one segment file, salvaging what it
// can: a record whose framing is intact but whose payload fails to
// decode is skipped and scanning continues; only an unparsable tail — a
// short read or an impossible length prefix, the signature of a torn
// write — truncates the remainder, logged and counted like the
// trajstore WAL's tail handling. Duplicate (camera, seq) records keep
// their first occurrence only, so a crash-replayed append can no longer
// overcount Count or double-return from Range. A JSON record, which
// versions before the binary frame record wrote, is not salvaged as
// corrupt: it fails the open with ErrPreFloorFormat, since a store that
// reopened with those frames missing would pass for disk rot.
func (s *Store) indexSegment(cl *cameraLog, id int64) (*segment, error) {
	path := segPath(s.dir, cl.camera, id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("framestore: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("framestore: stat %s: %w", path, err)
	}
	fileSize := info.Size()
	seg := &segment{id: id, path: path, f: f, refs: 1}
	logger := obs.DefaultLogger().WithComponent("framestore")

	var offset int64
	var data []byte // reused: only Seq and Timestamp outlive a record's scan
	r := bufio.NewReader(f)
	truncate := func(reason string) error {
		lost := fileSize - offset
		s.reload.TornTails++
		s.reload.TruncatedBytes += lost
		logger.Warn("truncated unreadable segment tail",
			"camera", cl.camera, "segment", fmt.Sprint(id),
			"reason", reason, "offset", fmt.Sprint(offset),
			"truncatedBytes", fmt.Sprint(lost))
		if err := f.Truncate(offset); err != nil {
			return fmt.Errorf("framestore: truncate %s: %w", path, err)
		}
		return nil
	}
	// Not protocol.ReadFrame: salvage must tell a torn header, a corrupt
	// length and a torn payload apart, which a network reader must not.
scan:
	for offset < fileSize {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			if err := truncate("torn length prefix"); err != nil {
				return nil, err
			}
			break
		}
		n := int64(binary.BigEndian.Uint32(lenBuf[:]))
		if n > maxRecordBytes {
			// An impossible length gives no resync point: everything from
			// here on is unreadable.
			if err := truncate("corrupt length prefix"); err != nil {
				return nil, err
			}
			break
		}
		data = slices.Grow(data[:0], int(n))[:n]
		if _, err := io.ReadFull(r, data); err != nil {
			if err := truncate("torn record payload"); err != nil {
				return nil, err
			}
			break
		}
		if n > 0 && data[0] == '{' {
			_ = f.Close()
			return nil, fmt.Errorf("%w (JSON record at byte %d of %s)", ErrPreFloorFormat, offset, path)
		}
		rec, err := protocol.DecodeFrameRecord(data)
		if err != nil {
			// Framing intact, payload rotten: skip this record and keep
			// salvaging — the length prefix still walks the file.
			s.reload.CorruptRecords++
			logger.Warn("skipped undecodable record",
				"camera", cl.camera, "segment", fmt.Sprint(id),
				"offset", fmt.Sprint(offset))
			offset += 4 + n
			continue scan
		}
		if _, dup := cl.index[rec.Seq]; dup {
			s.reload.DuplicateRecords++
			offset += 4 + n
			continue scan
		}
		cl.index[rec.Seq] = recordRef{seg: seg, off: offset}
		cl.seqs = append(cl.seqs, rec.Seq)
		seg.noteRecord(rec.Seq, rec.Timestamp, 4+n)
		s.reload.Frames++
		offset += 4 + n
	}
	// Corrupt-but-framed records occupy bytes without being indexed;
	// size must cover them so appends land after, not over, them.
	seg.size = offset
	s.disk += offset
	return seg, nil
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
