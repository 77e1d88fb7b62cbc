// Package framestore implements Coral-Pie's frame storage (paper Section
// 4.2.2): an edge-node service that persists raw video frames plus their
// tracking annotations so users can verify and visualize trajectories.
// Frames arrive as fire-and-forget FrameRecord messages (the paper uses
// non-blocking ZeroMQ; here the transport layer plays that role).
//
// The disk engine stores each camera's frames in size-bounded append-only
// segments tracked by a per-camera manifest (segment.go). Records are
// immutable once written, so reads are served by positional ReadAt
// against a ref-counted segment handle with only a short index lookup
// under the store lock — readers never wait behind a writer's disk flush.
// Time/size-based retention GC (gc.go) reclaims whole sealed segments so
// evidence storage stays resource-bounded. Delivery to one or several
// framestore servers is the client's job (MultiClient in client.go).
package framestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/recordlog"
)

// Errors returned by the store.
var (
	ErrNotFound = errors.New("framestore: frame not found")
	ErrClosed   = errors.New("framestore: store closed")
)

// maxRecordBytes bounds one stored frame record.
const maxRecordBytes = 32 << 20

// DefaultSegmentBytes is the roll threshold when Config.SegmentBytes is
// zero: large enough that small deployments keep one segment per camera,
// small enough that retention GC has whole segments to reclaim.
const DefaultSegmentBytes = 64 << 20

// Config tunes a store. The zero value keeps frames forever in
// DefaultSegmentBytes segments, matching the behavior of the original
// single-log engine.
type Config struct {
	// SegmentBytes is the per-camera segment roll threshold; a segment
	// that reaches it is sealed and a fresh one started. 0 uses
	// DefaultSegmentBytes.
	SegmentBytes int64
	// RetainAge drops sealed segments whose newest record is older than
	// this (by record timestamp, against Clock). 0 keeps frames forever.
	RetainAge time.Duration
	// RetainBytes bounds the store's total on-disk bytes: when exceeded,
	// GC deletes the globally oldest sealed segments until under the
	// bound. The active segment is never deleted, so the effective bound
	// is max(RetainBytes, largest active segment). 0 is unbounded.
	RetainBytes int64
	// Clock supplies "now" for retention cutoffs and flush-latency
	// timestamps (inject the DES virtual clock in simulations). Nil uses
	// the real clock.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// retentionEnabled reports whether GC has anything to enforce.
func (c Config) retentionEnabled() bool {
	return c.RetainAge > 0 || c.RetainBytes > 0
}

// storeMetrics are the store's pre-resolved telemetry handles.
type storeMetrics struct {
	frames     *obs.Counter
	dupes      *obs.Counter
	writeErrs  *obs.Counter
	bytes      *obs.Counter
	flushHist  *obs.Histogram
	gcRuns     *obs.Counter
	gcSegments *obs.Counter
	gcFrames   *obs.Counter
	gcBytes    *obs.Counter
	diskBytes  *obs.Gauge
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return storeMetrics{
		frames: reg.Counter("coralpie_framestore_frames_total",
			"frame records stored"),
		dupes: reg.Counter("coralpie_framestore_duplicates_total",
			"re-stores of an existing (camera, seq) ignored"),
		writeErrs: reg.Counter("coralpie_framestore_write_errors_total",
			"rejected or failed frame writes"),
		bytes: reg.Counter("coralpie_framestore_bytes_total",
			"encoded frame-record bytes accepted (disk- and memory-backed alike)"),
		flushHist: reg.Histogram("coralpie_framestore_flush_seconds",
			"per-frame append+flush latency", nil),
		gcRuns: reg.Counter("coralpie_framestore_gc_runs_total",
			"retention GC passes"),
		gcSegments: reg.Counter("coralpie_framestore_gc_segments_total",
			"whole segments deleted by retention GC"),
		gcFrames: reg.Counter("coralpie_framestore_gc_frames_total",
			"frame records dropped by retention GC"),
		gcBytes: reg.Counter("coralpie_framestore_gc_reclaimed_bytes_total",
			"on-disk bytes reclaimed by retention GC"),
		diskBytes: reg.Gauge("coralpie_framestore_disk_bytes",
			"current on-disk bytes across all segments"),
	}
}

// ReloadStats summarizes what OpenStore found while re-indexing existing
// segments — the crash-recovery ledger, mirroring trajstore's WALStats.
type ReloadStats struct {
	// Segments and Frames indexed across all cameras.
	Segments int64
	Frames   int64
	// DuplicateRecords counts on-disk records skipped because an earlier
	// record already claimed their (camera, seq) — e.g. a crash replayed
	// an append. The first occurrence wins, matching Put semantics.
	DuplicateRecords int64
	// CorruptRecords counts mid-file damaged spans: bytes holding no
	// intact record, followed by one that is. Each span is skipped, its
	// bytes kept, and the records after it salvaged.
	CorruptRecords int64
	// TornTails counts segments whose damaged tail, with no intact record
	// after it, was truncated away; TruncatedBytes is the total discarded.
	TornTails      int64
	TruncatedBytes int64
	// StraySegments counts unlisted segment files deleted at open (a
	// crash between a GC manifest write and its unlink).
	StraySegments int64
}

// GCStats summarizes one retention pass.
type GCStats struct {
	Segments int64 // whole segments deleted
	Frames   int64 // records dropped with them
	Bytes    int64 // on-disk bytes reclaimed
}

// Store holds frame records for a set of cameras. Safe for concurrent
// use: the store mutex guards only in-memory index state, appends are
// serialized per camera, and disk reads run outside every lock.
type Store struct {
	dir string // "" for in-memory
	cfg Config

	mu     sync.Mutex
	logs   map[string]*cameraLog
	closed bool
	m      storeMetrics
	clk    clock.Clock
	tracer *obs.Tracer
	reload ReloadStats
	disk   int64 // total on-disk bytes across all segments
	gcSeq  int64 // GC run counter, names gc spans
}

// Instrument re-homes the store's telemetry (coralpie_framestore_*) onto
// reg and uses clk for flush-latency and retention timestamps (inject
// the DES virtual clock in simulations; nil keeps the current clock).
// Call before traffic flows.
func (s *Store) Instrument(reg *obs.Registry, clk clock.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = newStoreMetrics(reg)
	s.m.diskBytes.Set(s.disk)
	if clk != nil {
		s.clk = clk
	}
}

// UseTracer records a "gc" span for every retention pass on t. Call
// before traffic flows; nil disables.
func (s *Store) UseTracer(t *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// OpenStore opens (or creates) a store rooted at dir with default
// tuning; pass "" for a purely in-memory store.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreConfig(dir, Config{})
}

// OpenStoreConfig opens (or creates) a store rooted at dir with explicit
// tuning. Existing segments are re-indexed; damaged tails are truncated
// and logged, duplicate records deduplicated, and intact records after a
// damaged span salvaged (see ReloadStats).
func OpenStoreConfig(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		dir:  dir,
		cfg:  cfg,
		logs: make(map[string]*cameraLog),
		m:    newStoreMetrics(nil),
		clk:  cfg.Clock,
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("framestore: mkdir: %w", err)
	}
	if err := s.scanDir(); err != nil {
		return nil, err
	}
	s.m.diskBytes.Set(s.disk)
	if s.reload != (ReloadStats{}) {
		obs.DefaultLogger().WithComponent("framestore").Info("reopened store",
			"dir", dir,
			"segments", fmt.Sprint(s.reload.Segments),
			"frames", fmt.Sprint(s.reload.Frames),
			"duplicates", fmt.Sprint(s.reload.DuplicateRecords),
			"corruptRecords", fmt.Sprint(s.reload.CorruptRecords),
			"tornTails", fmt.Sprint(s.reload.TornTails),
			"truncatedBytes", fmt.Sprint(s.reload.TruncatedBytes),
			"straySegments", fmt.Sprint(s.reload.StraySegments))
	}
	return s, nil
}

// ReloadStats returns what the opening scan found (zero-valued for
// in-memory and freshly created stores).
func (s *Store) ReloadStats() ReloadStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reload
}

// DiskBytes returns the store's current total on-disk bytes.
func (s *Store) DiskBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk
}

// logFor returns (creating if needed) the camera's log. Caller holds
// s.mu.
func (s *Store) logFor(camera string) (*cameraLog, error) {
	if cl, ok := s.logs[camera]; ok {
		return cl, nil
	}
	if s.dir == "" {
		cl := &cameraLog{
			camera: camera,
			index:  make(map[int64]recordRef),
			mem:    make(map[int64]protocol.FrameRecord),
		}
		s.logs[camera] = cl
		return cl, nil
	}
	cl, err := s.openCamera(camera, nil, new(recordlog.Reader[protocol.FrameRecord]))
	if err != nil {
		return nil, err
	}
	s.logs[camera] = cl
	return cl, nil
}

// validate rejects structurally broken records before any lock is taken.
func validate(rec *protocol.FrameRecord) error {
	if rec.CameraID == "" {
		return errors.New("framestore: record missing camera id")
	}
	// Bound each dimension before multiplying: the record comes off the
	// network, and an int product can wrap to match a short pixel slice.
	if rec.Width <= 0 || rec.Height <= 0 || rec.Width > maxRecordBytes/3/rec.Height ||
		len(rec.Pixels) != rec.Width*rec.Height*3 {
		return fmt.Errorf("framestore: record %s/%d has inconsistent dimensions", rec.CameraID, rec.Seq)
	}
	return nil
}

// Put stores one frame record. Re-storing an existing (camera, seq) is
// ignored (frames are immutable).
func (s *Store) Put(rec protocol.FrameRecord) error {
	if err := validate(&rec); err != nil {
		s.countWriteErr()
		return err
	}
	// Encode the record header outside every lock, behind 4 bytes kept for
	// the length prefix; the pixels are appended after it as they are, so
	// no buffer holds a copy of the frame. Both backends charge the same
	// encoded size to coralpie_framestore_bytes_total, so disk- and
	// memory-backed stores report identical telemetry for identical
	// traffic.
	hdr, err := protocol.AppendFrameRecordHeader(make([]byte, 4, 64), &rec)
	if err != nil {
		s.countWriteErr()
		return fmt.Errorf("framestore: encode: %w", err)
	}
	size := len(hdr) - 4 + len(rec.Pixels)
	if size > maxRecordBytes {
		s.countWriteErr()
		return fmt.Errorf("framestore: record too large: %d bytes", size)
	}
	binary.BigEndian.PutUint32(hdr, uint32(size))

	s.mu.Lock()
	if s.closed {
		s.m.writeErrs.Inc()
		s.mu.Unlock()
		return ErrClosed
	}
	m := s.m
	cl, err := s.logFor(rec.CameraID)
	if err != nil {
		s.m.writeErrs.Inc()
		s.mu.Unlock()
		return err
	}
	if cl.mem != nil {
		// In-memory backend: everything under the store lock, writes are
		// a map insert.
		if _, ok := cl.index[rec.Seq]; ok {
			m.dupes.Inc()
			s.mu.Unlock()
			return nil
		}
		// rec.Pixels alias the payload the server's handler was given,
		// which the transport reuses once the handler returns.
		rec.Pixels = bytes.Clone(rec.Pixels)
		cl.mem[rec.Seq] = rec
		cl.index[rec.Seq] = recordRef{}
		cl.seqs = insertSorted(cl.seqs, rec.Seq)
		m.frames.Inc()
		m.bytes.Add(int64(4 + size))
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	full, aged, err := s.putDisk(cl, rec, hdr, m)
	if err != nil {
		return err
	}
	if full && s.cfg.retentionEnabled() {
		// Size retention runs after the camera write lock is released —
		// it takes other cameras' write locks one at a time, and two
		// cameras rolling concurrently must not hold theirs while
		// waiting on each other's.
		sized, err := s.gcBySize()
		if err != nil {
			obs.DefaultLogger().WithComponent("framestore").Warn("retention gc",
				"camera", cl.camera, "err", err.Error())
		}
		s.recordGC(aged.plus(sized))
	}
	return nil
}

// putDisk appends one record, its length-prefixed header hdr followed by
// rec.Pixels, to the camera's active segment, rolling (and age-GC-ing the
// camera) when full. Appends serialize per camera on cl.wmu; the store
// lock is retaken only for the duplicate check and the index publish, so
// concurrent readers never wait behind this flush.
func (s *Store) putDisk(cl *cameraLog, rec protocol.FrameRecord, hdr []byte, m storeMetrics) (full bool, aged GCStats, err error) {
	cl.wmu.Lock()
	defer cl.wmu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.m.writeErrs.Inc()
		s.mu.Unlock()
		return false, aged, ErrClosed
	}
	if _, ok := cl.index[rec.Seq]; ok {
		s.m.dupes.Inc()
		s.mu.Unlock()
		return false, aged, nil
	}
	seg := cl.active()
	s.mu.Unlock()

	if seg == nil {
		if seg, err = s.rollSegment(cl); err != nil {
			s.countWriteErr()
			return false, aged, err
		}
	}

	start := s.now()
	// Same length-prefix layout as protocol's network frames, kept apart
	// for its salvaging reader (see indexSegment).
	if _, err := seg.w.Write(hdr); err != nil {
		s.countWriteErr()
		return false, aged, fmt.Errorf("framestore: append: %w", err)
	}
	if _, err := seg.w.Write(rec.Pixels); err != nil {
		s.countWriteErr()
		return false, aged, fmt.Errorf("framestore: append: %w", err)
	}
	if err := seg.w.Flush(); err != nil {
		s.countWriteErr()
		return false, aged, fmt.Errorf("framestore: flush: %w", err)
	}
	m.flushHist.Observe(s.now().Sub(start).Seconds())

	// Publish: from here on readers can see the record via ReadAt — the
	// bytes are in the file (flushed above), and the segment handle is
	// pinned by refcount against concurrent GC.
	n := int64(len(hdr) + len(rec.Pixels))
	s.mu.Lock()
	cl.index[rec.Seq] = recordRef{seg: seg, off: seg.size}
	cl.seqs = insertSorted(cl.seqs, rec.Seq)
	seg.noteRecord(rec.Seq, rec.Timestamp, n)
	s.disk += n
	m.diskBytes.Set(s.disk)
	full = seg.size >= s.cfg.SegmentBytes
	s.mu.Unlock()
	m.frames.Inc()
	m.bytes.Add(n)

	if full {
		if err := s.sealActive(cl); err != nil {
			return true, aged, err
		}
		if s.cfg.RetainAge > 0 {
			if aged, err = s.gcCamera(cl); err != nil {
				obs.DefaultLogger().WithComponent("framestore").Warn("retention gc",
					"camera", cl.camera, "err", err.Error())
				err = nil
			}
		}
	}
	return full, aged, nil
}

// countWriteErr increments the write-error counter for validation
// failures hit before the store lock is taken.
func (s *Store) countWriteErr() {
	s.mu.Lock()
	s.m.writeErrs.Inc()
	s.mu.Unlock()
}

func (s *Store) now() time.Time {
	s.mu.Lock()
	clk := s.clk
	s.mu.Unlock()
	return clk.Now()
}

func insertSorted(seqs []int64, v int64) []int64 {
	i, _ := slices.BinarySearch(seqs, v)
	return slices.Insert(seqs, i, v)
}

// Get fetches one frame record. Disk reads happen outside the store
// lock: the segment handle is pinned by refcount, so a concurrent
// writer's flush or a GC pass never blocks (or invalidates) this read.
func (s *Store) Get(camera string, seq int64) (protocol.FrameRecord, error) {
	s.mu.Lock()
	cl, ok := s.logs[camera]
	if !ok {
		s.mu.Unlock()
		return protocol.FrameRecord{}, fmt.Errorf("%w: camera %q", ErrNotFound, camera)
	}
	ref, ok := cl.index[seq]
	if !ok {
		s.mu.Unlock()
		return protocol.FrameRecord{}, fmt.Errorf("%w: %s/%d", ErrNotFound, camera, seq)
	}
	if cl.mem != nil {
		rec := cl.mem[seq]
		s.mu.Unlock()
		return rec, nil
	}
	f := ref.seg.acquire()
	s.mu.Unlock()

	rec, err := readRecordAt(f, ref.off)
	s.release(ref.seg)
	return rec, err
}

// Range returns the stored records for camera with fromSeq <= seq <=
// toSeq, in sequence order. Like Get, disk reads run outside the store
// lock against an index snapshot taken under it.
func (s *Store) Range(camera string, fromSeq, toSeq int64) ([]protocol.FrameRecord, error) {
	s.mu.Lock()
	cl, ok := s.logs[camera]
	if !ok {
		s.mu.Unlock()
		return nil, nil
	}
	start, _ := slices.BinarySearch(cl.seqs, fromSeq)
	if cl.mem != nil {
		var out []protocol.FrameRecord
		for _, seq := range cl.seqs[start:] {
			if seq > toSeq {
				break
			}
			out = append(out, cl.mem[seq])
		}
		s.mu.Unlock()
		return out, nil
	}
	var refs []recordRef
	pinned := make(map[*segment]bool)
	for _, seq := range cl.seqs[start:] {
		if seq > toSeq {
			break
		}
		ref := cl.index[seq]
		if !pinned[ref.seg] {
			ref.seg.acquire()
			pinned[ref.seg] = true
		}
		refs = append(refs, ref)
	}
	s.mu.Unlock()

	releaseAll := func() {
		for seg := range pinned {
			s.release(seg)
		}
	}
	var out []protocol.FrameRecord
	for _, ref := range refs {
		rec, err := readRecordAt(ref.seg.f, ref.off) // pinned above
		if err != nil {
			releaseAll()
			return nil, err
		}
		out = append(out, rec)
	}
	releaseAll()
	return out, nil
}

// Count returns how many frames are stored for a camera.
func (s *Store) Count(camera string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl, ok := s.logs[camera]; ok {
		return len(cl.seqs)
	}
	return 0
}

// Cameras lists the cameras with stored frames, sorted.
func (s *Store) Cameras() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.logs)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Close flushes and closes every segment. In-flight reads holding a
// pinned segment finish against the already-open handle; new operations
// fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*cameraLog, 0, len(s.logs))
	for _, cl := range s.logs {
		logs = append(logs, cl)
	}
	s.mu.Unlock()

	var firstErr error
	for _, cl := range logs {
		if cl.mem != nil {
			continue
		}
		cl.wmu.Lock()
		s.mu.Lock()
		for _, seg := range cl.segs {
			if seg.w != nil {
				if err := seg.w.Flush(); err != nil && firstErr == nil {
					firstErr = err
				}
				seg.w = nil
			}
			seg.dead = true
			if err := s.releaseLocked(seg); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.mu.Unlock()
		cl.wmu.Unlock()
	}
	return firstErr
}
