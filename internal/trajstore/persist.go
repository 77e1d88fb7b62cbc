package trajstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/recordlog"
)

// walFileName is the binary record log every write appends to, and the
// only file a store reads or writes.
const walFileName = "trajstore.log"

// preFloorFiles are the JSON log and JSON snapshot written before the
// record log. Open refuses a directory holding either.
var preFloorFiles = []string{"trajstore.wal", "trajstore.snapshot.json"}

// ErrPreFloorFormat is returned by Open for a directory still holding a
// file of preFloorFiles: this version reads the record log alone.
var ErrPreFloorFormat = errors.New("trajstore: pre-floor format; open the directory once with a trajstore-server built from 3ed9da7 up to 96814f2, which migrates it to " + walFileName)

// ErrWALCorrupt is returned by Open when the write-ahead log is damaged
// in the middle of the file. A damaged tail is expected after a crash and
// is truncated away; damage followed by further intact records means the
// log was corrupted at rest and replaying past it would silently drop
// acknowledged writes, so the store refuses to open.
var ErrWALCorrupt = errors.New("trajstore: wal corrupt mid-file")

// The record log. A record is a 4-byte big-endian body length, the body's
// CRC-32C and the body:
//
//	'v' | vertex ID (zig-zag varint) | event (protocol.AppendDetectionEvent)
//	'e' | from | to (zig-zag varints) | weight (float64 bits, 8 bytes LE)
//
// An empty body is invalid, so a zero-filled tail, which a power loss can
// leave, never checks out.
const (
	recordHeaderLen = 8
	// maxRecordBytes caps one record body, far below a request frame
	// (maxWireBytes): a write whose record would be larger is refused
	// before it is applied, and a damaged length rarely passes for one.
	maxRecordBytes = 1 << 20

	opVertex = 'v'
	opEdge   = 'e'
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord frames body onto dst.
func appendRecord(dst, body []byte) ([]byte, error) {
	if len(body) == 0 || len(body) > maxRecordBytes {
		return dst, fmt.Errorf("trajstore: log record of %d bytes, limit %d", len(body), maxRecordBytes)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...), nil
}

// walBatch collects one write's framed records under the store lock, so
// a value the log cannot encode is that writer's error, refused before
// anything is applied. A nil batch (an in-memory store) records nothing.
type walBatch struct {
	buf  []byte // framed records, appended to the log as they are
	body []byte // scratch for the record being framed
	n    int64  // records in buf
}

// newWALBatchLocked returns the batch for one write, nil for an in-memory
// store. Caller holds s.mu.
func (s *Store) newWALBatchLocked() *walBatch {
	if s.persist == nil {
		return nil
	}
	return &walBatch{}
}

func (b *walBatch) addVertex(v *Vertex) error {
	if b == nil {
		return nil
	}
	body := binary.AppendVarint(append(b.body[:0], opVertex), v.ID)
	body, err := protocol.AppendDetectionEvent(body, &v.Event)
	if err != nil {
		return fmt.Errorf("trajstore: encode vertex: %w", err)
	}
	return b.add(body)
}

func (b *walBatch) addEdge(e Edge) error {
	if b == nil {
		return nil
	}
	body := binary.AppendVarint(append(b.body[:0], opEdge), e.From)
	body = binary.AppendVarint(body, e.To)
	return b.add(binary.LittleEndian.AppendUint64(body, math.Float64bits(e.Weight)))
}

func (b *walBatch) add(body []byte) error {
	b.body = body
	buf, err := appendRecord(b.buf, body)
	if err != nil {
		return err
	}
	b.buf = buf
	b.n++
	return nil
}

// logRecord is one decoded log entry: a vertex, or an edge.
type logRecord struct {
	op     byte
	vertex Vertex
	edge   Edge
}

// readRecord is the log's probe: it decodes the record at the start of b
// and returns its framed size. ok is false when the record fails its
// length or CRC check, or its body does not decode to a write the store
// would have accepted.
func readRecord(b []byte) (rec logRecord, size int, ok bool) {
	if len(b) < recordHeaderLen {
		return rec, 0, false
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > maxRecordBytes || int(n) > len(b)-recordHeaderLen {
		return rec, 0, false
	}
	body := b[recordHeaderLen : recordHeaderLen+int(n)]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[4:]) {
		return rec, 0, false
	}
	c := protocol.NewCursor(body)
	switch rec.op = c.Byte(); rec.op {
	case opVertex:
		id := c.Varint()
		if c.Err() != nil {
			return rec, 0, false
		}
		ev, err := protocol.DecodeDetectionEvent(body[len(body)-c.Len():])
		if err != nil || checkEvent(&ev) != nil {
			return rec, 0, false
		}
		rec.vertex = Vertex{ID: id, Event: ev}
	case opEdge:
		rec.edge = Edge{From: c.Varint(), To: c.Varint(), Weight: math.Float64frombits(c.Fixed64())}
		if c.Err() != nil || c.Len() != 0 || finite(rec.edge.Weight) != nil {
			return rec, 0, false
		}
	default:
		return rec, 0, false
	}
	return rec, recordHeaderLen + len(body), true
}

// StoreConfig tunes the durability of a persistent store. The zero value
// flushes buffered writes to the OS on every group commit, without fsync.
type StoreConfig struct {
	// Fsync forces an fsync after every WAL group commit, so an
	// acknowledged write survives a machine crash, not just a process
	// crash. Group commit amortizes the sync across every write that
	// joined the commit.
	Fsync bool
}

// WALStats are the persister's lifetime counters, exposed for tests and
// telemetry.
type WALStats struct {
	// GroupCommits is the number of WAL write+flush cycles.
	GroupCommits int64
	// Records is the number of WAL records committed.
	Records int64
	// Syncs is the number of fsyncs issued.
	Syncs int64
	// TailTruncations counts torn WAL tails discarded during replay.
	TailTruncations int64
}

// commitBatch is one writer's framed records awaiting group commit, with
// the watermark over the store as of its last record. done and err are
// set once, under persister.mu, by the group commit that carried it.
type commitBatch struct {
	buf  []byte // framed records
	n    int64  // records in buf
	snap *Snapshot
	done bool
	err  error
}

// persister owns the log file handle. Writers enqueue framed records
// (while holding the store lock, which fixes log order) and wait outside
// the lock. The commit has no goroutine of its own: a waiting writer that
// finds no commit in progress leads one, writing everything pending with
// a single flush (and a single fsync when configured), so writers that
// arrive while a flush or fsync is in progress share the next one (group
// commit), led by the first of them to wake. A group that commits makes
// its writes visible: the leader publishes the group's last watermark,
// with one atomic store and no store lock, before it acknowledges anyone.
//
// The WAL is fail-stop. The first group that fails latches its error:
// that group, everything queued behind it and every later write fail with
// it until the store is reopened. Otherwise a later group could commit an
// edge whose vertex was in the failed one.
type persister struct {
	fsync     bool
	published *atomic.Pointer[Snapshot]

	// f and w are used by the leader of the group in flight alone.
	f *os.File
	w *bufio.Writer

	mu      sync.Mutex
	ended   sync.Cond // on mu; broadcast when a group commit ends
	pending []*commitBatch
	leading bool  // a group commit is in flight
	err     error // the latched commit failure

	// The WALStats counts, standalone until instrument moves them.
	commits, records, syncs, tails *obs.Counter
}

func newPersister(dir string, cfg StoreConfig, published *atomic.Pointer[Snapshot], tails int64) (*persister, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trajstore: open wal: %w", err)
	}
	p := &persister{fsync: cfg.Fsync, published: published, f: f, w: bufio.NewWriter(f),
		commits: new(obs.Counter), records: new(obs.Counter), syncs: new(obs.Counter), tails: new(obs.Counter)}
	p.ended.L = &p.mu
	p.tails.Add(tails)
	return p, nil
}

// enqueue joins the n framed records in buf to the next group commit as
// one atomic unit. Callers hold the store lock, which makes the log order
// match the in-memory apply order; they must pass the batch to wait after
// releasing it.
func (p *persister) enqueue(buf []byte, n int64, snap *Snapshot) *commitBatch {
	b := &commitBatch{buf: buf, n: n, snap: snap}
	p.mu.Lock()
	if p.err != nil {
		b.done, b.err = true, p.err
	} else {
		p.pending = append(p.pending, b)
	}
	p.mu.Unlock()
	return b
}

// wait returns the result of the group commit carrying b, leading that
// commit itself when no other is in flight.
func (p *persister) wait(b *commitBatch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for !b.done {
		if p.leading {
			p.ended.Wait()
		} else {
			p.commitPendingLocked()
		}
	}
	return b.err
}

// failure returns the latched commit error, nil while the WAL is healthy.
func (p *persister) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// commitPendingLocked writes every pending batch with a single flush (and
// a single fsync when configured), publishes the last one's watermark, and
// marks every batch with the shared result. A failure is latched and
// publishes nothing. Caller holds p.mu with no commit in flight; it is
// released for the write.
func (p *persister) commitPendingLocked() {
	group, err := p.pending, p.err
	if len(group) == 0 {
		return
	}
	p.pending, p.leading = nil, true
	p.mu.Unlock()
	if err == nil {
		if err = p.write(group); err == nil {
			p.published.Store(group[len(group)-1].snap)
		}
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	for _, b := range group {
		b.done, b.err = true, err
	}
	p.leading = false
	p.ended.Broadcast()
}

// write appends the batches' records to the log and makes them durable.
func (p *persister) write(batch []*commitBatch) error {
	var n int64
	for _, b := range batch {
		if _, err := p.w.Write(b.buf); err != nil {
			return fmt.Errorf("trajstore: wal append: %w", err)
		}
		n += b.n
	}
	if err := p.w.Flush(); err != nil {
		return fmt.Errorf("trajstore: wal flush: %w", err)
	}
	if p.fsync {
		if err := p.f.Sync(); err != nil {
			return fmt.Errorf("trajstore: wal fsync: %w", err)
		}
		p.syncs.Inc()
	}
	p.commits.Inc()
	p.records.Add(n)
	return nil
}

// close waits for a group commit in flight, commits what is left,
// flushes, and closes the WAL file. Store calls it once, under s.mu, so
// no write is enqueued after it.
func (p *persister) close() error {
	p.mu.Lock()
	for p.leading {
		p.ended.Wait()
	}
	p.commitPendingLocked()
	p.mu.Unlock()
	if err := p.w.Flush(); err != nil {
		_ = p.f.Close()
		return fmt.Errorf("trajstore: wal flush: %w", err)
	}
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("trajstore: wal close: %w", err)
	}
	return nil
}

// instrument moves the counters onto reg, counts included, between group
// commits (a leader updates them without mu).
func (p *persister) instrument(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.leading {
		p.ended.Wait()
	}
	move := func(c **obs.Counter, name, help string) {
		if r := reg.Counter(name, help); r != *c {
			r.Add((*c).Value())
			*c = r
		}
	}
	move(&p.commits, "coralpie_trajstore_wal_group_commits_total", "write-ahead-log group commits (write+flush cycles)")
	move(&p.records, "coralpie_trajstore_wal_records_total", "records committed to the write-ahead log")
	move(&p.syncs, "coralpie_trajstore_wal_syncs_total", "write-ahead-log fsyncs")
	move(&p.tails, "coralpie_trajstore_wal_tail_truncations_total", "torn write-ahead-log tails truncated at open")
}

// Open loads (or creates) a persistent store in dir with default
// durability (buffered flush, no fsync): it replays the record log, and
// new writes append to it. A directory holding a JSON log or snapshot is
// refused with ErrPreFloorFormat and left as it is.
func Open(dir string) (*Store, error) {
	return OpenWithConfig(dir, StoreConfig{})
}

// OpenWithConfig is Open with explicit durability tuning.
func OpenWithConfig(dir string, cfg StoreConfig) (*Store, error) {
	if dir == "" {
		return nil, errors.New("trajstore: empty directory; use NewMemStore for in-memory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trajstore: mkdir: %w", err)
	}
	for _, name := range preFloorFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("%w (found %s)", ErrPreFloorFormat, filepath.Join(dir, name))
		}
	}
	s := NewMemStore()
	tails, err := s.loadLog(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, err
	}
	s.published.Store(s.snapshotLocked())
	p, err := newPersister(dir, cfg, &s.published, tails)
	if err != nil {
		return nil, err
	}
	s.persist = p
	s.m = newStoreMetrics(nil, true)
	return s, nil
}

// applyLogRecord replays one record idempotently (nothing else can see the
// store yet; Open publishes once replay is done): a vertex whose ID is
// already loaded is kept as loaded, and an edge duplicating an existing
// (from, to) pair — the store's own uniqueness invariant — or missing an
// endpoint is skipped, so a record the log repeats cannot skew trajectory
// weights.
func (s *Store) applyLogRecord(rec logRecord) {
	if rec.op == opVertex {
		s.putVertexLocked(rec.vertex)
		return
	}
	_ = s.applyEdgeLocked(rec.edge.From, rec.edge.To, rec.edge.Weight, nil)
}

// loadLog applies the record log through recordlog with readRecord as the
// probe. Mid-file damage fails the open with ErrWALCorrupt, leaving the
// log as it is; a torn tail is truncated by the reader and counted.
func (s *Store) loadLog(path string) (tails int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("trajstore: open wal: %w", err)
	}
	defer func() { _ = f.Close() }()
	r := recordlog.Reader[logRecord]{
		Probe: readRecord,
		Visit: func(_ int64, _ int, rec logRecord) error {
			s.applyLogRecord(rec)
			return nil
		},
		Damage: func(d recordlog.Damage) error {
			if !d.Torn {
				return fmt.Errorf("%w (at byte %d): intact record at byte %d", ErrWALCorrupt, d.Offset, d.Next)
			}
			tails++
			return nil
		},
	}
	_, err = r.Replay(f)
	return tails, err
}
