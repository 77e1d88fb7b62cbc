package trajstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	walFileName      = "trajstore.wal"
	snapshotFileName = "trajstore.snapshot.json"
)

// ErrWALCorrupt is returned by Open when the write-ahead log is damaged
// in the middle of the file. A damaged tail is expected after a crash and
// is truncated away; damage followed by further intact records means the
// log was corrupted at rest and replaying past it would silently drop
// acknowledged writes, so the store refuses to open.
var ErrWALCorrupt = errors.New("trajstore: wal corrupt mid-file")

// walRecord is one append-only log entry.
type walRecord struct {
	Op     string  `json:"op"` // "v" or "e"
	Vertex *Vertex `json:"vertex,omitempty"`
	Edge   *Edge   `json:"edge,omitempty"`
}

// snapshotFile is the compacted on-disk state.
type snapshotFile struct {
	NextID   int64    `json:"nextId"`
	Vertices []Vertex `json:"vertices"`
	Edges    []Edge   `json:"edges"`
}

// StoreConfig tunes the durability of a persistent store. The zero value
// preserves the original behaviour: buffered writes flushed to the OS on
// every commit, no fsync, no commit window.
type StoreConfig struct {
	// Fsync forces an fsync after every WAL group commit, so an
	// acknowledged write survives a machine crash, not just a process
	// crash. Group commit amortizes the sync across every write that
	// joined the commit.
	Fsync bool
	// GroupCommitWindow is how long the WAL committer waits after waking
	// before flushing, letting concurrent writers accumulate into one
	// write+flush(+fsync). Zero commits as soon as the committer drains
	// the queue, which still groups writes that arrive while a previous
	// flush is in progress.
	GroupCommitWindow time.Duration
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

// commitBatch is one writer's records awaiting group commit, with the
// watermark over the store as of its last record. done receives exactly
// one result.
type commitBatch struct {
	recs []walRecord
	snap *Snapshot
	done chan error
}

// persister owns the WAL file handle. Writers enqueue records (while
// holding the store lock, which fixes WAL order) and wait outside the
// lock; a background committer encodes everything pending with a single
// flush — and a single fsync when configured — so concurrent writers
// share the disk cost (group commit). A group that commits makes its
// writes visible: the committer publishes the group's last watermark, with
// one atomic store and no store lock, before it acknowledges anyone.
//
// The WAL is fail-stop. The first group that fails latches its error:
// that group, everything queued behind it and every later write fail with
// it until the store is reopened. Otherwise a later group could commit an
// edge whose vertex was in the failed one.
type persister struct {
	dir       string
	fsync     bool
	window    time.Duration
	published *atomic.Pointer[Snapshot]

	f   *os.File
	w   *bufio.Writer
	enc *json.Encoder

	mu      sync.Mutex
	pending []*commitBatch
	stopped bool
	err     error // the latched commit failure

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	commits atomic.Int64
	records atomic.Int64
	syncs   atomic.Int64
}

func newPersister(dir string, cfg StoreConfig, published *atomic.Pointer[Snapshot]) (*persister, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trajstore: open wal: %w", err)
	}
	w := bufio.NewWriter(f)
	p := &persister{
		dir:       dir,
		fsync:     cfg.Fsync,
		window:    cfg.GroupCommitWindow,
		published: published,
		f:         f,
		w:         w,
		enc:       json.NewEncoder(w),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go p.run()
	return p, nil
}

// enqueue joins the records to the next group commit as one atomic unit
// and returns the channel carrying the commit result. Callers hold the
// store lock, which makes the WAL order match the in-memory apply order;
// they must receive from the channel after releasing it. An empty batch
// is a barrier: its result arrives once everything queued before it has
// committed or failed.
func (p *persister) enqueue(recs []walRecord, snap *Snapshot) <-chan error {
	b := &commitBatch{recs: recs, snap: snap, done: make(chan error, 1)}
	p.mu.Lock()
	err := p.err
	if err == nil && p.stopped {
		err = errors.New("trajstore: wal closed")
	}
	if err != nil {
		p.mu.Unlock()
		b.done <- err
		return b.done
	}
	p.pending = append(p.pending, b)
	p.mu.Unlock()
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return b.done
}

// failure returns the latched commit error, nil while the WAL is healthy.
func (p *persister) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// run is the committer loop: wake on the first pending batch, optionally
// linger for the group-commit window, then write everything pending with
// one flush.
func (p *persister) run() {
	defer close(p.done)
	for {
		select {
		case <-p.kick:
		case <-p.stop:
			p.commitPending()
			return
		}
		if p.window > 0 {
			timer := time.NewTimer(p.window)
			select {
			case <-timer.C:
			case <-p.stop:
				timer.Stop()
				p.commitPending()
				return
			}
		}
		p.commitPending()
	}
}

// commitPending writes every pending batch with a single flush (and a
// single fsync when configured), publishes the last one's watermark, and
// delivers the shared result to all waiting writers. A failure is latched
// and publishes nothing.
func (p *persister) commitPending() {
	p.mu.Lock()
	batch, err := p.pending, p.err
	p.pending = nil
	p.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if err == nil {
		if err = p.write(batch); err == nil {
			p.published.Store(batch[len(batch)-1].snap)
		} else {
			p.mu.Lock()
			p.err = err
			p.mu.Unlock()
		}
	}
	for _, b := range batch {
		b.done <- err
	}
}

// write appends the batches' records to the log and makes them durable.
func (p *persister) write(batch []*commitBatch) error {
	var n int64
	for _, b := range batch {
		for _, rec := range b.recs {
			if err := p.enc.Encode(rec); err != nil {
				return fmt.Errorf("trajstore: wal append: %w", err)
			}
			n++
		}
	}
	if n == 0 {
		return nil // only barriers
	}
	if err := p.w.Flush(); err != nil {
		return fmt.Errorf("trajstore: wal flush: %w", err)
	}
	if p.fsync {
		if err := p.f.Sync(); err != nil {
			return fmt.Errorf("trajstore: wal fsync: %w", err)
		}
		p.syncs.Add(1)
	}
	p.commits.Add(1)
	p.records.Add(n)
	return nil
}

// close drains pending commits, flushes, and closes the WAL file.
// Idempotent.
func (p *persister) close() error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return nil
	}
	p.stopped = true
	p.mu.Unlock()
	close(p.stop)
	<-p.done
	if err := p.w.Flush(); err != nil {
		_ = p.f.Close()
		return fmt.Errorf("trajstore: wal flush: %w", err)
	}
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("trajstore: wal close: %w", err)
	}
	return nil
}

// stats returns the persister's lifetime counters.
func (p *persister) stats() WALStats {
	return WALStats{
		GroupCommits: p.commits.Load(),
		Records:      p.records.Load(),
		Syncs:        p.syncs.Load(),
	}
}

// Open loads (or creates) a persistent store in dir with default
// durability (buffered flush, no fsync): the snapshot is read first, then
// the WAL is replayed on top, then new writes append to the WAL.
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
	s := NewMemStore()
	if err := s.loadSnapshot(filepath.Join(dir, snapshotFileName)); err != nil {
		return nil, err
	}
	if err := s.replayWAL(filepath.Join(dir, walFileName)); err != nil {
		return nil, err
	}
	p, err := newPersister(dir, cfg, &s.published)
	if err != nil {
		return nil, err
	}
	s.persist = p
	s.persistCfg = cfg
	return s, nil
}

func (s *Store) loadSnapshot(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("trajstore: open snapshot: %w", err)
	}
	defer func() { _ = f.Close() }()
	var snap snapshotFile
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("trajstore: decode snapshot: %w", err)
	}
	return s.restore(snap)
}

// restore loads the compacted state. Files written before Compact ordered
// its output list vertices in map order, so they are sorted here: the
// vertex slice and the vehicle index fill in ascending ID order.
func (s *Store) restore(snap snapshotFile) error {
	sort.Slice(snap.Vertices, func(i, j int) bool { return snap.Vertices[i].ID < snap.Vertices[j].ID })
	for _, v := range snap.Vertices {
		s.putVertexLocked(v)
	}
	// NextID past the last vertex: IDs handed out and never committed are
	// not reused.
	if !s.growLocked(snap.NextID - 1) {
		return fmt.Errorf("trajstore: snapshot nextId %d implausible after %d vertices", snap.NextID, len(s.verts))
	}
	for _, e := range snap.Edges {
		_, _ = s.applyEdgeLocked(e.From, e.To, e.Weight) // as replay: skip a dangling or duplicate edge
	}
	s.published.Store(s.snapshotLocked())
	return nil
}

// applyWALRecord replays one record idempotently and publishes the result
// (nothing else can see the store yet): a vertex whose ID is already
// loaded is kept as loaded, and an edge duplicating an existing (from, to)
// pair — the store's own uniqueness invariant — or missing an endpoint is
// skipped. Idempotence is what makes the compaction crash window safe: if
// the process dies after the snapshot is installed but before the WAL is
// truncated, restart replays every edge already in the snapshot without
// skewing trajectory weights.
func (s *Store) applyWALRecord(rec walRecord) {
	switch {
	case rec.Op == "v" && rec.Vertex != nil:
		s.putVertexLocked(*rec.Vertex)
	case rec.Op == "e" && rec.Edge != nil:
		_, _ = s.applyEdgeLocked(rec.Edge.From, rec.Edge.To, rec.Edge.Weight)
	}
	s.published.Store(s.snapshotLocked())
}

// isWALRecordLine reports whether a line parses as a well-formed WAL
// record, used to tell a torn tail from mid-file corruption.
func isWALRecordLine(line []byte) bool {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return false
	}
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return false
	}
	return (rec.Op == "v" && rec.Vertex != nil) || (rec.Op == "e" && rec.Edge != nil)
}

// replayWAL applies the log on top of the snapshot. A damaged record at
// the tail (a torn write from a crash) is logged, counted, and truncated
// away so later appends do not land after garbage; a damaged record
// followed by further intact records is corruption at rest and fails the
// open with ErrWALCorrupt.
func (s *Store) replayWAL(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("trajstore: open wal: %w", err)
	}
	defer func() { _ = f.Close() }()
	r := bufio.NewReader(f)
	var offset int64
	for {
		line, err := r.ReadBytes('\n')
		if err == nil {
			var rec walRecord
			if uerr := json.Unmarshal(line, &rec); uerr != nil {
				return s.handleDamagedWAL(path, r, offset, uerr)
			}
			s.applyWALRecord(rec)
			offset += int64(len(line))
			continue
		}
		if errors.Is(err, io.EOF) {
			if len(line) == 0 {
				return nil // clean end at a record boundary
			}
			// Partial final line with no newline: torn tail.
			return s.truncateWALTail(path, offset)
		}
		return fmt.Errorf("trajstore: read wal: %w", err)
	}
}

// handleDamagedWAL classifies a record that failed to decode: if any
// complete, well-formed record follows it, the file is corrupt mid-file;
// otherwise the damage is a torn tail and is truncated away.
func (s *Store) handleDamagedWAL(path string, r *bufio.Reader, offset int64, cause error) error {
	for {
		line, err := r.ReadBytes('\n')
		if err == nil && isWALRecordLine(line) {
			return fmt.Errorf("%w (at byte %d): %v", ErrWALCorrupt, offset, cause)
		}
		if err != nil {
			return s.truncateWALTail(path, offset)
		}
	}
}

// truncateWALTail discards everything from offset on — the torn tail of
// a crashed append — so the good prefix stays replayable and new appends
// do not land after garbage.
func (s *Store) truncateWALTail(path string, offset int64) error {
	if err := os.Truncate(path, offset); err != nil {
		return fmt.Errorf("trajstore: truncate torn wal tail: %w", err)
	}
	s.walTailTruncations++
	obs.DefaultLogger().WithComponent("trajstore").Warn("truncated torn wal tail",
		"offset", strconv.FormatInt(offset, 10),
		"note", "expected after a crash")
	return nil
}

// Compact writes the committed state as a snapshot and truncates the WAL.
// Safe to call while the store is serving writes: it first waits for the
// committer to settle everything already applied (publication needs no
// store lock, so holding it here cannot deadlock), then serialises the
// published snapshot — never a write whose commit is pending or failed. If
// the process crashes between installing the snapshot and truncating the
// WAL, the next open replays the stale log idempotently (see
// applyWALRecord), so no write is duplicated or lost.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.beginWriteLocked(); err != nil {
		return err
	}
	if s.persist == nil {
		return errors.New("trajstore: in-memory store has nothing to compact")
	}
	if err := <-s.persist.enqueue(nil, s.snapshotLocked()); err != nil {
		return err
	}
	view := s.Snapshot()
	snap := snapshotFile{NextID: view.MaxVertexID() + 1}
	for id := int64(1); id <= view.MaxVertexID(); id++ {
		if v, err := view.Vertex(id); err == nil {
			snap.Vertices = append(snap.Vertices, v)
			snap.Edges = append(snap.Edges, view.edges(id, true)...)
		}
	}

	tmp := filepath.Join(s.persist.dir, snapshotFileName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("trajstore: create snapshot: %w", err)
	}
	if err := json.NewEncoder(f).Encode(snap); err != nil {
		_ = f.Close()
		return fmt.Errorf("trajstore: write snapshot: %w", err)
	}
	if s.persistCfg.Fsync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("trajstore: sync snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trajstore: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.persist.dir, snapshotFileName)); err != nil {
		return fmt.Errorf("trajstore: install snapshot: %w", err)
	}

	// Truncate the WAL now that its contents are in the snapshot.
	if err := s.persist.close(); err != nil {
		return err
	}
	if err := os.Truncate(filepath.Join(s.persist.dir, walFileName), 0); err != nil {
		return fmt.Errorf("trajstore: truncate wal: %w", err)
	}
	prev := s.persist.stats()
	p, err := newPersister(s.persist.dir, s.persistCfg, &s.published)
	if err != nil {
		return err
	}
	p.commits.Store(prev.GroupCommits)
	p.records.Store(prev.Records)
	p.syncs.Store(prev.Syncs)
	s.persist = p
	return nil
}
