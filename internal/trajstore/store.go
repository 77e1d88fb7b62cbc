// Package trajstore implements Coral-Pie's trajectory storage (paper
// Section 4.2.1): one composite probabilistic graph whose vertices are
// detection events and whose weighted directed edges link consecutive
// sightings of (what re-identification believes is) the same vehicle. The
// paper hosts this in JanusGraph on an edge node; this package provides a
// from-scratch store whose append-only record log is its whole on-disk
// state, traversal queries, and a TCP server/client.
package trajstore

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Errors returned by store operations.
var (
	ErrVertexNotFound = errors.New("trajstore: vertex not found")
	ErrEdgeExists     = errors.New("trajstore: edge already exists")
	ErrClosed         = errors.New("trajstore: store closed")
)

// Vertex is one detection event in the trajectory graph.
type Vertex struct {
	ID    int64                   `json:"id"`
	Event protocol.DetectionEvent `json:"event"`
}

// Edge is a weighted directed link between two detection events; the
// weight is the Bhattacharyya distance of the re-identification match
// (lower = more confident).
type Edge struct {
	From   int64   `json:"from"`
	To     int64   `json:"to"`
	Weight float64 `json:"weight"`
}

// storeMetrics are the store's pre-resolved telemetry handles.
type storeMetrics struct {
	vertices   *obs.Counter
	edges      *obs.Counter
	writeErrs  *obs.Counter
	flushHist  *obs.Histogram
	vertexSize *obs.Gauge
	edgeSize   *obs.Gauge
	walFailed  *obs.Gauge // nil for an in-memory store
}

// newStoreMetrics resolves the store's telemetry on reg (the default
// registry when nil). The WAL's fail-stop latch is registered only for a
// store that persists, so an in-memory store's registry stays as it was.
func newStoreMetrics(reg *obs.Registry, persists bool) storeMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	m := storeMetrics{
		vertices: reg.Counter("coralpie_trajstore_vertices_total",
			"trajectory-graph vertex inserts"),
		edges: reg.Counter("coralpie_trajstore_edges_total",
			"trajectory-graph edge inserts"),
		writeErrs: reg.Counter("coralpie_trajstore_write_errors_total",
			"rejected or failed writes"),
		flushHist: reg.Histogram("coralpie_trajstore_flush_seconds",
			"write-ahead-log append+flush latency", nil),
		vertexSize: reg.Gauge("coralpie_trajstore_vertices",
			"vertices currently in the graph"),
		edgeSize: reg.Gauge("coralpie_trajstore_edges",
			"edges currently in the graph"),
	}
	if persists {
		m.walFailed = reg.Gauge("coralpie_trajstore_wal_failed",
			"1 once a write-ahead-log commit failed: every later write fails until the store is reopened")
	}
	return m
}

// vnode is one vertex slot. The vertex never changes once stored. The edge
// lists only grow, in commit-sequence order: a writer appends to the slice
// and publishes the new header atomically, so a reader holding an older
// header never touches the element being written and walks without a lock.
type vnode struct {
	v       Vertex
	out, in atomic.Pointer[[]seqEdge]
}

// seqEdge is an edge stamped with the commit sequence number it was
// applied at; a snapshot skips stamps above its watermark.
type seqEdge struct {
	Edge
	seq uint64
}

func appendEdge(list *atomic.Pointer[[]seqEdge], e seqEdge) {
	var es []seqEdge
	if p := list.Load(); p != nil {
		es = *p
	}
	es = append(es, e)
	list.Store(&es)
}

// nodeAt returns the slot of vertex id in an ID-indexed slice, nil when
// the ID is out of range or a gap.
func nodeAt(verts []*vnode, id int64) *vnode {
	if id < 1 || id > int64(len(verts)) {
		return nil
	}
	return verts[id-1]
}

// Store is the trajectory graph. All methods are safe for concurrent use.
//
// The graph is append-only. Vertices sit in an ID-indexed slice (slot
// ID-1, nil for an ID no vertex carries), each with out/in edge lists that
// only grow; every applied record takes the next commit sequence number.
// Writers apply under mu, which makes WAL order the apply order, lets an
// edge reference a vertex created earlier in the same batch, and shows the
// duplicate-edge check everything applied. Two secondary indexes are kept
// with the vertices: event ID -> lowest vertex ID carrying it, and ground
// truth vehicle ID -> ascending vertex IDs.
//
// Readers never look at that working state. Every read goes through the
// published Snapshot, a watermark the writer builds at the end of its
// apply. An in-memory store publishes it there; a persistent store hands
// it to the WAL group commit, whose leader (a writing goroutine, see
// persister) publishes it only after the group carrying the write
// succeeded and before the writer is acknowledged: reads are
// read-committed, and an acknowledged write is visible. A failed commit
// publishes nothing and latches the WAL (fail-stop, see persister),
// so what was applied above the watermark is never seen, no later write is
// applied on top of it, and a reopen rebuilds from what reached the log.
//
// Lock order: mu before persister.mu. Snapshot() takes no lock, a graph
// walk takes none, and an index lookup holds mu's read side for one map
// read.
type Store struct {
	mu      sync.RWMutex
	verts   []*vnode                   // verts[id-1]; append-only
	byEvent map[protocol.EventID]int64 // lowest vertex ID per event ID
	byTruth map[string][]int64         // ascending vertex IDs per Event.TruthID
	seq     uint64                     // commit sequence of the last applied record
	nVerts  int                        // applied counts; a snapshot carries the published ones
	nEdges  int
	closed  bool

	// published is the newest committed watermark; never nil.
	published atomic.Pointer[Snapshot]

	persist *persister // nil for in-memory stores
	m       storeMetrics
	clk     clock.Clock
	tracer  *obs.Tracer // nil disables wal_commit spans
}

// NewMemStore returns a purely in-memory store.
func NewMemStore() *Store {
	s := &Store{
		byEvent: make(map[protocol.EventID]int64),
		byTruth: make(map[string][]int64),
		m:       newStoreMetrics(nil, false),
		clk:     clock.Real{},
	}
	s.published.Store(s.snapshotLocked())
	return s
}

// Instrument re-homes the store's telemetry (coralpie_trajstore_*) onto
// reg and uses clk for WAL flush-latency timestamps (inject the DES
// virtual clock in simulations; nil keeps the real clock). Call before
// traffic flows.
func (s *Store) Instrument(reg *obs.Registry, clk clock.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = newStoreMetrics(reg, s.persist != nil)
	if clk != nil {
		s.clk = clk
	}
	snap := s.Snapshot()
	s.m.vertexSize.Set(int64(snap.nVerts))
	s.m.edgeSize.Set(int64(snap.nEdges))
	if s.persist != nil {
		s.persist.instrument(cmp.Or(reg, obs.Default()))
		if s.persist.failure() != nil {
			s.m.walFailed.Set(1)
		}
	}
}

// UseTracer attaches a tracer that records a "wal_commit" span — apply
// through commit acknowledgement — for every write that arrives with a
// propagated trace context (QueueEdgeTraced, or batch records carrying
// TrajWrite.Trace). In-memory stores record the apply as the commit.
// Call before traffic flows.
func (s *Store) UseTracer(tr *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
}

// tracerClock reads the store's tracer and clock under its lock.
func (s *Store) tracerClock() (*obs.Tracer, clock.Clock) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracer, s.clk
}

// snapshotLocked builds the watermark over everything applied so far.
// Caller holds s.mu (or owns a store not yet shared).
func (s *Store) snapshotLocked() *Snapshot {
	return &Snapshot{store: s, verts: s.verts, version: s.seq, nVerts: s.nVerts, nEdges: s.nEdges}
}

// maxIDGap bounds how far one replayed vertex may jump the ID sequence, so
// a corrupt ID cannot become a huge allocation.
const maxIDGap = 1 << 20

// growLocked pads the vertex slice with gaps up to length n and reports
// whether n was plausible. Caller holds s.mu.
func (s *Store) growLocked(n int64) bool {
	if n > int64(len(s.verts))+maxIDGap {
		return false
	}
	for int64(len(s.verts)) < n {
		s.verts = append(s.verts, nil)
	}
	return true
}

// putVertexLocked appends v at slot v.ID and indexes it. Live writes
// always carry the next ID; replay may skip IDs (gaps left by writes an
// older version rolled back) or meet an ID already loaded, which it keeps.
// Caller holds s.mu.
func (s *Store) putVertexLocked(v Vertex) {
	if v.ID <= int64(len(s.verts)) || !s.growLocked(v.ID-1) {
		return
	}
	s.verts = append(s.verts, &vnode{v: v})
	if _, dup := s.byEvent[v.Event.ID]; !dup {
		s.byEvent[v.Event.ID] = v.ID
	}
	s.byTruth[v.Event.TruthID] = append(s.byTruth[v.Event.TruthID], v.ID)
	s.seq++
	s.nVerts++
}

// finite rejects NaN and ±Inf. They, and a timestamp outside years
// 0..9999, are turned away before anything is applied, because replay
// refuses a log record carrying one: a write the store took must reopen.
// (The bounds are those of the JSON answers the store once served.)
func finite(floats ...float64) error {
	var acc float64
	for _, f := range floats {
		acc += f - f // 0 for a finite f, NaN for NaN and ±Inf
	}
	if acc != 0 {
		return errors.New("trajstore: non-finite value refused")
	}
	return nil
}

// checkEvent applies finite's rule to an event: its histogram, and the
// year of its timestamp, which must lie in 0..9999.
func checkEvent(e *protocol.DetectionEvent) error {
	if y := e.Timestamp.Year(); y < 0 || y > 9999 {
		return fmt.Errorf("trajstore: timestamp year %d outside 0..9999", y)
	}
	return finite(e.Histogram.Bins...)
}

// applyVertexLocked allocates an ID, logs the vertex into wb and inserts
// it. Caller holds s.mu. Every store refuses a timestamp time.MarshalBinary
// refuses (a −00:01 offset, say), which a log record cannot hold, so the
// memory store and the persistent one take the same events.
func (s *Store) applyVertexLocked(e protocol.DetectionEvent, wb *walBatch) (int64, error) {
	if err := checkEvent(&e); err != nil {
		return 0, err
	}
	var ts [16]byte
	if _, err := e.Timestamp.AppendBinary(ts[:0]); err != nil {
		return 0, fmt.Errorf("trajstore: timestamp: %w", err)
	}
	v := Vertex{ID: int64(len(s.verts)) + 1, Event: e}
	v.Event.VertexID = v.ID
	if err := wb.addVertex(&v); err != nil {
		return 0, err
	}
	s.putVertexLocked(v)
	return v.ID, nil
}

// applyEdgeLocked validates an edge, logs it into wb (nil during replay)
// and inserts it. Caller holds s.mu.
func (s *Store) applyEdgeLocked(from, to int64, weight float64, wb *walBatch) error {
	src, dst := nodeAt(s.verts, from), nodeAt(s.verts, to)
	if src == nil {
		return fmt.Errorf("%w: %d", ErrVertexNotFound, from)
	}
	if dst == nil {
		return fmt.Errorf("%w: %d", ErrVertexNotFound, to)
	}
	if err := finite(weight); err != nil {
		return err
	}
	if p := src.out.Load(); p != nil {
		for _, e := range *p {
			if e.To == to {
				return fmt.Errorf("%w: %d->%d", ErrEdgeExists, from, to)
			}
		}
	}
	e := Edge{From: from, To: to, Weight: weight}
	if err := wb.addEdge(e); err != nil {
		return err
	}
	s.seq++
	appendEdge(&src.out, seqEdge{e, s.seq})
	appendEdge(&dst.in, seqEdge{e, s.seq})
	s.nEdges++
	return nil
}

// beginWriteLocked reports why the store cannot take a write: it was
// closed, or a WAL commit failed and the store is fail-stopped until
// reopened. Caller holds s.mu.
func (s *Store) beginWriteLocked() error {
	if s.closed {
		return ErrClosed
	}
	if s.persist != nil {
		return s.persist.failure()
	}
	return nil
}

// commitLocked makes the nv vertex and ne edge records just applied under
// s.mu, and logged into wb, durable and visible, and releases s.mu. An
// in-memory store publishes the new watermark at once. A persistent store
// joins the next WAL group commit and waits for it outside the lock, so
// concurrent writers share one write+flush(+fsync); the calling goroutine
// leads that commit when none is in flight, and the leader publishes the
// watermark before acknowledging. On a commit failure nothing becomes
// visible and every record counts as a write error.
func (s *Store) commitLocked(wb *walBatch, nv, ne int64) error {
	snap, m, clk := s.snapshotLocked(), s.m, s.clk
	if s.persist == nil {
		s.published.Store(snap)
		s.mu.Unlock()
	} else {
		start := clk.Now()
		b := s.persist.enqueue(wb.buf, wb.n, snap)
		s.mu.Unlock()
		if err := s.persist.wait(b); err != nil {
			m.writeErrs.Add(nv + ne)
			m.walFailed.Set(1) // the WAL is fail-stop: every commit error is the latched one
			return err
		}
		m.flushHist.Observe(clk.Now().Sub(start).Seconds())
	}
	m.vertices.Add(nv)
	m.vertexSize.Add(nv)
	m.edges.Add(ne)
	m.edgeSize.Add(ne)
	return nil
}

// AddVertex inserts a detection event and returns its vertex ID: a
// one-record ApplyBatch.
func (s *Store) AddVertex(e protocol.DetectionEvent) (int64, error) {
	return oneRecord(s.ApplyBatch([]protocol.TrajWrite{protocol.VertexWrite(e)}))
}

// AddEdge links two vertices with a confidence weight, as a one-record
// ApplyBatch. Multiple incoming and outgoing edges per vertex are allowed
// by design (false positives must not mask true positives), but exact
// duplicates are rejected.
func (s *Store) AddEdge(from, to int64, weight float64) error {
	_, err := oneRecord(s.ApplyBatch([]protocol.TrajWrite{protocol.EdgeWrite(from, to, weight)}))
	return err
}

// oneRecord returns a one-record batch's vertex ID, or the batch's error,
// or else the record's.
func oneRecord(ids []int64, errs []error, err error) (int64, error) {
	if err == nil {
		err = errs[0]
	}
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// QueueEdgeTraced is AddEdge with the result passed to done (if non-nil)
// before it returns: the same edge-queueing call a camera makes on a
// BatchWriter, kept synchronous so a simulation stays on one goroutine.
// With a tracer attached (UseTracer) and a sampled context, the write is
// recorded as a "wal_commit" child span bracketing the in-memory apply and
// the WAL group-commit wait.
func (s *Store) QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error)) {
	var err error
	if tr, clk := s.tracerClock(); tr == nil || !tc.Valid() || !tc.Sampled {
		err = s.AddEdge(from, to, weight)
	} else {
		start := clk.Now()
		err = s.AddEdge(from, to, weight)
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		tr.RecordChild(obs.SpanContext(tc), "wal_commit", start, clk.Now(), "outcome", outcome)
	}
	if done != nil {
		done(err)
	}
}

// Flush is a no-op: QueueEdgeTraced leaves nothing queued.
func (s *Store) Flush(context.Context) error { return nil }

// ApplyBatch applies a mixed sequence of vertex and edge writes under
// one store lock acquisition with one WAL group commit. The returned
// slices parallel writes: ids carries the allocated vertex ID for each
// vertex record (0 for edges and failures) and errs the per-record
// rejection (nil for successes). The batch is not transactional across
// records — a rejected edge does not abort the rest — but every accepted
// record commits, and becomes visible to readers, together or not at all.
// The error return reports whole-batch failures (closed store, WAL commit
// failure).
func (s *Store) ApplyBatch(writes []protocol.TrajWrite) (ids []int64, errs []error, err error) {
	if len(writes) == 0 {
		return nil, nil, nil
	}
	s.mu.Lock()
	if err := s.beginWriteLocked(); err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	ids = make([]int64, len(writes))
	errs = make([]error, len(writes))
	wb := s.newWALBatchLocked()
	m, trc, clk := s.m, s.tracer, s.clk
	var traceStart time.Time
	if trc != nil {
		traceStart = clk.Now()
	}
	var nv, ne int64
	for i, w := range writes {
		switch w.Kind {
		case protocol.TrajWriteVertex:
			if w.Event == nil {
				errs[i] = errors.New("trajstore: batch vertex requires an event")
				continue
			}
			id, aerr := s.applyVertexLocked(*w.Event, wb)
			if aerr != nil {
				errs[i] = aerr
				continue
			}
			ids[i] = id
			nv++
		case protocol.TrajWriteEdge:
			if aerr := s.applyEdgeLocked(w.From, w.To, w.Weight, wb); aerr != nil {
				errs[i] = aerr
				continue
			}
			ne++
		default:
			errs[i] = fmt.Errorf("trajstore: unknown batch record kind %q", w.Kind)
		}
	}
	m.writeErrs.Add(int64(len(writes)) - nv - ne)
	if nv+ne == 0 {
		s.mu.Unlock()
	} else if err := s.commitLocked(wb, nv, ne); err != nil {
		return nil, nil, err
	}
	// Every accepted record that carried a sampled trace context gets a
	// wal_commit span bracketing the shared apply + group commit; the
	// interval is common to the batch, the parentage per record.
	if trc != nil {
		traceEnd := clk.Now()
		for i, w := range writes {
			if w.Trace == nil || !w.Trace.Valid() || !w.Trace.Sampled || errs[i] != nil {
				continue
			}
			trc.RecordChild(obs.SpanContext(*w.Trace), "wal_commit", traceStart, traceEnd,
				"batch", strconv.Itoa(len(writes)))
		}
	}
	return ids, errs, nil
}

// WALStats returns the persister's lifetime group-commit counters plus
// the number of torn WAL tails truncated during replay. Zero-valued for
// in-memory stores.
func (s *Store) WALStats() WALStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.persist
	if p == nil {
		return WALStats{}
	}
	return WALStats{GroupCommits: p.commits.Value(), Records: p.records.Value(), Syncs: p.syncs.Value(), TailTruncations: p.tails.Value()}
}

// The store's own read methods answer from the newest published snapshot
// (see Snapshot for each one's contract).

// Vertex returns a vertex by ID.
func (s *Store) Vertex(id int64) (Vertex, error) { return s.Snapshot().Vertex(id) }

// FindByEventID returns the vertex whose event carries the given ID, which
// is how a human query ("I saw the vehicle at camera 3 around 10:30")
// enters the graph.
func (s *Store) FindByEventID(id protocol.EventID) (Vertex, error) {
	return s.Snapshot().FindByEventID(id)
}

// OutEdges returns a copy of a vertex's outgoing edges, sorted by target.
func (s *Store) OutEdges(id int64) []Edge { return s.Snapshot().edges(id, true) }

// InEdges returns a copy of a vertex's incoming edges, sorted by source.
func (s *Store) InEdges(id int64) []Edge { return s.Snapshot().edges(id, false) }

// NumVertices returns the vertex count.
func (s *Store) NumVertices() int { return s.Snapshot().NumVertices() }

// NumEdges returns the edge count.
func (s *Store) NumEdges() int { return s.Snapshot().NumEdges() }

// TraceLimits bounds trajectory traversals so a pathological graph cannot
// blow up a query.
type TraceLimits struct {
	MaxDepth int
	MaxPaths int
}

// DefaultTraceLimits is generous for realistic trajectories.
func DefaultTraceLimits() TraceLimits {
	return TraceLimits{MaxDepth: 64, MaxPaths: 256}
}

// sanitized clamps the limits to at least one level and one path.
func (l TraceLimits) sanitized() TraceLimits {
	if l.MaxDepth < 1 {
		l.MaxDepth = 1
	}
	if l.MaxPaths < 1 {
		l.MaxPaths = 1
	}
	return l
}

// Trajectory returns the full candidate space-time track through start:
// each result path runs from a possible origin through start to a
// possible end, expressed as vertex IDs in time order.
func (s *Store) Trajectory(start int64, limits TraceLimits) ([][]int64, error) {
	return s.Snapshot().Trajectory(start, limits)
}

// Close flushes and closes persistence. Further writes fail with
// ErrClosed; reads keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.persist != nil {
		return s.persist.close()
	}
	return nil
}
