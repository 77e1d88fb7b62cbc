package trajstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

func TestApplyBatchMixed(t *testing.T) {
	s := NewMemStore()
	a, err := s.AddVertex(event("cam#pre"))
	if err != nil {
		t.Fatal(err)
	}
	// Vertices first: edge records must reference already-known IDs, so a
	// client naturally runs two batches.
	ids, errs, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("cam#b1")),
		protocol.VertexWrite(event("cam#b2")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("vertex errs = %v", errs)
	}
	if ids[0] == 0 || ids[1] == 0 || ids[0] == ids[1] {
		t.Fatalf("vertex ids = %v", ids)
	}

	second := []protocol.TrajWrite{
		protocol.EdgeWrite(a, ids[0], 0.1),
		protocol.EdgeWrite(a, 999, 0.1),
		{Kind: protocol.TrajWriteVertex},
		{Kind: "bogus"},
		protocol.EdgeWrite(ids[0], ids[1], 0.2),
	}
	ids2, errs2, err := s.ApplyBatch(second)
	if err != nil {
		t.Fatal(err)
	}
	if errs2[0] != nil || errs2[4] != nil {
		t.Fatalf("accepted records errored: %v", errs2)
	}
	if !errors.Is(errs2[1], ErrVertexNotFound) {
		t.Errorf("missing target: %v", errs2[1])
	}
	if errs2[2] == nil || errs2[3] == nil {
		t.Errorf("malformed records accepted: %v", errs2)
	}
	if ids2[0] != 0 || ids2[4] != 0 {
		t.Errorf("edge records must not allocate ids: %v", ids2)
	}
	if s.NumVertices() != 3 || s.NumEdges() != 2 {
		t.Errorf("counts %d/%d", s.NumVertices(), s.NumEdges())
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	s := NewMemStore()
	ids, errs, err := s.ApplyBatch(nil)
	if err != nil || ids != nil || errs != nil {
		t.Fatalf("empty batch: %v %v %v", ids, errs, err)
	}
}

func TestApplyBatchPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("cam#1")),
		protocol.VertexWrite(event("cam#2")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.EdgeWrite(ids[0], ids[1], 0.3),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if s2.NumVertices() != 2 || s2.NumEdges() != 1 {
		t.Errorf("reopened counts %d/%d", s2.NumVertices(), s2.NumEdges())
	}
	out := s2.OutEdges(ids[0])
	if len(out) != 1 || out[0].To != ids[1] || out[0].Weight != 0.3 {
		t.Errorf("edge = %+v", out)
	}
}

// gatedWriter passes writes through to w once release is closed, and
// signals entered on the first write it holds.
type gatedWriter struct {
	w       io.Writer
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.w.Write(p)
}

// TestGroupCommitGroupsConcurrentWriters: writers that arrive while the
// committer is inside a flush all join the next group commit. The log's
// writer is gated, so the first write holds the committer in its flush
// until every other writer has queued behind it.
func TestGroupCommitGroupsConcurrentWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	// The committer is idle and next touches the log's writer after a
	// writer below enqueues.
	gate := &gatedWriter{w: s.persist.f, entered: make(chan struct{}), release: make(chan struct{})}
	s.persist.w = bufio.NewWriter(gate)

	const writers = 8
	var wg sync.WaitGroup
	write := func(id string) {
		defer wg.Done()
		if _, err := s.AddVertex(event(id)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1 + writers)
	go write("first")
	<-gate.entered
	for w := 0; w < writers; w++ {
		go write(fmt.Sprintf("cam%d", w))
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.persist.mu.Lock()
		queued := len(s.persist.pending)
		s.persist.mu.Unlock()
		if queued == writers {
			break
		}
		if time.Now().After(deadline) {
			close(gate.release) // lets the deferred Close drain the committer
			t.Fatalf("%d of %d writers queued behind the held flush", queued, writers)
		}
	}
	close(gate.release)
	wg.Wait()

	if st := s.WALStats(); st.GroupCommits != 2 || st.Records != 1+writers {
		t.Errorf("%d group commits of %d records; want the %d queued writers in one group after the first",
			st.GroupCommits, st.Records, writers)
	}
	if s.NumVertices() != 1+writers {
		t.Errorf("vertices = %d", s.NumVertices())
	}
}

// TestCloseCommitsQueuedGroupCommitConcurrent: Store.Close, called while
// a leader is held inside its flush with 8 writers queued behind it, waits
// for that commit and commits the queued group itself or behind a writer
// that leads it: every writer is acknowledged, and a reopened store holds
// all 9 vertices.
func TestCloseCommitsQueuedGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedWriter{w: s.persist.f, entered: make(chan struct{}), release: make(chan struct{})}
	s.persist.w = bufio.NewWriter(gate)

	const writers = 8
	errs := make(chan error, 1+writers)
	write := func(id string) {
		_, err := s.AddVertex(event(id))
		errs <- err
	}
	go write("first")
	<-gate.entered
	for w := 0; w < writers; w++ {
		go write(fmt.Sprintf("cam%d", w))
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.persist.mu.Lock()
		queued := len(s.persist.pending)
		s.persist.mu.Unlock()
		if queued == writers {
			break
		}
		if time.Now().After(deadline) {
			close(gate.release)
			t.Fatalf("%d of %d writers queued behind the held flush", queued, writers)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close holds the store lock from its start to its return; once it
	// has it, nothing else takes it (every writer has already queued).
	for s.mu.TryLock() {
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a group commit held in its flush", err)
	default:
	}
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 1+writers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("writer: %v", err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if n := s2.NumVertices(); n != 1+writers {
		t.Errorf("reopened store holds %d vertices, want %d", n, 1+writers)
	}
}

// TestFsyncDurabilityOfAcknowledgedWrites copies the data directory the
// instant every write has been acknowledged — without closing the store,
// simulating a machine losing the process — and proves a store opened
// from the copy holds every acknowledged write.
func TestFsyncDurabilityOfAcknowledgedWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWithConfig(dir, StoreConfig{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.AddVertex(event(fmt.Sprintf("cam%d#%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.WALStats(); st.Syncs == 0 {
		t.Fatal("no fsyncs recorded under Fsync config")
	}

	// Simulate the crash: snapshot the on-disk state with the store still
	// open (nothing flushed by Close), then open a fresh store from it.
	crashDir := t.TempDir()
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashDir, walFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	s2, err := Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	if got := s2.NumVertices(); got != writers*perWriter {
		t.Errorf("recovered %d vertices, want %d: acknowledged writes lost", got, writers*perWriter)
	}
}

// TestReplaySkipsRepeatedRecords: replay is idempotent. A log that repeats
// a vertex record and an edge record opens to the graph without the
// repeats, so a record that reached the log twice cannot duplicate an edge
// or skew a trajectory weight.
func TestReplaySkipsRepeatedRecords(t *testing.T) {
	dir := t.TempDir()
	vertex := func(id int64) *Vertex {
		v := Vertex{ID: id, Event: event(fmt.Sprintf("cam#%d", id))}
		v.Event.VertexID = id
		return &v
	}
	var log walBatch
	for id := int64(1); id <= 3; id++ {
		if err := log.addVertex(vertex(id)); err != nil {
			t.Fatal(err)
		}
	}
	_ = log.addEdge(Edge{From: 1, To: 2, Weight: 0.1})
	_ = log.addEdge(Edge{From: 2, To: 3, Weight: 0.2})
	// The repeats: vertex 3 and the edge into it, once more.
	if err := log.addVertex(vertex(3)); err != nil {
		t.Fatal(err)
	}
	_ = log.addEdge(Edge{From: 2, To: 3, Weight: 0.2})
	writeLog(t, dir, &log)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if s.NumVertices() != 3 {
		t.Errorf("vertices = %d, want 3", s.NumVertices())
	}
	if s.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2: replaying a repeated record duplicated an edge", s.NumEdges())
	}
	if out := s.OutEdges(1); len(out) != 1 || out[0].Weight != 0.1 {
		t.Errorf("1's out edges = %+v", out)
	}
	if out := s.OutEdges(2); len(out) != 1 || out[0].Weight != 0.2 {
		t.Errorf("2's out edges = %+v", out)
	}
}

// TestTornWALTailTruncated proves a partial final record (a torn write
// from a crash) is truncated away with the good prefix kept, counted in
// WALStats, and that the store keeps appending cleanly afterwards.
func TestTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertex(event("cam#1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertex(event("cam#2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"v","vertex":{"id":3,`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	if s2.NumVertices() != 2 {
		t.Errorf("vertices = %d, want 2", s2.NumVertices())
	}
	if st := s2.WALStats(); st.TailTruncations != 1 {
		t.Errorf("tail truncations = %d, want 1", st.TailTruncations)
	}
	if _, err := s2.AddVertex(event("cam#3")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s3.Close() }()
	if s3.NumVertices() != 3 {
		t.Errorf("after append past truncation: vertices = %d, want 3", s3.NumVertices())
	}
}

// TestMidFileWALCorruptionRefusesOpen proves damage followed by intact
// records — corruption at rest, not a torn tail — fails the open instead
// of silently dropping acknowledged writes.
func TestMidFileWALCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AddVertex(event(fmt.Sprintf("cam#%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Smash bytes in the first record, leaving later records intact.
	copy(data[2:8], []byte("######"))
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("open = %v, want ErrWALCorrupt", err)
	}
}

func TestClientAddBatchRoundTrip(t *testing.T) {
	srv, err := ServeWith(NewMemStore(), "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cl, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	ids, errs, err := cl.AddBatchContext(context.Background(), []protocol.TrajWrite{
		protocol.VertexWrite(event("cam#1")),
		protocol.VertexWrite(event("cam#2")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v", errs)
	}
	ids2, errs2, err := cl.AddBatchContext(context.Background(), []protocol.TrajWrite{
		protocol.EdgeWrite(ids[0], ids[1], 0.25),
		protocol.EdgeWrite(ids[0], 999, 0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs2[0] != nil {
		t.Errorf("good edge rejected: %v", errs2[0])
	}
	if errs2[1] == nil {
		t.Error("missing-target edge accepted")
	}
	if ids2[0] != 0 {
		t.Errorf("edge allocated id %d", ids2[0])
	}
	if _, _, err := cl.AddBatchContext(context.Background(), nil); err == nil {
		t.Error("empty batch must be rejected by the server")
	}
}

var errTransportDown = errors.New("transport down")

// fakeBatchClient scripts AddBatchContext outcomes for BatchWriter tests.
type fakeBatchClient struct {
	failFirst int   // transport-fail this many leading calls
	recErr    error // per-record error applied to every record

	// When set, every call announces itself on entered and then blocks
	// until a value arrives on (or the test closes) release.
	entered chan struct{}
	release chan struct{}

	mu    sync.Mutex
	calls int
	got   [][]protocol.TrajWrite // delivered batches, in call order
}

// newGatedBatchClient returns a client whose RPCs the test lets through
// one at a time.
func newGatedBatchClient() *fakeBatchClient {
	// entered is sized so the client never blocks announcing a call.
	return &fakeBatchClient{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (f *fakeBatchClient) AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error) {
	return 1, nil
}

func (f *fakeBatchClient) AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error) {
	if f.entered != nil {
		f.entered <- struct{}{}
		<-f.release
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failFirst {
		return nil, nil, errTransportDown
	}
	cp := append([]protocol.TrajWrite(nil), writes...)
	f.got = append(f.got, cp)
	errs := make([]error, len(writes))
	for i := range errs {
		errs[i] = f.recErr
	}
	return make([]int64, len(writes)), errs, nil
}

func (f *fakeBatchClient) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *fakeBatchClient) delivered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, b := range f.got {
		n += len(b)
	}
	return n
}

// batches returns the From field of every delivered edge, batch by batch:
// the tests queue edge i as (i, i+1), so this is the delivery order.
func (f *fakeBatchClient) batches() [][]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]int64, len(f.got))
	for i, b := range f.got {
		for _, wr := range b {
			out[i] = append(out[i], wr.From)
		}
	}
	return out
}

// awaitEntered waits for the flusher's next RPC to reach the gated client.
func (f *fakeBatchClient) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-f.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the flusher never started the expected add_batch RPC")
	}
}

// edgeResults collects done callbacks: how often each edge's fired, and
// with what.
type edgeResults struct {
	mu    sync.Mutex
	calls []int   // per edge
	errs  []error // per edge, the last one seen
	fired int
	all   chan struct{} // closed when every edge's callback has fired
}

func newEdgeResults(edges int) *edgeResults {
	return &edgeResults{calls: make([]int, edges), errs: make([]error, edges), all: make(chan struct{})}
}

func (r *edgeResults) done(i int) func(error) {
	return func(err error) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.calls[i]++
		r.errs[i] = err
		if r.fired++; r.fired == len(r.calls) {
			close(r.all)
		}
	}
}

func (r *edgeResults) await(t *testing.T) {
	t.Helper()
	select {
	case <-r.all:
	case <-time.After(5 * time.Second):
		r.mu.Lock()
		defer r.mu.Unlock()
		t.Fatalf("%d of %d done callbacks fired", r.fired, len(r.calls))
	}
}

// check asserts every edge's callback fired exactly once with an error
// matching want (nil: success).
func (r *edgeResults) check(t *testing.T, want error) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.calls {
		if n != 1 {
			t.Errorf("edge %d: done fired %d times, want once", i, n)
		}
		if !errors.Is(r.errs[i], want) {
			t.Errorf("edge %d: done(%v), want %v", i, r.errs[i], want)
		}
	}
}

func queueEdges(w *BatchWriter, r *edgeResults, from, to int) {
	for i := from; i < to; i++ {
		w.QueueEdge(int64(i), int64(i+1), 0.1, r.done(i))
	}
}

// TestBatchWriterIdleEdgeLeavesAtOnce: an edge queued on an idle writer is
// delivered by the flusher alone — no Flush, no Close, no timer to wait
// out — and, queued one at a time, each leaves as its own batch.
func TestBatchWriterIdleEdgeLeavesAtOnce(t *testing.T) {
	fc := &fakeBatchClient{}
	w := NewBatchWriter(fc, BatchWriterConfig{})
	defer func() { _ = w.Close() }()
	const edges = 5
	for i := 0; i < edges; i++ {
		r := newEdgeResults(1)
		w.QueueEdge(int64(i), int64(i+1), 0.1, r.done(0))
		r.await(t)
		r.check(t, nil)
	}
	if got, want := fc.batches(), [][]int64{{0}, {1}, {2}, {3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("batches = %v, want %v", got, want)
	}
}

// TestQueueEdgeStartsIdleFlush: on one processor, an edge queued on an
// idle writer is already inside add_batch when QueueEdgeTraced returns —
// the queueing goroutine yields to the flusher it woke instead of keeping
// the processor until it next blocks. Preemption may steal a rare round,
// so 90 of 100 must start.
func TestQueueEdgeStartsIdleFlush(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fc := newGatedBatchClient()
	w := NewBatchWriter(fc, BatchWriterConfig{})
	defer func() { _ = w.Close() }()
	const rounds = 100
	started := 0
	for i := 0; i < rounds; i++ {
		r := newEdgeResults(1)
		w.QueueEdgeTraced(int64(i), int64(i+1), 0.1, protocol.TraceContext{}, r.done(0))
		select {
		case <-fc.entered:
			started++
		default:
			fc.awaitEntered(t)
		}
		fc.release <- struct{}{}
		// The callback runs on the flusher, which then finds the queue
		// empty and parks before this goroutine runs again.
		r.await(t)
		r.check(t, nil)
	}
	if started < 90 {
		t.Errorf("the flush had started before QueueEdgeTraced returned in %d of %d idle queueings, want >= 90", started, rounds)
	}
}

// TestBatchWriterNextBatchFormsBehindInFlightRPC: edges that arrive while
// an add_batch RPC is in flight leave together as the next batch, capped
// at MaxBatch, in FIFO order — batch size follows load, not a clock.
func TestBatchWriterNextBatchFormsBehindInFlightRPC(t *testing.T) {
	fc := newGatedBatchClient()
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	r := newEdgeResults(7)
	queueEdges(w, r, 0, 1)
	fc.awaitEntered(t) // edge 0 is on the wire, alone
	queueEdges(w, r, 1, 7)
	close(fc.release)
	r.await(t)
	r.check(t, nil)
	if got, want := fc.batches(), [][]int64{{0}, {1, 2, 3, 4}, {5, 6}}; !reflect.DeepEqual(got, want) {
		t.Errorf("batches = %v, want %v", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchWriterKeepsFIFOAcrossRequeue: a transport-failed batch goes
// back to the head of the queue, ahead of edges that arrived meanwhile.
func TestBatchWriterKeepsFIFOAcrossRequeue(t *testing.T) {
	fc := newGatedBatchClient()
	fc.failFirst = 1
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	r := newEdgeResults(6)
	queueEdges(w, r, 0, 1)
	fc.awaitEntered(t)
	queueEdges(w, r, 1, 6)
	close(fc.release) // the RPC carrying edge 0 now fails
	r.await(t)
	r.check(t, nil)
	if got, want := fc.batches(), [][]int64{{0, 1, 2, 3}, {4, 5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("batches = %v, want %v", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchWriterPausesBetweenFailedFlushes: against a dead store the
// flusher retries at the pace of flushRetryPause instead of spinning,
// Close is not held up by the pause, and every edge still gets exactly
// maxRetries+1 attempts and then the transport error, once.
func TestBatchWriterPausesBetweenFailedFlushes(t *testing.T) {
	fc := &fakeBatchClient{failFirst: 1 << 30}
	w := NewBatchWriter(fc, BatchWriterConfig{})
	r := newEdgeResults(3)
	start := time.Now()
	queueEdges(w, r, 0, 3)
	r.await(t)
	// A pause follows every failed call but the last; a spinning flusher
	// spends the retries at once.
	if took, bound := time.Since(start), maxRetries*flushRetryPause; took < bound {
		t.Errorf("%d add_batch calls in %v against a dead store, want >= %v: the flusher is spinning", fc.callCount(), took, bound)
	}
	r.check(t, errTransportDown)
	// The three edges travel together throughout, or edge 0 made its first
	// attempt alone and the other two need one call more.
	if calls := fc.callCount(); calls < maxRetries+1 || calls > maxRetries+2 {
		t.Errorf("%d add_batch calls to exhaust %d retries", calls, maxRetries)
	}
	if fc.delivered() != 0 {
		t.Errorf("a dead store delivered %d edges", fc.delivered())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Closed during a pause, a writer spends the edge's remaining attempts
	// back to back instead of waiting the pauses out.
	fc = &fakeBatchClient{failFirst: 1 << 30}
	w = NewBatchWriter(fc, BatchWriterConfig{})
	r = newEdgeResults(1)
	queueEdges(w, r, 0, 1)
	for fc.callCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	start = time.Now()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if took, bound := time.Since(start), maxRetries*flushRetryPause; took >= bound {
		t.Errorf("Close took %v against a dead store, want < %v", took, bound)
	}
	r.await(t)
	r.check(t, errTransportDown)
	if calls := fc.callCount(); calls != maxRetries+1 {
		t.Errorf("%d add_batch calls to exhaust %d retries", calls, maxRetries)
	}
}

// TestBatchWriterCloseLeavesNoGoroutine: Close waits for the flusher to
// exit, mid-batch or idle.
func TestBatchWriterCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		w := NewBatchWriter(&fakeBatchClient{}, BatchWriterConfig{MaxBatch: 2})
		r := newEdgeResults(i)
		queueEdges(w, r, 0, i)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r.check(t, nil)
	}
	// Close has already waited for each flusher; the loop only absorbs
	// goroutines of other tests still winding down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after Close", before, after)
	}
}

// TestBatchWriterFlushesOnClose: edges still queued behind an in-flight
// RPC when Close is called are all delivered before Close returns.
func TestBatchWriterFlushesOnClose(t *testing.T) {
	fc := newGatedBatchClient()
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 100})
	r := newEdgeResults(10)
	queueEdges(w, r, 0, 1)
	fc.awaitEntered(t)
	queueEdges(w, r, 1, 10)
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	close(fc.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if fc.delivered() != 10 {
		t.Errorf("delivered %d edges, want 10", fc.delivered())
	}
	r.check(t, nil)
}

// TestBatchWriterRetriesTransportErrors: the flusher alone, pausing after
// each failure, carries an edge through transient transport errors.
func TestBatchWriterRetriesTransportErrors(t *testing.T) {
	fc := &fakeBatchClient{failFirst: 2}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	r := newEdgeResults(1)
	queueEdges(w, r, 0, 1)
	r.await(t)
	r.check(t, nil)
	if calls := fc.callCount(); calls != 3 {
		t.Errorf("%d add_batch calls, want 3 (two failures, one delivery)", calls)
	}
	if err := w.Err(); err != nil {
		t.Errorf("Err() = %v after a clean flush", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchWriterSurfacesExhaustedRetries: Flush does not wait out the
// retry pauses; it spends the edge's remaining attempts back to back.
func TestBatchWriterSurfacesExhaustedRetries(t *testing.T) {
	fc := &fakeBatchClient{failFirst: 100}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	r := newEdgeResults(1)
	queueEdges(w, r, 0, 1)
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.await(t)
	r.check(t, errTransportDown)
	if calls := fc.callCount(); calls != maxRetries+1 {
		t.Errorf("%d add_batch calls, want maxRetries+1 = %d", calls, maxRetries+1)
	}
	if !errors.Is(w.Err(), errTransportDown) {
		t.Errorf("Err() = %v, want the transport error", w.Err())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWriterSurfacesPerRecordErrors(t *testing.T) {
	recErr := errors.New("edge exists")
	fc := &fakeBatchClient{recErr: recErr}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	err := w.AddEdge(1, 2, 0.1)
	if !errors.Is(err, recErr) {
		t.Errorf("AddEdge = %v, want scripted per-record error", err)
	}
	// Per-record errors are terminal: exactly one delivery attempt.
	if fc.delivered() != 1 {
		t.Errorf("delivered %d, want 1 (no retry of server-side rejections)", fc.delivered())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchWriterQueueAfterCloseFails(t *testing.T) {
	fc := &fakeBatchClient{}
	w := NewBatchWriter(fc, BatchWriterConfig{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	w.QueueEdge(1, 2, 0.1, func(err error) { errCh <- err })
	if err := <-errCh; !errors.Is(err, ErrWriterClosed) {
		t.Errorf("queue after close = %v, want ErrWriterClosed", err)
	}
}

// TestBatchWriterSizeTrigger: MaxBatch is the only size knob — a burst
// larger than it is delivered whole, in order, in batches no larger.
func TestBatchWriterSizeTrigger(t *testing.T) {
	fc := &fakeBatchClient{}
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4})
	defer func() { _ = w.Close() }()
	r := newEdgeResults(40)
	queueEdges(w, r, 0, 40)
	r.await(t)
	r.check(t, nil)
	next := int64(0)
	for _, b := range fc.batches() {
		if len(b) > 4 {
			t.Errorf("batch of %d edges, MaxBatch is 4", len(b))
		}
		for _, from := range b {
			if from != next {
				t.Fatalf("edge %d delivered where %d was due", from, next)
			}
			next++
		}
	}
}

// TestBatchWriterMetrics: the writer reports its own queue wait, batch
// sizes, failures and depth under lint-clean names.
func TestBatchWriterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	fc := newGatedBatchClient()
	fc.failFirst = 1
	w := NewBatchWriter(fc, BatchWriterConfig{MaxBatch: 4, Registry: reg})
	depth := reg.Gauge("coralpie_trajstore_batch_queue_depth", "")
	r := newEdgeResults(4)
	queueEdges(w, r, 0, 1)
	fc.awaitEntered(t)
	queueEdges(w, r, 1, 4)
	if got := depth.Value(); got != 3 {
		t.Errorf("queue depth = %d with three edges behind an in-flight RPC", got)
	}
	close(fc.release)
	r.await(t)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Two RPCs: edge 0 alone (failed), then all four.
	for name, want := range map[string]int64{
		"coralpie_trajstore_batch_flushes_total":      2,
		"coralpie_trajstore_batch_edges_total":        5,
		"coralpie_trajstore_batch_flush_errors_total": 1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Histogram("coralpie_trajstore_batch_queue_wait_seconds", "", nil).Count(); got != 5 {
		t.Errorf("queue-wait observations = %d, want one per edge per attempt = 5", got)
	}
	if got := depth.Value(); got != 0 {
		t.Errorf("queue depth = %d after Close", got)
	}
	if v := obs.LintMetricNames(reg.Snapshot()); len(v) != 0 {
		t.Errorf("metric name violations: %v", v)
	}
}

// TestBatchWriterConcurrentProducersStress drives the writer from many
// goroutines against a real loopback server: every done fires exactly
// once, and the store holds exactly the edges that were acknowledged.
func TestBatchWriterConcurrentProducersStress(t *testing.T) {
	store := NewMemStore()
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cl, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	w := NewBatchWriter(cl, BatchWriterConfig{})

	const producers, perProducer = 8, 2000
	// Producer p chains its own vertices, so every edge is distinct.
	ids := make([][]int64, producers)
	for p := range ids {
		ids[p] = make([]int64, perProducer+1)
		for i := range ids[p] {
			if ids[p][i], err = store.AddVertex(event(fmt.Sprintf("cam%d#%d", p, i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	fired := make([]atomic.Int32, producers*perProducer)
	var acked, failed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				slot := &fired[p*perProducer+i]
				w.QueueEdge(ids[p][i], ids[p][i+1], 0.1, func(err error) {
					slot.Add(1)
					if err != nil {
						failed.Add(1)
					} else {
						acked.Add(1)
					}
				})
			}
		}(p)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range fired {
		if n := fired[i].Load(); n != 1 {
			t.Fatalf("edge %d: done fired %d times, want once", i, n)
		}
	}
	if failed.Load() != 0 {
		t.Errorf("%d edges failed against a healthy store", failed.Load())
	}
	if got := int64(store.NumEdges()); got != acked.Load() {
		t.Errorf("store holds %d edges, %d were acknowledged", got, acked.Load())
	}
}
