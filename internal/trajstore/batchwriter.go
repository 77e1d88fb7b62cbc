package trajstore

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// BatchClient is the slice of the trajstore client surface BatchWriter
// needs: the batch RPC plus the synchronous single-record ops it proxies
// through unchanged.
type BatchClient interface {
	AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error)
	AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error)
}

// BatchWriterConfig tunes the client-side edge write buffer. There is no
// age knob: an idle writer sends at once, and batch size follows load.
type BatchWriterConfig struct {
	// MaxBatch caps how many edges one add_batch RPC carries. Default 64.
	MaxBatch int
	// Registry receives the writer's coralpie_trajstore_batch_* telemetry;
	// nil keeps standalone handles.
	Registry *obs.Registry
}

func (c BatchWriterConfig) withDefaults() BatchWriterConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// maxRetries bounds how many times a transport-failed edge is re-queued
// before its error is surfaced to the done callback. Server-side
// per-record rejections are terminal and never retried.
const maxRetries = 2

// flushTimeout bounds each batch RPC.
const flushTimeout = 5 * time.Second

// flushRetryPause is how long the flusher waits after a transport-failed
// batch before it tries again, so a dead store is retried, not spun on.
const flushRetryPause = 50 * time.Millisecond

// ErrWriterClosed is returned to done callbacks for edges still queued
// when the BatchWriter is closed and the final drain fails, and by
// QueueEdge calls after Close.
var ErrWriterClosed = errors.New("trajstore: batch writer closed")

// batchMetrics are the writer's pre-resolved coralpie_trajstore_batch_*
// handles. Edges and flushes both count send attempts, so their ratio is
// the mean batch size on the wire.
type batchMetrics struct {
	queueWait *obs.Histogram // enqueue → start of the RPC carrying the edge
	flushes   *obs.Counter
	edges     *obs.Counter
	flushErrs *obs.Counter
	depth     *obs.Gauge
}

func newBatchMetrics(reg *obs.Registry) batchMetrics {
	if reg == nil {
		reg = obs.NewRegistry() // standalone handles nobody scrapes
	}
	return batchMetrics{
		queueWait: reg.Histogram("coralpie_trajstore_batch_queue_wait_seconds",
			"time an edge waits in the batch writer before its add_batch RPC starts",
			obs.ExpBuckets(50e-6, 2, 15)), // 50µs … 0.8s: idle wake-up to retry pauses
		flushes: reg.Counter("coralpie_trajstore_batch_flushes_total",
			"add_batch RPCs sent by the batch writer"),
		edges: reg.Counter("coralpie_trajstore_batch_edges_total",
			"edges carried by the batch writer's add_batch RPCs"),
		flushErrs: reg.Counter("coralpie_trajstore_batch_flush_errors_total",
			"add_batch RPCs that failed at the transport level"),
		depth: reg.Gauge("coralpie_trajstore_batch_queue_depth",
			"edges waiting in the batch writer"),
	}
}

type queuedEdge struct {
	from, to int64
	weight   float64
	trace    *protocol.TraceContext
	done     func(error)
	attempts int
	queued   time.Time
}

// BatchWriter buffers edge inserts client-side and delivers them through
// the add_batch RPC as a pipelined group commit: an edge queued while no
// batch is in flight is sent at once by the flusher goroutine, and edges
// that arrive during an in-flight RPC form the next batch (up to
// MaxBatch), so a camera's handoff edges pay neither a timer nor, under
// load, one round trip each. After a transport failure the flusher pauses
// flushRetryPause before retrying. Vertex inserts pass through
// synchronously (their IDs gate downstream work) but still ride the
// server's group commit under load. Each queued edge carries an optional
// done callback that receives the edge's final error — nil on success,
// the server's rejection for per-record failures, or the last transport
// error once retries are exhausted — which is how camnode keeps its
// send_errors accounting exact over the async path.
type BatchWriter struct {
	cl  BatchClient
	cfg BatchWriterConfig
	m   batchMetrics

	mu      sync.Mutex
	queue   []queuedEdge
	closed  bool
	lastErr error // most recent transport-level flush failure, nil after a clean flush

	// flushMu serializes flushes so retried edges cannot be reordered
	// around a concurrent flush of newer edges' results.
	flushMu sync.Mutex

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewBatchWriter wraps cl with a buffered edge write path.
func NewBatchWriter(cl BatchClient, cfg BatchWriterConfig) *BatchWriter {
	w := &BatchWriter{
		cl:   cl,
		cfg:  cfg.withDefaults(),
		m:    newBatchMetrics(cfg.Registry),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

// AddVertex proxies the synchronous vertex insert with the client's
// default timeout (camnode.TrajStore has no context parameter).
func (w *BatchWriter) AddVertex(e protocol.DetectionEvent) (int64, error) {
	return w.cl.AddVertexContext(context.Background(), e)
}

// QueueEdge enqueues an edge insert for asynchronous delivery. done (may
// be nil) is invoked exactly once with the edge's final error, on the
// flusher goroutine — unless the queue is far over MaxBatch, when the
// caller is backpressured into flushing a batch inline.
func (w *BatchWriter) QueueEdge(from, to int64, weight float64, done func(error)) {
	w.queueEdge(queuedEdge{from: from, to: to, weight: weight, done: done})
}

// QueueEdgeTraced is QueueEdge carrying the writer's trace context. A
// valid, sampled context rides the batch record to the server, which
// records the WAL group commit as part of the caller's trace; any other
// is dropped, so an untraced edge goes on the wire exactly as QueueEdge
// sends it.
func (w *BatchWriter) QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error)) {
	qe := queuedEdge{from: from, to: to, weight: weight, done: done}
	if tc.Valid() && tc.Sampled {
		qe.trace = &tc
	}
	w.queueEdge(qe)
}

func (w *BatchWriter) queueEdge(qe queuedEdge) {
	qe.queued = time.Now()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		if qe.done != nil {
			qe.done(ErrWriterClosed)
		}
		return
	}
	w.queue = append(w.queue, qe)
	n := len(w.queue)
	w.m.depth.Set(int64(n))
	w.mu.Unlock()

	if n >= w.cfg.MaxBatch*16 {
		// Producer is far ahead of the flusher: absorb the cost inline.
		w.flushOnce(context.Background())
	} else if n == 1 && w.wake() {
		// Empty → non-empty woke the idle flusher: hand it this processor,
		// so the edge leaves now, not after the caller's next sends.
		runtime.Gosched()
	}
}

// wake kicks the flusher and reports whether the kick was new.
func (w *BatchWriter) wake() bool {
	select {
	case w.kick <- struct{}{}:
		return true
	default:
		return false
	}
}

// AddEdge queues the edge and blocks until its final result, giving
// callers that need synchronous semantics the batched wire format.
func (w *BatchWriter) AddEdge(from, to int64, weight float64) error {
	ch := make(chan error, 1)
	w.QueueEdge(from, to, weight, func(err error) { ch <- err })
	// Every queued edge's done callback is invoked exactly once — by a
	// flush, by retry exhaustion, or by Close's fail-closed drain — so
	// this receive always terminates.
	return <-ch
}

// Flush delivers every edge queued or in flight when it is called, looping
// until the queue is empty or ctx expires. It terminates because each
// edge's attempts are bounded by maxRetries.
func (w *BatchWriter) Flush(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n, _ := w.flushOnce(ctx); n == 0 {
			return nil
		}
	}
}

// Err reports the most recent transport-level flush failure, or nil if
// the last flush delivered its batch — a cheap health signal: a node
// whose writer keeps failing is serving but cannot commit edges.
func (w *BatchWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}

// Close drains the queue and stops the background flusher. Edges that
// still cannot be delivered get their done callbacks invoked with the
// final error.
func (w *BatchWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.mu.Unlock()

	close(w.stop)
	<-w.done

	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	err := w.Flush(ctx)

	// Anything still queued (context expired mid-drain) fails closed.
	w.mu.Lock()
	rest := w.queue
	w.queue = nil
	w.m.depth.Set(0)
	w.mu.Unlock()
	for _, qe := range rest {
		if qe.done != nil {
			qe.done(ErrWriterClosed)
		}
	}
	return err
}

// run is the flusher: woken when the queue turns non-empty, it sends batch
// after batch until the queue is empty, so whatever arrived during one RPC
// leaves with the next. stop wins between batches and over the retry pause.
func (w *BatchWriter) run() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
		}
		for {
			n, err := w.flushOnce(context.Background())
			if n == 0 {
				break
			}
			if err != nil {
				select {
				case <-w.stop:
					return
				case <-time.After(flushRetryPause):
				}
			}
			select {
			case <-w.stop:
				return
			default:
			}
		}
	}
}

// flushOnce sends one batch of queued edges and returns its size and the
// RPC's transport error. Transport failures re-queue the whole batch
// (attempts++) until maxRetries; per-record server rejections are terminal.
func (w *BatchWriter) flushOnce(ctx context.Context) (int, error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()

	w.mu.Lock()
	n := min(len(w.queue), w.cfg.MaxBatch)
	if n == 0 {
		w.mu.Unlock()
		return 0, nil
	}
	batch := make([]queuedEdge, n)
	copy(batch, w.queue[:n])
	w.queue = append(w.queue[:0], w.queue[n:]...)
	w.m.depth.Set(int64(len(w.queue)))
	w.mu.Unlock()

	start := time.Now()
	writes := make([]protocol.TrajWrite, n)
	for i, qe := range batch {
		wr := protocol.EdgeWrite(qe.from, qe.to, qe.weight)
		wr.Trace = qe.trace
		writes[i] = wr
		w.m.queueWait.ObserveDuration(start.Sub(qe.queued))
	}
	w.m.flushes.Inc()
	w.m.edges.Add(int64(n))

	rpcCtx, cancel := context.WithTimeout(ctx, flushTimeout)
	_, errs, err := w.cl.AddBatchContext(rpcCtx, writes)
	cancel()

	w.mu.Lock()
	w.lastErr = err
	w.mu.Unlock()

	if err != nil {
		// Transport-level failure: every edge in the batch is undelivered.
		w.m.flushErrs.Inc()
		var requeue []queuedEdge
		for _, qe := range batch {
			qe.attempts++
			if qe.attempts > maxRetries {
				if qe.done != nil {
					qe.done(err)
				}
				continue
			}
			requeue = append(requeue, qe)
		}
		if len(requeue) > 0 {
			w.mu.Lock()
			w.queue = append(requeue, w.queue...)
			w.m.depth.Set(int64(len(w.queue)))
			w.mu.Unlock()
			// The flusher may have seen the queue empty while this batch
			// was out on a Flush or back-pressure caller's goroutine.
			w.wake()
		}
		return n, err
	}
	for i, qe := range batch {
		var recErr error
		if i < len(errs) {
			recErr = errs[i]
		}
		if qe.done != nil {
			qe.done(recErr)
		}
	}
	return n, nil
}
