package main

import (
	"context"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/framestore"
	"repro/internal/protocol"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

// This file holds the decorators that time the system from outside: each
// wraps an interface a module already accepts and forwards every call.
// The untraced pass installs only storeProbe (for the edge done-callback
// timestamp) and sinkProbe (frame accounting); the traced pass installs
// all of them and records spans.

// writerProbe is the benchmark's view of one trajectory-store writer: a
// camera node, or the query_under_ingest writer. The fields under "cur"
// are set and read on the driver goroutine only — detection, vertex
// insert and edge queueing all run synchronously inside the call the
// driver makes — so they need no lock; everything a done callback or an
// inbound handler touches is under mu.
type writerProbe struct {
	rec      *recorder // nil on the untraced pass
	rootName string    // "handoff" or "write"

	cur struct {
		handIn    time.Time // due/hand-in instant of the operation in flight; zero on the flush path
		parent    spanRef   // span the synchronous children attach to
		event     protocol.EventID
		vertexAck time.Time
	}

	mu           sync.Mutex
	commitMs     []float64 // hand-in/due → edge ack, successful edges with a hand-in
	edgeErrs     int64
	edgesAcked   int64
	pending      map[[2]int64]*edgeTiming
	addVertexUs  []float64
	addBatchUs   []float64
	batchSizes   []float64
	queueWaitMs  []float64
	unexplained  []float64 // ms, commit minus its three children
	flushRetries int64
}

// edgeTiming follows one queued edge from queueing to its ack.
type edgeTiming struct {
	root       spanRef
	handIn     time.Time
	vertexAck  time.Time
	queued     time.Time
	batchStart time.Time
	batchEnd   time.Time
}

func newWriterProbe(rec *recorder, rootName string) *writerProbe {
	return &writerProbe{rec: rec, rootName: rootName, pending: make(map[[2]int64]*edgeTiming)}
}

// storeProbe decorates the node's trajectory-store handle
// (camnode.TrajStore plus the optional queueing/flushing interfaces the
// BatchWriter offers).
type storeProbe struct {
	inner *trajstore.BatchWriter
	p     *writerProbe
}

func (s *storeProbe) AddVertex(e protocol.DetectionEvent) (int64, error) {
	start := time.Now()
	id, err := s.inner.AddVertex(e)
	end := time.Now()
	s.p.cur.event, s.p.cur.vertexAck = e.ID, end
	if s.p.rec != nil {
		s.p.rec.leaf("trajstore.add_vertex", s.p.cur.parent, start, end)
		s.p.mu.Lock()
		s.p.addVertexUs = append(s.p.addVertexUs, us(end.Sub(start)))
		s.p.mu.Unlock()
	}
	return id, err
}

func (s *storeProbe) AddEdge(from, to int64, weight float64) error {
	return s.inner.AddEdge(from, to, weight)
}

func (s *storeProbe) QueueEdge(from, to int64, weight float64, done func(error)) {
	s.inner.QueueEdge(from, to, weight, s.wrapDone(from, to, done))
}

func (s *storeProbe) QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error)) {
	s.inner.QueueEdgeTraced(from, to, weight, tc, s.wrapDone(from, to, done))
}

func (s *storeProbe) Flush(ctx context.Context) error { return s.inner.Flush(ctx) }

func (s *storeProbe) wrapDone(from, to int64, done func(error)) func(error) {
	p := s.p
	et := &edgeTiming{handIn: p.cur.handIn, vertexAck: p.cur.vertexAck, queued: time.Now()}
	if p.rec != nil {
		et.root = spanRef{id: p.rec.newID(), trace: string(p.cur.event)}
		p.mu.Lock()
		p.pending[[2]int64{from, to}] = et
		p.mu.Unlock()
	}
	return func(err error) {
		p.edgeDone(et, from, to, err, time.Now())
		if done != nil {
			done(err)
		}
	}
}

func (p *writerProbe) edgeDone(et *edgeTiming, from, to int64, err error, acked time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pending, [2]int64{from, to})
	if err != nil {
		p.edgeErrs++
		return
	}
	p.edgesAcked++
	if et.handIn.IsZero() {
		return // flush path: no triggering operation to time from
	}
	p.commitMs = append(p.commitMs, ms(acked.Sub(et.handIn)))
	if p.rec == nil || et.batchStart.IsZero() {
		return
	}
	p.rec.record(p.rootName, et.root.id, 0, et.root.trace, et.handIn, acked)
	p.rec.leaf("to_vertex_ack", et.root, et.handIn, et.vertexAck)
	p.rec.leaf("trajstore.batch_queue_wait", et.root, et.queued, et.batchStart)
	p.rec.leaf("trajstore.add_batch", et.root, et.batchStart, et.batchEnd)
	p.queueWaitMs = append(p.queueWaitMs, ms(et.batchStart.Sub(et.queued)))
	p.unexplained = append(p.unexplained,
		ms(acked.Sub(et.handIn)-et.vertexAck.Sub(et.handIn)-et.batchStart.Sub(et.queued)-et.batchEnd.Sub(et.batchStart)))
}

// batchClientProbe decorates the trajstore.BatchClient under the
// BatchWriter, so each add_batch RPC is timed and matched back to the
// edges it carried. Traced pass only.
type batchClientProbe struct {
	inner *trajstore.Client
	p     *writerProbe
}

func (b *batchClientProbe) AddVertexContext(ctx context.Context, e protocol.DetectionEvent) (int64, error) {
	return b.inner.AddVertexContext(ctx, e)
}

func (b *batchClientProbe) AddBatchContext(ctx context.Context, writes []protocol.TrajWrite) ([]int64, []error, error) {
	start := time.Now()
	ids, errs, err := b.inner.AddBatchContext(ctx, writes)
	end := time.Now()
	p := b.p
	p.mu.Lock()
	for _, w := range writes {
		if et := p.pending[[2]int64{w.From, w.To}]; et != nil && w.Kind == protocol.TrajWriteEdge {
			et.batchStart, et.batchEnd = start, end
		}
	}
	p.addBatchUs = append(p.addBatchUs, us(end.Sub(start)))
	p.batchSizes = append(p.batchSizes, float64(len(writes)))
	if err != nil {
		p.flushRetries++
	}
	p.mu.Unlock()
	return ids, errs, err
}

// detectorProbe decorates vision.Detector. Traced pass only.
type detectorProbe struct {
	inner vision.Detector
	p     *writerProbe
}

func (d *detectorProbe) Detect(f *vision.Frame) ([]vision.Detection, error) {
	start := time.Now()
	dets, err := d.inner.Detect(f)
	d.p.rec.leaf("vision.detect", d.p.cur.parent, start, time.Now())
	return dets, err
}

// informLog pairs each inform's Send at the upstream camera with its
// arrival in the downstream camera's pool (the paper's Fig. 10a
// quantity). Shared by all nodes of a traced run.
type informLog struct {
	mu         sync.Mutex
	sent       map[informKey]time.Time
	deliveryMs []float64
}

type informKey struct {
	event protocol.EventID
	to    string
}

func (l *informLog) sentAt(k informKey, at time.Time) {
	l.mu.Lock()
	l.sent[k] = at
	l.mu.Unlock()
}

func (l *informLog) received(k informKey, at time.Time) {
	l.mu.Lock()
	if sent, ok := l.sent[k]; ok {
		l.deliveryMs = append(l.deliveryMs, ms(at.Sub(sent)))
		delete(l.sent, k)
	}
	l.mu.Unlock()
}

// endpointProbe decorates the node's transport.Endpoint: every outbound
// message becomes a "transport.send.<type>" span under whatever span the
// caller's context carries. Traced pass only.
type endpointProbe struct {
	inner   *transport.TCP
	p       *writerProbe
	informs *informLog
}

func (e *endpointProbe) Addr() string                   { return e.inner.Addr() }
func (e *endpointProbe) SetHandler(h transport.Handler) { e.inner.SetHandler(h) }
func (e *endpointProbe) Close() error                   { return e.inner.Close() }

func (e *endpointProbe) Send(ctx context.Context, addr string, env protocol.Envelope) error {
	start := time.Now()
	if env.Type == protocol.TypeInform {
		// Informs leave only from emitEvent on the driver goroutine,
		// right after the vertex insert that set cur.event.
		e.informs.sentAt(informKey{e.p.cur.event, addr}, start)
	}
	err := e.inner.Send(ctx, addr, env)
	e.p.rec.leaf("transport.send."+string(env.Type), spanFrom(ctx), start, time.Now())
	return err
}

// frameLog is the run-wide ledger of frames shipped to the frame stores:
// how many, and the pixel checksum of a seeded sample for read-back.
type frameLog struct {
	seed        uint32
	sampleEvery uint32

	mu      sync.Mutex
	sent    int64
	sendErr int64
	sums    map[frameKey]uint32
	recent  []protocol.FrameRecord // last few records, for the codec probes
}

type frameKey struct {
	camera string
	seq    int64
}

// sampled picks roughly one frame in sampleEvery, as a function of the
// seed and the frame's identity only.
func (l *frameLog) sampled(k frameKey) bool {
	h := crc32.ChecksumIEEE([]byte(k.camera)) ^ uint32(k.seq)*2654435761 ^ l.seed
	return h%l.sampleEvery == 0
}

// sinkProbe decorates the node's frame sink (camnode.ContextFrameSink).
type sinkProbe struct {
	inner *framestore.MultiClient
	log   *frameLog
	rec   *recorder
}

func (s *sinkProbe) StoreFrame(rec protocol.FrameRecord) error {
	return s.StoreFrameContext(context.Background(), rec)
}

func (s *sinkProbe) StoreFrameContext(ctx context.Context, rec protocol.FrameRecord) error {
	k := frameKey{rec.CameraID, rec.Seq}
	var sum uint32
	sampled := s.log.sampled(k)
	if sampled {
		sum = crc32.ChecksumIEEE(rec.Pixels)
	}
	start := time.Now()
	var err error
	if s.rec != nil {
		parent := spanFrom(ctx)
		me := spanRef{id: s.rec.newID(), trace: parent.trace}
		err = s.inner.StoreFrameContext(withSpan(ctx, me), rec)
		s.rec.record("framestore.client_send", me.id, parent.id, me.trace, start, time.Now())
	} else {
		err = s.inner.StoreFrameContext(ctx, rec)
	}
	s.log.mu.Lock()
	s.log.sent++
	if err != nil {
		s.log.sendErr++
	} else if sampled {
		s.log.sums[k] = sum
	}
	if s.rec != nil {
		if len(s.log.recent) < 8 {
			s.log.recent = append(s.log.recent, rec)
		} else {
			s.log.recent[int(s.log.sent)%8] = rec
		}
	}
	s.log.mu.Unlock()
	return err
}
