package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
)

// TrajWriteKind discriminates the records of a trajectory-store write
// batch.
type TrajWriteKind string

// The batch record kinds, matching the WAL's own record tags.
const (
	// TrajWriteVertex inserts a detection event as a new graph vertex.
	TrajWriteVertex TrajWriteKind = "v"
	// TrajWriteEdge links two existing vertices with a confidence weight.
	TrajWriteEdge TrajWriteKind = "e"
)

// TrajWrite is one record of a trajectory-store write batch (the
// add_batch op): either a vertex insert carrying a detection event, or an
// edge insert carrying endpoint vertex IDs and a Bhattacharyya weight.
// Batches let a camera amortize one RPC and one WAL group commit over
// many writes, which is what keeps the shared store write path off the
// critical path of every camera (paper Section 4.3).
type TrajWrite struct {
	Kind   TrajWriteKind
	Event  *DetectionEvent
	From   int64
	To     int64
	Weight float64
	// Trace optionally carries the writer's span context so the store
	// can record its WAL commit as part of the same distributed trace.
	Trace *TraceContext
}

// WithTrace returns a copy of w carrying the given trace context.
func (w TrajWrite) WithTrace(tc TraceContext) TrajWrite {
	w.Trace = &tc
	return w
}

// VertexWrite builds a vertex batch record.
func VertexWrite(e DetectionEvent) TrajWrite {
	return TrajWrite{Kind: TrajWriteVertex, Event: &e}
}

// EdgeWrite builds an edge batch record.
func EdgeWrite(from, to int64, weight float64) TrajWrite {
	return TrajWrite{Kind: TrajWriteEdge, From: from, To: to, Weight: weight}
}

// A batch on the wire is its record count and then each record:
//
//	'v' | trace | event (length-prefixed AppendDetectionEvent bytes)
//	'e' | trace | from | to (zig-zag varints) | weight (float64 bits, 8 bytes LE)
//
// The trace is AppendTrace's. minTrajWriteBytes is the fewest bytes a
// record takes, an edge's, so a count is checked before it is allocated.
// A decoded batch holds at most maxBatchBins histogram bins (8 MiB): an
// event record of a few bytes declares up to 4 KiB of dense histogram.
const (
	minTrajWriteBytes = 1 + 1 + 1 + 1 + 8
	maxBatchBins      = 1 << 20
)

// AppendTrajWrites appends the batch ws to dst. It fails on a record of
// another kind, a vertex without an event and an event
// AppendDetectionEvent refuses.
func AppendTrajWrites(dst []byte, ws []TrajWrite) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(ws)))
	for i := range ws {
		w := &ws[i]
		switch {
		case w.Kind == TrajWriteEdge:
			dst = binary.AppendVarint(binary.AppendVarint(AppendTrace(append(dst, 'e'), w.Trace), w.From), w.To)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.Weight))
		case w.Kind == TrajWriteVertex && w.Event != nil:
			rec, err := AppendDetectionEvent(nil, w.Event)
			if err != nil {
				return nil, err
			}
			dst = AppendBytes(AppendTrace(append(dst, 'v'), w.Trace), rec)
		default:
			return nil, fmt.Errorf("protocol: write of kind %q without an event, or of an unknown kind", w.Kind)
		}
	}
	return dst, nil
}

// DecodeTrajWrites reads a batch written by AppendTrajWrites from c.
func DecodeTrajWrites(c *Cursor) ([]TrajWrite, error) {
	ws, bins := make([]TrajWrite, c.Count(minTrajWriteBytes)), 0
	for i := range ws {
		w := &ws[i]
		kind, trace := c.Byte(), c.Trace()
		switch w.Trace = trace; kind {
		case 'e':
			w.Kind, w.From, w.To = TrajWriteEdge, c.Varint(), c.Varint()
			w.Weight = math.Float64frombits(c.Fixed64())
		case 'v':
			w.Kind, w.Event = TrajWriteVertex, new(DetectionEvent)
			if rec := c.Bytes(); c.err == nil {
				c.err = decodeDetectionEvent(rec, w.Event)
			}
			if bins += len(w.Event.Histogram.Bins); bins > maxBatchBins && c.err == nil {
				c.err = fmt.Errorf("batch of over %d histogram bins", maxBatchBins)
			}
		default:
			if c.err == nil {
				c.err = fmt.Errorf("unknown write kind 0x%02x", kind)
			}
		}
	}
	return ws, c.err
}
