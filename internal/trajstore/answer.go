package trajstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/protocol"
)

// Answers. Every reply frame's whole body is one answer:
//
//	answerV1 | kind | body
//
//	answerTracks  count | tracks (best is exactly one track)
//	answerHops    count | hops
//	answerError   code | message
//	answerVertex  vertex ID | event (length-prefixed protocol.AppendDetectionEvent bytes)
//	answerEdges   count | per edge: from | to | weight
//	answerStats   vertices | edges (uvarints)
//	answerBatch   count | per record: vertex ID (0 for an edge or a rejection) | code | message
//
// Counts are uvarints, IDs zig-zag varints, strings length-prefixed and
// weights float64 bits (8 bytes LE). A hop is its vertex ID, camera, time
// (length-prefixed time.MarshalBinary bytes) and link weight. A track is
// its hops (count, then each hop), then TotalWeight and MeanWeight as
// float64 bits and Duration as a varint. A batch record the store accepted
// has an empty code and message. answerV1 is not '{', the first byte of
// the JSON responses older servers sent, which a client refuses.
const (
	answerV1 = 0x01

	answerTracks = 0x01
	answerHops   = 0x02
	answerError  = 0x03
	answerVertex = 0x04
	answerEdges  = 0x05
	answerStats  = 0x06
	answerBatch  = 0x07

	// The fewest bytes a hop, a track, an edge and a batch record take,
	// so a count is checked against what the buffer can hold before
	// anything is allocated: a hop's vertex ID, two length prefixes and its
	// weight; a track's hop count, two weights and its duration; an edge's
	// two IDs and weight; a record's ID and two length prefixes.
	minHopBytes    = 1 + 1 + 1 + 8
	minTrackBytes  = 1 + 8 + 8 + 1
	minEdgeBytes   = 1 + 1 + 8
	minRecordBytes = 1 + 1 + 1
)

// reply is one answer: an error, or the result its op's kind carries.
type reply struct {
	kind           byte
	err            *ServerError // answerError
	tracks         []Track
	hops           []Hop
	vertex         Vertex
	edges          []Edge
	nVerts, nEdges int
	ids            []int64 // answerBatch, with errs
	errs           []error // nil for an accepted record, a ServerError once received
}

// errReply is the error answer for err.
func errReply(err error) reply { return reply{kind: answerError, err: toServerError(err)} }

// appendTo appends a's binary encoding to dst. It fails on a timestamp
// time.MarshalBinary refuses or an event protocol.AppendDetectionEvent
// refuses.
func (a *reply) appendTo(dst []byte) ([]byte, error) {
	dst = append(dst, answerV1, a.kind)
	switch a.kind {
	case answerHops:
		return appendHops(dst, a.hops)
	case answerTracks:
		dst = binary.AppendUvarint(dst, uint64(len(a.tracks)))
		for i := range a.tracks {
			t := &a.tracks[i]
			var err error
			if dst, err = appendHops(dst, t.Hops); err != nil {
				return nil, err
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.TotalWeight))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.MeanWeight))
			dst = binary.AppendVarint(dst, int64(t.Duration))
		}
	case answerError:
		dst = appendError(dst, a.err)
	case answerVertex:
		rec, err := protocol.AppendDetectionEvent(nil, &a.vertex.Event)
		if err != nil {
			return nil, err
		}
		dst = protocol.AppendBytes(binary.AppendVarint(dst, a.vertex.ID), rec)
	case answerEdges:
		dst = binary.AppendUvarint(dst, uint64(len(a.edges)))
		for _, e := range a.edges {
			dst = binary.AppendVarint(binary.AppendVarint(dst, e.From), e.To)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Weight))
		}
	case answerStats:
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(a.nVerts)), uint64(a.nEdges))
	case answerBatch:
		dst = binary.AppendUvarint(dst, uint64(len(a.ids)))
		for i, id := range a.ids {
			dst = appendError(binary.AppendVarint(dst, id), a.errs[i])
		}
	}
	return dst, nil
}

// appendError appends err's code and message (toServerError), both empty
// for nil.
func appendError(dst []byte, err error) []byte {
	se := &ServerError{}
	if err != nil {
		se = toServerError(err)
	}
	return protocol.AppendString(protocol.AppendString(dst, se.Code), se.Msg)
}

func appendHops(dst []byte, hops []Hop) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(hops)))
	for i := range hops {
		h := &hops[i]
		ts, err := h.Time.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("trajstore: encode hop time: %w", err)
		}
		dst = binary.AppendVarint(dst, h.VertexID)
		dst = protocol.AppendString(dst, h.Camera)
		dst = protocol.AppendBytes(dst, ts)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.LinkWeight))
	}
	return dst, nil
}

// decodeReply decodes an answer written by appendTo. A JSON body fails
// with ErrJSONWire. Every count is checked against the bytes left before
// it is allocated for; a field in any form but the one appendTo writes,
// and trailing bytes, are errors, so what decodes re-encodes to the same
// bytes. Empty lists decode as nil.
func decodeReply(b []byte) (reply, error) {
	switch {
	case len(b) > 0 && b[0] == '{':
		return reply{}, fmt.Errorf("%w (JSON answer)", ErrJSONWire)
	case len(b) == 0 || b[0] != answerV1:
		return reply{}, errors.New("not a binary answer")
	}
	c := protocol.NewCursor(b[1:])
	a := reply{kind: c.Byte()}
	var err error
	switch a.kind {
	case answerHops:
		a.hops, err = decodeHops(&c)
	case answerTracks:
		a.tracks, err = decodeTracks(&c)
	case answerError:
		a.err = &ServerError{Code: string(c.Bytes()), Msg: string(c.Bytes())}
	case answerVertex:
		a.vertex.ID = c.Varint()
		if rec := c.Bytes(); c.Err() == nil {
			a.vertex.Event, err = protocol.DecodeDetectionEvent(rec)
		}
	case answerEdges:
		if n := c.Count(minEdgeBytes); n > 0 {
			a.edges = make([]Edge, n)
		}
		for i := range a.edges {
			a.edges[i] = Edge{From: c.Varint(), To: c.Varint(), Weight: math.Float64frombits(c.Fixed64())}
		}
	case answerStats:
		a.nVerts, a.nEdges = int(c.Uvarint()), int(c.Uvarint())
	case answerBatch:
		if n := c.Count(minRecordBytes); n > 0 {
			a.ids, a.errs = make([]int64, n), make([]error, n)
		}
		for i := range a.ids {
			a.ids[i] = c.Varint()
			if code, msg := c.Bytes(), c.Bytes(); len(code)+len(msg) > 0 {
				a.errs[i] = &ServerError{Code: string(code), Msg: string(msg)}
			}
		}
	default:
		if c.Err() == nil {
			err = fmt.Errorf("unknown kind 0x%02x", a.kind)
		}
	}
	if err == nil {
		err = c.Err()
	}
	if err == nil && c.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes", c.Len())
	}
	if err != nil {
		return reply{}, err
	}
	return a, nil
}

func decodeTracks(c *protocol.Cursor) ([]Track, error) {
	n := c.Count(minTrackBytes)
	if n == 0 {
		return nil, c.Err()
	}
	tracks := make([]Track, n)
	for i := range tracks {
		t := &tracks[i]
		var err error
		if t.Hops, err = decodeHops(c); err != nil {
			return nil, err
		}
		t.TotalWeight = math.Float64frombits(c.Fixed64())
		t.MeanWeight = math.Float64frombits(c.Fixed64())
		t.Duration = time.Duration(c.Varint())
	}
	return tracks, c.Err()
}

func decodeHops(c *protocol.Cursor) ([]Hop, error) {
	n := c.Count(minHopBytes)
	if n == 0 {
		return nil, c.Err()
	}
	hops := make([]Hop, n)
	for i := range hops {
		h := &hops[i]
		h.VertexID = c.Varint()
		h.Camera = string(c.Bytes())
		ts := c.Bytes()
		h.LinkWeight = math.Float64frombits(c.Fixed64())
		if c.Err() != nil {
			break
		}
		var err error
		if h.Time, err = protocol.UnmarshalTime(ts); err != nil {
			return nil, err
		}
	}
	return hops, c.Err()
}
