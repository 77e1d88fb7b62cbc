package trajstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/protocol"
)

// Binary query answers. A best, reconstruct or sightings request that
// sets bin gets its successful answer as the reply frame's whole body, in
// this layout, instead of a JSON response:
//
//	answerV1 | kind | count | items…
//
// kind is answerTracks or answerHops and count a uvarint; best is exactly
// one track. A hop is its vertex ID (varint), camera (length-prefixed),
// time (length-prefixed time.MarshalBinary bytes) and link weight (float64
// bits, 8 bytes LE). A track is its hops (count, then each hop), then
// TotalWeight and MeanWeight as float64 bits and Duration as a varint.
// answerV1 is not '{', the first byte of every JSON response, so a client
// tells the two replies apart by the first byte.
const (
	answerV1 = 0x01

	answerTracks = 0x01
	answerHops   = 0x02

	// The fewest bytes a hop and a track take, so a count is checked
	// against what the buffer can hold before anything is allocated: a
	// hop's vertex ID, two length prefixes and its weight; a track's hop
	// count, two weights and its duration.
	minHopBytes   = 1 + 1 + 1 + 8
	minTrackBytes = 1 + 8 + 8 + 1
)

// binAnswer is a decoded binary answer: tracks or hops, by kind.
type binAnswer struct {
	kind   byte
	tracks []Track
	hops   []Hop
}

// appendTo appends a's binary encoding to dst. It fails on a timestamp
// time.MarshalBinary refuses.
func (a *binAnswer) appendTo(dst []byte) ([]byte, error) {
	dst = append(dst, answerV1, a.kind)
	if a.kind == answerHops {
		return appendHops(dst, a.hops)
	}
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
	return dst, nil
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

// binaryAnswer encodes r as a binary answer when req asked for one and r
// answers a query; ok is false otherwise, or when a hop time does not
// encode, and r then goes out as JSON.
func binaryAnswer(req *request, r *response) (body []byte, ok bool) {
	if !req.Bin || !r.OK {
		return nil, false
	}
	a := binAnswer{kind: answerTracks}
	switch req.Op {
	case opBest:
		if r.Track == nil {
			return nil, false
		}
		a.tracks = []Track{*r.Track}
	case opReconstruct:
		a.tracks = r.Tracks
	case opSightings:
		a.kind, a.hops = answerHops, r.Hops
	default:
		return nil, false
	}
	body, err := a.appendTo(nil)
	return body, err == nil
}

// decode fills r from a reply body: a JSON response, or a binary answer
// when req asked for one.
func (r *response) decode(body []byte, req *request) error {
	switch {
	case len(body) > 0 && body[0] == '{':
		return protocol.DecodeFrame(body, r)
	case len(body) > 0 && body[0] == answerV1 && req.Bin:
		a, err := decodeAnswer(body)
		if err != nil {
			return fmt.Errorf("trajstore: decode %s answer: %w", req.Op, err)
		}
		return r.setAnswer(req.Op, a)
	}
	return fmt.Errorf("trajstore: undecodable %s reply (first byte %q)", req.Op, body[:min(len(body), 1)])
}

// setAnswer makes r the successful response a carries for op.
func (r *response) setAnswer(op string, a binAnswer) error {
	switch {
	case op == opBest && a.kind == answerTracks && len(a.tracks) == 1:
		r.Track = &a.tracks[0]
	case op == opReconstruct && a.kind == answerTracks:
		r.Tracks = a.tracks
	case op == opSightings && a.kind == answerHops:
		r.Hops = a.hops
	default:
		return fmt.Errorf("trajstore: binary answer of kind 0x%02x does not answer %s", a.kind, op)
	}
	r.OK = true
	return nil
}

// decodeAnswer decodes an answer written by appendTo. Every count is
// checked against the bytes left before it is allocated for; a field in
// any form but the one appendTo writes, and trailing bytes, are errors,
// so what decodes re-encodes to the same bytes. Empty lists decode as nil.
func decodeAnswer(b []byte) (binAnswer, error) {
	if len(b) == 0 || b[0] != answerV1 {
		return binAnswer{}, errors.New("not a binary answer")
	}
	c := protocol.NewCursor(b[1:])
	a := binAnswer{kind: c.Byte()}
	var err error
	switch a.kind {
	case answerHops:
		a.hops, err = decodeHops(&c)
	case answerTracks:
		a.tracks, err = decodeTracks(&c)
	default:
		err = c.Err()
		if err == nil {
			err = fmt.Errorf("unknown kind 0x%02x", a.kind)
		}
	}
	if err != nil {
		return binAnswer{}, err
	}
	if c.Len() != 0 {
		return binAnswer{}, fmt.Errorf("%d trailing bytes", c.Len())
	}
	return a, nil
}

// listLen reads a list length and refuses one the rest of the buffer cannot
// hold at itemBytes bytes an item.
func listLen(c *protocol.Cursor, itemBytes int) (int, error) {
	n := c.Uvarint()
	if err := c.Err(); err != nil {
		return 0, err
	}
	if n > uint64(c.Len()/itemBytes) {
		return 0, fmt.Errorf("count %d exceeds the %d bytes left", n, c.Len())
	}
	return int(n), nil
}

func decodeTracks(c *protocol.Cursor) ([]Track, error) {
	n, err := listLen(c, minTrackBytes)
	if err != nil || n == 0 {
		return nil, err
	}
	tracks := make([]Track, n)
	for i := range tracks {
		t := &tracks[i]
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
	n, err := listLen(c, minHopBytes)
	if err != nil || n == 0 {
		return nil, err
	}
	hops := make([]Hop, n)
	for i := range hops {
		h := &hops[i]
		h.VertexID = c.Varint()
		h.Camera = string(c.Bytes())
		ts := c.Bytes()
		h.LinkWeight = math.Float64frombits(c.Fixed64())
		if err := c.Err(); err != nil {
			return nil, err
		}
		if err := h.Time.UnmarshalBinary(ts); err != nil {
			return nil, err
		}
		// UnmarshalBinary takes more than one form of some times (a
		// version 2 record with a whole-minute offset, an out-of-range
		// nanosecond); only MarshalBinary's own is accepted.
		if again, err := h.Time.MarshalBinary(); err != nil || !bytes.Equal(again, ts) {
			return nil, errors.New("hop time not in its MarshalBinary form")
		}
	}
	return hops, nil
}
