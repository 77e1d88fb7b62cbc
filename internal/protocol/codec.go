package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Binary wire layouts. Every variable-length field is a uvarint length
// followed by its bytes; integers are zig-zag varints. A layout starts with
// its version byte, which is never '{', so a reader tells it from the legacy
// JSON form (which always starts with '{') by the first byte alone.
//
// Envelope body (after the 4-byte length prefix):
//
//	envelopeV1 | type | trace flags [| trace ID | span ID | parent ID] | payload…
//
// The payload runs to the end of the body. Trace flags are 0 (no trace) or
// traceSet, plus traceSampled when the head-sampling decision is "keep".
//
// Frame record (the TypeFrameRecord payload, and a framestore segment record):
//
//	frameRecordV1 | camera ID | seq | timestamp (time.MarshalBinary) |
//	width | height | annotations (JSON, empty when none) | pixels
//
// The pixels are the record's last field and end exactly at the end of the
// buffer; trailing bytes are an error.
const (
	envelopeV1    = 0x01
	frameRecordV1 = 0x01

	traceSet     = 1 << 0
	traceSampled = 1 << 1
)

var errTruncated = errors.New("protocol: truncated binary field")

// cursor walks a received buffer. Every length is checked against what
// remains; the first failure sticks, so a decoder reads all fields and
// checks err once.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = errTruncated
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.err = errTruncated
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *cursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.err = errTruncated
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// bytes returns the next length-prefixed field, aliasing the buffer.
func (c *cursor) bytes() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)) {
		c.err = errTruncated
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

func appendBytes(dst, v []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(v))), v...)
}

func appendString(dst []byte, v string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(v))), v...)
}

// appendEnvelopeHeader appends the binary envelope body up to the payload.
func appendEnvelopeHeader(dst []byte, env *Envelope) []byte {
	dst = append(dst, envelopeV1)
	dst = appendString(dst, string(env.Type))
	tc := env.Trace
	if tc == nil {
		return append(dst, 0)
	}
	flags := byte(traceSet)
	if tc.Sampled {
		flags |= traceSampled
	}
	dst = append(dst, flags)
	dst = appendString(dst, tc.TraceID)
	dst = appendString(dst, tc.SpanID)
	return appendString(dst, tc.ParentID)
}

// jsonEnvelope is the legacy wire shape: the whole envelope as one JSON
// object. It is read, never written, so senders that predate the binary
// header keep working.
type jsonEnvelope struct {
	Type    MessageType     `json:"type"`
	Payload json.RawMessage `json:"payload"`
	Trace   *TraceContext   `json:"trace,omitempty"`
}

// decodeEnvelope decodes one envelope body, binary or legacy JSON. The
// payload aliases body.
func decodeEnvelope(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, errors.New("protocol: empty envelope")
	}
	switch body[0] {
	case '{':
		var je jsonEnvelope
		if err := json.Unmarshal(body, &je); err != nil {
			return Envelope{}, fmt.Errorf("protocol: decode envelope: %w", err)
		}
		return Envelope{Type: je.Type, Payload: je.Payload, Trace: je.Trace}, nil
	case envelopeV1:
	default:
		return Envelope{}, fmt.Errorf("protocol: unknown envelope format 0x%02x", body[0])
	}
	c := cursor{b: body[1:]}
	env := Envelope{Type: MessageType(c.bytes())}
	switch flags := c.byte(); flags {
	case 0:
	case traceSet, traceSet | traceSampled:
		env.Trace = &TraceContext{
			TraceID:  string(c.bytes()),
			SpanID:   string(c.bytes()),
			ParentID: string(c.bytes()),
			Sampled:  flags&traceSampled != 0,
		}
	default:
		c.err = fmt.Errorf("unknown trace flags 0x%02x", flags)
	}
	if c.err != nil {
		return Envelope{}, fmt.Errorf("protocol: decode envelope: %w", c.err)
	}
	env.Payload = c.b
	return env, nil
}

// AppendFrameRecordHeader appends rec's binary encoding up to and
// including the pixel length. The pixels follow as they are, so a writer
// can put the header and rec.Pixels on a stream without joining them.
func AppendFrameRecordHeader(dst []byte, rec *FrameRecord) ([]byte, error) {
	ts, err := rec.Timestamp.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("protocol: encode frame timestamp: %w", err)
	}
	var ann []byte
	if len(rec.Annotations) > 0 {
		if ann, err = json.Marshal(rec.Annotations); err != nil {
			return nil, fmt.Errorf("protocol: encode frame annotations: %w", err)
		}
	}
	dst = append(dst, frameRecordV1)
	dst = appendString(dst, rec.CameraID)
	dst = binary.AppendVarint(dst, rec.Seq)
	dst = appendBytes(dst, ts)
	dst = binary.AppendVarint(dst, int64(rec.Width))
	dst = binary.AppendVarint(dst, int64(rec.Height))
	dst = appendBytes(dst, ann)
	return binary.AppendUvarint(dst, uint64(len(rec.Pixels))), nil
}

// sealFrameRecord encodes rec as an envelope payload: the header, then
// one copy of the pixels.
func sealFrameRecord(rec *FrameRecord) (Envelope, error) {
	hdr, err := AppendFrameRecordHeader(make([]byte, 0, 64), rec)
	if err != nil {
		return Envelope{}, err
	}
	// append grows into a fresh buffer without zeroing what it copies.
	return Envelope{Type: TypeFrameRecord, Payload: append(hdr, rec.Pixels...)}, nil
}

// DecodeFrameRecord decodes a frame record in the binary layout, or in the
// legacy JSON form (first byte '{') that earlier senders and framestore
// segments carry. A binary record's Pixels alias data. Empty annotation
// and pixel fields decode as nil in both forms.
func DecodeFrameRecord(data []byte) (FrameRecord, error) {
	var rec FrameRecord
	if len(data) == 0 {
		return rec, errors.New("protocol: empty frame record")
	}
	switch data[0] {
	case '{':
		if err := json.Unmarshal(data, &rec); err != nil {
			return FrameRecord{}, fmt.Errorf("protocol: decode frame record: %w", err)
		}
	case frameRecordV1:
		if err := decodeFrameRecordV1(data[1:], &rec); err != nil {
			return FrameRecord{}, fmt.Errorf("protocol: decode frame record: %w", err)
		}
	default:
		return rec, fmt.Errorf("protocol: unknown frame record format 0x%02x", data[0])
	}
	if len(rec.Annotations) == 0 {
		rec.Annotations = nil
	}
	if len(rec.Pixels) == 0 {
		rec.Pixels = nil
	}
	return rec, nil
}

func decodeFrameRecordV1(b []byte, rec *FrameRecord) error {
	c := cursor{b: b}
	rec.CameraID = string(c.bytes())
	rec.Seq = c.varint()
	ts := c.bytes()
	rec.Width = int(c.varint())
	rec.Height = int(c.varint())
	ann := c.bytes()
	rec.Pixels = c.bytes()
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(c.b))
	}
	if err := rec.Timestamp.UnmarshalBinary(ts); err != nil {
		return err
	}
	if len(ann) > 0 {
		return json.Unmarshal(ann, &rec.Annotations)
	}
	return nil
}
