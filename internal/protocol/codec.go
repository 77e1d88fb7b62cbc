package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
)

// Binary wire layouts. Every variable-length field is a uvarint length
// followed by its bytes; integers are zig-zag varints. A layout starts with
// its version byte; a reader refuses any other first byte, the '{' of the
// JSON forms older versions wrote among them.
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
//
// Detection event (the trajectory store's log record for a vertex):
//
//	detectionEventV1 | ID | camera ID | timestamp (time.MarshalBinary) |
//	direction | track ID | vertex ID | truth ID |
//	bin count | set-bin count | per set bin: index gap, float64 bits (8 bytes LE)
//
// The histogram is sparse: only bins whose bits are non-zero are listed
// (so -0 is kept), in ascending index order, each as its distance from the
// previous listed index minus one (the first from -1).
const (
	envelopeV1       = 0x01
	frameRecordV1    = 0x01
	detectionEventV1 = 0x01

	traceSet     = 1 << 0
	traceSampled = 1 << 1

	// maxHistogramBins caps a histogram at the size every camera's
	// signature has, so a few bytes of a corrupt or hostile count cannot
	// decode to more memory than a real event holds; the encoder refuses
	// more.
	maxHistogramBins = feature.HistogramSize
)

var errTruncated = errors.New("protocol: truncated binary field")

var errLongVarint = errors.New("protocol: varint longer than its value needs")

// Cursor walks a received buffer for the decoders of every binary layout,
// this package's and the trajectory store's requests and answers. Every
// length is checked against what remains; the first failure sticks, so a
// decoder reads all fields and checks Err once. A varint must be in its shortest
// form, the one binary.AppendUvarint and AppendVarint write, so each value
// has one encoding.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Len returns how many bytes remain.
func (c *Cursor) Len() int { return len(c.b) }

// Uvarint returns the next unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	c.advance(n)
	return v
}

// Varint returns the next zig-zag varint.
func (c *Cursor) Varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	c.advance(n)
	return v
}

// advance consumes a varint of n bytes (n <= 0: none could be read). Only
// a one-byte varint may end in a zero byte; a longer one that does has
// padded its value with zero groups.
func (c *Cursor) advance(n int) {
	switch {
	case n <= 0:
		c.err = errTruncated
	case n > 1 && c.b[n-1] == 0:
		c.err = errLongVarint
	default:
		c.b = c.b[n:]
	}
}

// Byte returns the next byte.
func (c *Cursor) Byte() byte {
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

// Bytes returns the next length-prefixed field, aliasing the buffer.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
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

// Fixed64 returns the next 8-byte little-endian field.
func (c *Cursor) Fixed64() uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

// Count reads a list length and fails on one the bytes left cannot hold at
// itemBytes bytes an item, so a decoder allocates only what its input fills.
func (c *Cursor) Count(itemBytes int) int {
	n := c.Uvarint()
	if c.err == nil && n > uint64(len(c.b)/itemBytes) {
		c.err = fmt.Errorf("count %d exceeds the %d bytes left", n, len(c.b))
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

// AppendBytes appends v as a length-prefixed field, as Cursor.Bytes reads it.
func AppendBytes(dst, v []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(v))), v...)
}

// AppendString is AppendBytes for a string.
func AppendString(dst []byte, v string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(v))), v...)
}

// appendEnvelopeHeader appends the binary envelope body up to the payload.
func appendEnvelopeHeader(dst []byte, env *Envelope) []byte {
	dst = append(dst, envelopeV1)
	return AppendTrace(AppendString(dst, string(env.Type)), env.Trace)
}

// ErrBadEnvelope wraps every failure of ReadEnvelope that is the sender's
// format, not the stream's: a body that does not decode, such as one in a
// format this version does not read, or a length above MaxFrameBytes.
var ErrBadEnvelope = errors.New("protocol: bad envelope")

// decodeEnvelope decodes one envelope body. The payload aliases body.
func decodeEnvelope(body []byte) (Envelope, error) {
	if len(body) == 0 {
		return Envelope{}, fmt.Errorf("%w: empty", ErrBadEnvelope)
	}
	if body[0] != envelopeV1 {
		return Envelope{}, fmt.Errorf("%w: unknown envelope format 0x%02x", ErrBadEnvelope, body[0])
	}
	c := Cursor{b: body[1:]}
	env := Envelope{Type: MessageType(c.Bytes()), Trace: c.Trace()}
	if c.err != nil {
		return Envelope{}, fmt.Errorf("%w: %w", ErrBadEnvelope, c.err)
	}
	env.Payload = c.b
	return env, nil
}

// errTimeForm refuses time bytes time.MarshalBinary never writes.
var errTimeForm = errors.New("time not in its MarshalBinary form")

// UnmarshalTime decodes the bytes time.MarshalBinary writes, and only
// those, back to the same instant at the same zone offset. It reads a
// version-2 offset's seconds byte signed, as MarshalBinary writes it;
// time.UnmarshalBinary adds it unsigned, so it reads −00:05:17 back as
// −00:01:01, an offset MarshalBinary refuses. Every binary codec reads
// its times here. A form MarshalBinary never writes (nanoseconds past a
// second, a version-2 offset whose seconds byte is zero, disagrees with
// its minutes or rides the UTC marker) is refused, so whatever decodes
// re-encodes to the same bytes.
func UnmarshalTime(b []byte) (time.Time, error) {
	var t time.Time
	if err := t.UnmarshalBinary(b); err != nil {
		return time.Time{}, err
	}
	// UnmarshalBinary checked the length: 15 bytes, or 16 in version 2.
	if nsec := int32(binary.BigEndian.Uint32(b[9:])); nsec < 0 || nsec >= 1e9 {
		return time.Time{}, errTimeForm
	}
	if len(b) == 15 {
		return t, nil
	}
	mins, secs := int(int16(binary.BigEndian.Uint16(b[13:]))), int(int8(b[15]))
	off := mins*60 + secs
	if secs == 0 || mins == -1 || off/60 != mins || off%60 != secs {
		return time.Time{}, errTimeForm
	}
	if _, local := t.In(time.Local).Zone(); local == off {
		return t.In(time.Local), nil
	}
	return t.In(time.FixedZone("", off)), nil
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
	dst = AppendString(dst, rec.CameraID)
	dst = binary.AppendVarint(dst, rec.Seq)
	dst = AppendBytes(dst, ts)
	dst = binary.AppendVarint(dst, int64(rec.Width))
	dst = binary.AppendVarint(dst, int64(rec.Height))
	dst = AppendBytes(dst, ann)
	return binary.AppendUvarint(dst, uint64(len(rec.Pixels))), nil
}

// AppendFrameRecord appends rec's binary encoding, the header and then
// one copy of the pixels, to dst.
func AppendFrameRecord(dst []byte, rec *FrameRecord) ([]byte, error) {
	dst, err := AppendFrameRecordHeader(dst, rec)
	if err != nil {
		return nil, err
	}
	return append(dst, rec.Pixels...), nil
}

// sealFrameRecord encodes rec as an envelope payload of its own.
func sealFrameRecord(rec *FrameRecord) (Envelope, error) {
	// append grows the header's buffer into a fresh one without zeroing
	// what it copies.
	payload, err := AppendFrameRecord(make([]byte, 0, 64), rec)
	if err != nil {
		return Envelope{}, err
	}
	return Envelope{Type: TypeFrameRecord, Payload: payload}, nil
}

// DecodeFrameRecord decodes a frame record in the binary layout. Its Pixels
// alias data; empty annotation and pixel fields decode as nil.
func DecodeFrameRecord(data []byte) (FrameRecord, error) {
	var rec FrameRecord
	if len(data) == 0 {
		return rec, errors.New("protocol: empty frame record")
	}
	if data[0] != frameRecordV1 {
		return rec, fmt.Errorf("protocol: unknown frame record format 0x%02x", data[0])
	}
	if err := decodeFrameRecordV1(data[1:], &rec); err != nil {
		return FrameRecord{}, fmt.Errorf("protocol: decode frame record: %w", err)
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
	c := Cursor{b: b}
	rec.CameraID = string(c.Bytes())
	rec.Seq = c.Varint()
	ts := c.Bytes()
	rec.Width = int(c.Varint())
	rec.Height = int(c.Varint())
	ann := c.Bytes()
	rec.Pixels = c.Bytes()
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(c.b))
	}
	var err error
	if rec.Timestamp, err = UnmarshalTime(ts); err != nil {
		return err
	}
	if len(ann) > 0 {
		return json.Unmarshal(ann, &rec.Annotations)
	}
	return nil
}

// AppendDetectionEvent appends e's binary encoding to dst. It fails on a
// timestamp time.MarshalBinary refuses or a histogram longer than the
// decoder accepts.
func AppendDetectionEvent(dst []byte, e *DetectionEvent) ([]byte, error) {
	bins := e.Histogram.Bins
	if len(bins) > maxHistogramBins {
		return nil, fmt.Errorf("protocol: histogram has %d bins, limit %d", len(bins), maxHistogramBins)
	}
	ts, err := e.Timestamp.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("protocol: encode event timestamp: %w", err)
	}
	var set uint64
	for _, b := range bins {
		if math.Float64bits(b) != 0 {
			set++
		}
	}
	dst = append(dst, detectionEventV1)
	dst = AppendString(dst, string(e.ID))
	dst = AppendString(dst, e.CameraID)
	dst = AppendBytes(dst, ts)
	dst = binary.AppendVarint(dst, int64(e.Direction))
	dst = binary.AppendVarint(dst, e.TrackID)
	dst = binary.AppendVarint(dst, e.VertexID)
	dst = AppendString(dst, e.TruthID)
	dst = binary.AppendUvarint(dst, uint64(len(bins)))
	dst = binary.AppendUvarint(dst, set)
	next := 0 // the lowest index the next listed bin may have
	for i, b := range bins {
		if bits := math.Float64bits(b); bits != 0 {
			dst = binary.AppendUvarint(dst, uint64(i-next))
			dst = binary.LittleEndian.AppendUint64(dst, bits)
			next = i + 1
		}
	}
	return dst, nil
}

// DecodeDetectionEvent decodes an event written by AppendDetectionEvent.
// Every length is bounds-checked; a bin index past the histogram, a listed
// bin whose bits are zero and trailing bytes are errors. An empty
// histogram decodes as nil bins.
func DecodeDetectionEvent(data []byte) (DetectionEvent, error) {
	var e DetectionEvent
	if err := decodeDetectionEvent(data, &e); err != nil {
		return DetectionEvent{}, fmt.Errorf("protocol: decode detection event: %w", err)
	}
	return e, nil
}

func decodeDetectionEvent(data []byte, e *DetectionEvent) error {
	if len(data) == 0 {
		return errTruncated
	}
	if data[0] != detectionEventV1 {
		return fmt.Errorf("unknown format 0x%02x", data[0])
	}
	c := Cursor{b: data[1:]}
	e.ID = EventID(c.Bytes())
	e.CameraID = string(c.Bytes())
	ts := c.Bytes()
	e.Direction = geo.Direction(c.Varint())
	e.TrackID = c.Varint()
	e.VertexID = c.Varint()
	e.TruthID = string(c.Bytes())
	n, set := c.Uvarint(), c.Uvarint()
	if c.err != nil {
		return c.err
	}
	if n > maxHistogramBins || set > n {
		return fmt.Errorf("histogram of %d bins with %d set", n, set)
	}
	if n > 0 {
		e.Histogram.Bins = make([]float64, n)
	}
	next := uint64(0)
	for i := uint64(0); i < set; i++ {
		gap, bits := c.Uvarint(), c.Fixed64()
		if c.err != nil {
			return c.err
		}
		if gap >= n-next {
			return fmt.Errorf("bin index %d+%d past %d bins", next, gap, n)
		}
		if bits == 0 {
			return errors.New("zero bin listed as set")
		}
		e.Histogram.Bins[next+gap] = math.Float64frombits(bits)
		next += gap + 1
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(c.b))
	}
	var err error
	e.Timestamp, err = UnmarshalTime(ts)
	return err
}
