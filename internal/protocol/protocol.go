// Package protocol defines the messages exchanged by Coral-Pie components:
// the vehicle detection event JSON object (paper Section 4.1.2), the
// informing/confirming notifications of the inter-camera communication
// protocol (Section 3.2), the heartbeat and topology-update messages of the
// camera topology server (Section 3.3), and the codecs that frame them
// over byte streams: a length-prefixed envelope with a binary header, a
// binary frame record whose pixels travel as raw bytes, the trajectory
// store's binary write batch and the heartbeats' length-prefixed JSON
// frame. Control payloads are JSON. Each binary layout is the only form
// its reader accepts: the all-JSON envelope and frame record older
// versions wrote are refused (codec.go). The binary detection event, with
// a sparse histogram, is what the trajectory store's log records carry.
package protocol

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
)

// MessageType discriminates envelope payloads.
type MessageType string

// The wire message types.
const (
	// TypeInform carries a detection event from a camera to the members
	// of its MDCS (informing stage).
	TypeInform MessageType = "inform"
	// TypeConfirm is sent by the camera that re-identified a vehicle to
	// the predecessor camera that produced the original event
	// (confirming stage).
	TypeConfirm MessageType = "confirm"
	// TypeRetire is relayed by the predecessor to the other members of
	// its MDCS so they mark the event matched in their candidate pools.
	TypeRetire MessageType = "retire"
	// TypeHeartbeat is the periodic camera -> topology server liveness
	// and registration message.
	TypeHeartbeat MessageType = "heartbeat"
	// TypeTopologyUpdate is the topology server -> camera MDCS push.
	TypeTopologyUpdate MessageType = "topology_update"
	// TypeFrameRecord carries a raw frame plus annotations to the frame
	// storage server.
	TypeFrameRecord MessageType = "frame_record"
)

// EventID uniquely identifies a detection event as "<cameraID>#<trackID>".
type EventID string

// NewEventID composes an event ID from its parts.
func NewEventID(cameraID string, trackID int64) EventID {
	return EventID(cameraID + "#" + strconv.FormatInt(trackID, 10))
}

// Split returns the camera ID and track ID components. It errors on
// malformed IDs.
func (id EventID) Split() (cameraID string, trackID int64, err error) {
	i := strings.LastIndexByte(string(id), '#')
	if i <= 0 || i == len(id)-1 {
		return "", 0, fmt.Errorf("protocol: malformed event id %q", id)
	}
	trackID, err = strconv.ParseInt(string(id[i+1:]), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("protocol: malformed event id %q: %w", id, err)
	}
	return string(id[:i]), trackID, nil
}

// DetectionEvent is the JSON object generated when a vehicle leaves a
// camera's field of view (paper Section 4.1.2): camera name, UTC
// timestamp, moving direction, adaptive histogram, the Sort tracker's
// local ID, and the ID of the corresponding trajectory-graph vertex.
type DetectionEvent struct {
	ID        EventID           `json:"id"`
	CameraID  string            `json:"cameraId"`
	Timestamp time.Time         `json:"timestamp"`
	Direction geo.Direction     `json:"direction"`
	Histogram feature.Histogram `json:"histogram"`
	TrackID   int64             `json:"trackId"`
	VertexID  int64             `json:"vertexId"`
	// TruthID is simulation ground truth carried for evaluation only.
	TruthID string `json:"truthId,omitempty"`
}

// Validate checks the structural invariants of an event.
func (e *DetectionEvent) Validate() error {
	if e.CameraID == "" {
		return errors.New("protocol: detection event missing camera id")
	}
	if e.ID == "" {
		return errors.New("protocol: detection event missing id")
	}
	if !e.Histogram.Valid() {
		return fmt.Errorf("protocol: detection event histogram has %d bins, want %d",
			len(e.Histogram.Bins), feature.HistogramSize)
	}
	return nil
}

// Inform is the informing-stage notification.
type Inform struct {
	Event DetectionEvent `json:"event"`
	// FromAddr is the sender's transport address, used by the
	// re-identifying camera to send the confirming notification back.
	FromAddr string `json:"fromAddr"`
}

// Confirm is the confirming-stage notification from the re-identifying
// camera back to the predecessor camera.
type Confirm struct {
	// EventID is the predecessor's event that was re-identified.
	EventID EventID `json:"eventId"`
	// ByCameraID is the camera that performed the re-identification.
	ByCameraID string `json:"byCameraId"`
	// MatchedEventID is the new event at the re-identifying camera.
	MatchedEventID EventID `json:"matchedEventId"`
	// Distance is the Bhattacharyya distance of the match.
	Distance float64 `json:"distance"`
}

// Retire tells an MDCS member to mark an event matched in its candidate
// pool (garbage-collection signal).
type Retire struct {
	EventID EventID `json:"eventId"`
	// ByCameraID is the camera that re-identified the vehicle, carried
	// for observability.
	ByCameraID string `json:"byCameraId"`
}

// Heartbeat registers a camera with the topology server and renews its
// liveness lease.
type Heartbeat struct {
	CameraID string    `json:"cameraId"`
	Position geo.Point `json:"position"`
	// HeadingDeg is the compass bearing that "up" in the camera image
	// corresponds to.
	HeadingDeg float64 `json:"headingDeg"`
	// Addr is the transport address where the camera accepts inter-camera
	// messages.
	Addr string    `json:"addr"`
	Time time.Time `json:"time"`
}

// CameraRef names a peer camera and how to reach it.
type CameraRef struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// TopologyUpdate pushes a camera's current MDCS table: for each moving
// direction, the set of downstream cameras to inform.
type TopologyUpdate struct {
	CameraID string `json:"cameraId"`
	// Version increases monotonically per camera so stale updates can be
	// discarded.
	Version int64 `json:"version"`
	// MDCS maps direction -> downstream cameras.
	MDCS map[geo.Direction][]CameraRef `json:"mdcs"`
}

// BoxAnnotation is per-frame tracking metadata stored with raw frames.
type BoxAnnotation struct {
	TrackID    int64   `json:"trackId"`
	X          int     `json:"x"`
	Y          int     `json:"y"`
	W          int     `json:"w"`
	H          int     `json:"h"`
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
}

// FrameRecord carries one raw frame plus annotations to the frame storage
// server. Pixels travel raw (not re-encoded), matching the paper's
// serialization decision: Seal and AppendFrameRecord copy them once into a
// binary record (codec.go), and Open hands back a record whose Pixels
// alias the received payload. A transport handler may use that payload
// only until it returns (transport.Handler), so a receiver that keeps the
// record copies Pixels. The JSON tags name the fields of the JSON form
// older versions wrote, which no reader accepts any more.
type FrameRecord struct {
	CameraID    string          `json:"cameraId"`
	Seq         int64           `json:"seq"`
	Timestamp   time.Time       `json:"timestamp"`
	Width       int             `json:"width"`
	Height      int             `json:"height"`
	Pixels      []byte          `json:"pixels"`
	Annotations []BoxAnnotation `json:"annotations,omitempty"`
}

// Envelope frames a typed payload: a binary frame record for
// TypeFrameRecord, JSON for every other type. Trace optionally carries the
// sender's span context so a receiver can continue the distributed
// trace; transports inject it from the caller's context on Send and
// extract it into the handler's context on delivery.
type Envelope struct {
	Type    MessageType
	Payload []byte
	Trace   *TraceContext
}

// ErrUnknownType is returned when decoding an envelope with an
// unrecognized message type.
var ErrUnknownType = errors.New("protocol: unknown message type")

// Seal wraps a payload value in an Envelope of the right type. It errors
// if the payload's Go type does not match a known message.
func Seal(msg any) (Envelope, error) {
	var t MessageType
	switch m := msg.(type) {
	case FrameRecord:
		return sealFrameRecord(&m)
	case *FrameRecord:
		return sealFrameRecord(m)
	case Inform, *Inform:
		t = TypeInform
	case Confirm, *Confirm:
		t = TypeConfirm
	case Retire, *Retire:
		t = TypeRetire
	case Heartbeat, *Heartbeat:
		t = TypeHeartbeat
	case TopologyUpdate, *TopologyUpdate:
		t = TypeTopologyUpdate
	default:
		return Envelope{}, fmt.Errorf("protocol: cannot seal %T", msg)
	}
	raw, err := json.Marshal(msg)
	if err != nil {
		return Envelope{}, fmt.Errorf("protocol: marshal %T: %w", msg, err)
	}
	return Envelope{Type: t, Payload: raw}, nil
}

// Open decodes an envelope's payload into its concrete message type.
func Open(env Envelope) (any, error) {
	var (
		msg any
		err error
	)
	switch env.Type {
	case TypeInform:
		var m Inform
		err = json.Unmarshal(env.Payload, &m)
		msg = m
	case TypeConfirm:
		var m Confirm
		err = json.Unmarshal(env.Payload, &m)
		msg = m
	case TypeRetire:
		var m Retire
		err = json.Unmarshal(env.Payload, &m)
		msg = m
	case TypeHeartbeat:
		var m Heartbeat
		err = json.Unmarshal(env.Payload, &m)
		msg = m
	case TypeTopologyUpdate:
		var m TopologyUpdate
		err = json.Unmarshal(env.Payload, &m)
		msg = m
	case TypeFrameRecord:
		rec, err := DecodeFrameRecord(env.Payload)
		if err != nil {
			return nil, err
		}
		return rec, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, env.Type)
	}
	if err != nil {
		return nil, fmt.Errorf("protocol: decode %s: %w", env.Type, err)
	}
	return msg, nil
}

// MaxFrameBytes bounds a single wire message (32 MiB), comfortably above
// a raw 1280×1024 RGB frame plus its envelope and record headers, and
// small enough to stop a corrupted length prefix from allocating
// unbounded memory.
const MaxFrameBytes = 32 << 20

// ErrFrameTooLarge is returned when a wire message exceeds its protocol's
// size cap (MaxFrameBytes for envelopes).
var ErrFrameTooLarge = errors.New("protocol: frame exceeds size limit")

// writeFramed writes one network frame, a 4-byte big-endian length and
// then head[4:] followed by tail, as a single net.Buffers write (one
// writev on a socket). head[:4] is reserved for the length. It is the one
// length-prefix writer of every TCP protocol in the tree; only the cap
// differs.
func writeFramed(w io.Writer, head, tail []byte, limit int) error {
	n := len(head) - 4 + len(tail)
	if n > limit {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(head, uint32(n))
	bufs := net.Buffers{head, tail}
	if _, err := bufs.WriteTo(w); err != nil {
		return fmt.Errorf("protocol: write frame: %w", err)
	}
	return nil
}

// readChunk bounds what readFramed allocates ahead of the bytes it has
// received: a frame up to this size (every camera frame) is read into one
// allocation, a longer one grows as its bytes arrive, so four bytes of a
// corrupt or hostile length prefix cannot pin limit bytes of memory. It is
// also the largest read buffer ReadEnvelopeInto keeps between envelopes.
const readChunk = 1 << 20

// readFramed reads one frame written by writeFramed and returns its body:
// buf[:n] when the body fits cap(buf), a fresh allocation otherwise. It
// returns io.EOF when the stream ends cleanly at a frame boundary, and
// rejects a length prefix above limit before allocating for it.
func readFramed(r io.Reader, limit int, buf []byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("protocol: read length: %w", err)
	}
	declared := binary.BigEndian.Uint32(lenBuf[:])
	if uint64(declared) > uint64(limit) {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, declared)
	}
	n := int(declared)
	body := buf[:0]
	if n > cap(buf) {
		body = make([]byte, 0, min(n, readChunk))
	}
	for len(body) < n {
		m := min(n-len(body), readChunk)
		body = slices.Grow(body, m)[:len(body)+m]
		if _, err := io.ReadFull(r, body[len(body)-m:]); err != nil {
			return nil, fmt.Errorf("protocol: read payload: %w", err)
		}
	}
	return body, nil
}

// WriteFrame writes v as one network frame: a 4-byte big-endian length
// followed by v's JSON, rejecting payloads above limit. Fleet heartbeats
// use it, the last JSON request/response wire.
func WriteFrame(w io.Writer, v any, limit int) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("protocol: marshal frame: %w", err)
	}
	return WriteFrameBody(w, data, limit)
}

// WriteFrameBody is WriteFrame for a body already encoded: body goes on
// the wire as it is. The trajectory store sends its binary requests and
// answers with it.
func WriteFrameBody(w io.Writer, body []byte, limit int) error {
	return writeFramed(w, make([]byte, 4), body, limit)
}

// ReadFrame reads one frame written by WriteFrame into v, with
// readFramed's EOF and size-cap rules.
func ReadFrame(r io.Reader, v any, limit int) error {
	data, err := ReadFrameBody(r, limit)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("protocol: decode frame: %w", err)
	}
	return nil
}

// ReadFrameBody reads one frame and returns its raw body, with
// readFramed's EOF and size-cap rules.
func ReadFrameBody(r io.Reader, limit int) ([]byte, error) {
	return readFramed(r, limit, nil)
}

// WriteEnvelope frames env as a 4-byte big-endian length, the binary
// envelope header (version, type, trace context) and the payload bytes as
// they are: the payload is neither copied nor re-encoded, so one sealed
// envelope goes to every replica as the same bytes.
func WriteEnvelope(w io.Writer, env Envelope) error {
	head := appendEnvelopeHeader(make([]byte, 4, 64), &env)
	return writeFramed(w, head, env.Payload, MaxFrameBytes)
}

// ReadEnvelope reads one length-prefixed envelope into a buffer of its own.
// It returns io.EOF when the stream ends cleanly at a message boundary, and
// an error wrapping ErrBadEnvelope for a body it does not decode or one
// longer than MaxFrameBytes.
func ReadEnvelope(r io.Reader) (Envelope, error) {
	var buf []byte
	return ReadEnvelopeInto(r, &buf)
}

// ReadEnvelopeInto is ReadEnvelope reading the body into *buf when it
// fits. It leaves in *buf the buffer for the next call: the body's, if
// that is at most readChunk (1 MiB), else the one it was given, so one
// stream pins no more than that between envelopes. The payload aliases
// that buffer and is valid only until the next call with the same buf.
func ReadEnvelopeInto(r io.Reader, buf *[]byte) (Envelope, error) {
	body, err := readFramed(r, MaxFrameBytes, *buf)
	if errors.Is(err, ErrFrameTooLarge) {
		return Envelope{}, fmt.Errorf("%w: %w", ErrBadEnvelope, err)
	}
	if err != nil {
		return Envelope{}, err
	}
	if cap(body) <= readChunk {
		*buf = body
	}
	return decodeEnvelope(body)
}
