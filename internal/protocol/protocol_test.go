package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/geo"
)

func validHistogram() feature.Histogram {
	h := feature.Histogram{Bins: make([]float64, feature.HistogramSize)}
	h.Bins[0] = 1
	return h
}

func sampleEvent() DetectionEvent {
	return DetectionEvent{
		ID:        NewEventID("cam1", 42),
		CameraID:  "cam1",
		Timestamp: time.Date(2020, 12, 7, 10, 30, 0, 0, time.UTC),
		Direction: geo.East,
		Histogram: validHistogram(),
		TrackID:   42,
		VertexID:  7,
		TruthID:   "veh-3",
	}
}

func TestEventID(t *testing.T) {
	id := NewEventID("cam1", 42)
	if id != "cam1#42" {
		t.Errorf("id = %q", id)
	}
	cam, track, err := id.Split()
	if err != nil || cam != "cam1" || track != 42 {
		t.Errorf("Split = %q %d %v", cam, track, err)
	}
	// Camera names containing '#' still split on the last separator.
	cam, track, err = EventID("edge#2#9").Split()
	if err != nil || cam != "edge#2" || track != 9 {
		t.Errorf("Split = %q %d %v", cam, track, err)
	}
	for _, bad := range []EventID{"", "noseparator", "#5", "cam#", "cam#abc"} {
		if _, _, err := bad.Split(); err == nil {
			t.Errorf("Split(%q) should error", bad)
		}
	}
}

func TestDetectionEventValidate(t *testing.T) {
	e := sampleEvent()
	if err := e.Validate(); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
	e2 := sampleEvent()
	e2.CameraID = ""
	if err := e2.Validate(); err == nil {
		t.Error("missing camera id accepted")
	}
	e3 := sampleEvent()
	e3.ID = ""
	if err := e3.Validate(); err == nil {
		t.Error("missing id accepted")
	}
	e4 := sampleEvent()
	e4.Histogram = feature.Histogram{Bins: []float64{1}}
	if err := e4.Validate(); err == nil {
		t.Error("short histogram accepted")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	msgs := []any{
		Inform{Event: sampleEvent()},
		Confirm{EventID: "cam1#42", ByCameraID: "cam2", MatchedEventID: "cam2#7", Distance: 0.12},
		Retire{EventID: "cam1#42", ByCameraID: "cam2"},
		Heartbeat{CameraID: "cam3", Position: geo.Point{Lat: 33.77, Lon: -84.39}, HeadingDeg: 90, Addr: "127.0.0.1:9000", Time: time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)},
		TopologyUpdate{CameraID: "cam3", Version: 5, MDCS: map[geo.Direction][]CameraRef{
			geo.East: {{ID: "cam4", Addr: "127.0.0.1:9001"}},
		}},
		FrameRecord{CameraID: "cam1", Seq: 9, Width: 2, Height: 1, Pixels: []byte{1, 2, 3, 4, 5, 6}},
	}
	for _, msg := range msgs {
		env, err := Seal(msg)
		if err != nil {
			t.Fatalf("Seal(%T): %v", msg, err)
		}
		got, err := Open(env)
		if err != nil {
			t.Fatalf("Open(%T): %v", msg, err)
		}
		switch want := msg.(type) {
		case Inform:
			g, ok := got.(Inform)
			if !ok || g.Event.ID != want.Event.ID || g.Event.Direction != want.Event.Direction {
				t.Errorf("Inform round trip mismatch: %+v", got)
			}
			if len(g.Event.Histogram.Bins) != feature.HistogramSize {
				t.Error("histogram lost in round trip")
			}
			if !g.Event.Timestamp.Equal(want.Event.Timestamp) {
				t.Error("timestamp lost")
			}
		case Confirm:
			if got.(Confirm) != want {
				t.Errorf("Confirm round trip: %+v", got)
			}
		case Retire:
			if got.(Retire) != want {
				t.Errorf("Retire round trip: %+v", got)
			}
		case Heartbeat:
			g, ok := got.(Heartbeat)
			if !ok || g.CameraID != want.CameraID || g.Addr != want.Addr || !g.Time.Equal(want.Time) {
				t.Errorf("Heartbeat round trip: %+v", got)
			}
		case TopologyUpdate:
			g, ok := got.(TopologyUpdate)
			if !ok || g.Version != want.Version || len(g.MDCS[geo.East]) != 1 || g.MDCS[geo.East][0].ID != "cam4" {
				t.Errorf("TopologyUpdate round trip: %+v", got)
			}
		case FrameRecord:
			g, ok := got.(FrameRecord)
			if !ok || g.Seq != want.Seq || !bytes.Equal(g.Pixels, want.Pixels) {
				t.Errorf("FrameRecord round trip: %+v", got)
			}
		}
	}
}

// frameRecordsEqual compares records field by field; timestamps must be
// the same instant in the same zone offset.
func frameRecordsEqual(a, b FrameRecord) bool {
	_, aOff := a.Timestamp.Zone()
	_, bOff := b.Timestamp.Zone()
	if !a.Timestamp.Equal(b.Timestamp) || aOff != bOff {
		return false
	}
	a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
	return reflect.DeepEqual(a, b)
}

func TestFrameRecordSealOpenRoundTrip(t *testing.T) {
	pix := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	recs := map[string]FrameRecord{
		"annotated": {CameraID: "cam1", Seq: 9, Timestamp: time.Date(2020, 12, 7, 10, 30, 0, 123, time.FixedZone("EST", -5*3600)),
			Width: 2, Height: 2, Pixels: pix, Annotations: []BoxAnnotation{
				{TrackID: 3, X: 1, Y: 2, W: 3, H: 4, Label: "car", Confidence: 0.875},
				{TrackID: -1, Label: "truck"},
			}},
		"no annotations":   {CameraID: "cam2", Seq: -4, Timestamp: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC), Width: 2, Height: 2, Pixels: pix},
		"zero timestamp":   {CameraID: "cam3", Seq: 1 << 40, Width: 2, Height: 2, Pixels: pix},
		"empty everything": {},
	}
	for name, want := range recs {
		env, err := Seal(want)
		if err != nil {
			t.Fatalf("%s: Seal: %v", name, err)
		}
		if env.Type != TypeFrameRecord || env.Payload[0] != frameRecordV1 {
			t.Fatalf("%s: sealed as %q/0x%02x, want a binary frame record", name, env.Type, env.Payload[0])
		}
		if overhead := len(env.Payload) - len(want.Pixels); len(want.Annotations) == 0 && overhead > 48 {
			t.Errorf("%s: %d bytes of overhead beyond the pixels", name, overhead)
		}
		got, err := Open(env)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if !frameRecordsEqual(got.(FrameRecord), want) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", name, got, want)
		}
		if want.Timestamp.IsZero() != got.(FrameRecord).Timestamp.IsZero() {
			t.Errorf("%s: zero timestamp not preserved", name)
		}
	}
}

func TestDecodeFrameRecordRejectsMalformed(t *testing.T) {
	env, err := Seal(FrameRecord{CameraID: "c", Seq: 1, Width: 1, Height: 1, Pixels: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	good := env.Payload
	if _, err := DecodeFrameRecord(good); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	bad := map[string][]byte{
		"empty":          nil,
		"unknown format": append([]byte{0x7f}, good[1:]...),
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"legacy garbage": []byte(`{"seq":`),
	}
	for cut := 1; cut < len(good); cut++ {
		bad["truncated at "+strconv.Itoa(cut)] = good[:cut]
	}
	// A pixel length far beyond the buffer must fail its bounds check, not
	// allocate or slice out of range.
	hdr, err := AppendFrameRecordHeader(nil, &FrameRecord{}) // ends in pixel length 0
	if err != nil {
		t.Fatal(err)
	}
	bad["oversized pixel length"] = binary.AppendUvarint(hdr[:len(hdr)-1], 1<<30)
	for name, data := range bad {
		if _, err := DecodeFrameRecord(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestReadEnvelopeRefusesJSON reads a stream written the way senders did
// before the binary envelope: each envelope one JSON object framed by
// WriteFrame, frame records with base64 pixels. Each is refused as a bad
// envelope of unknown format 0x7b ('{'), and a binary envelope after them
// on the same stream still reads.
func TestReadEnvelopeRefusesJSON(t *testing.T) {
	ts := time.Date(2020, 12, 7, 10, 30, 0, 0, time.UTC)
	rec := FrameRecord{CameraID: "cam1", Seq: 7, Timestamp: ts, Width: 1, Height: 2,
		Pixels: []byte{9, 8, 7, 6, 5, 4}, Annotations: []BoxAnnotation{{TrackID: 1, W: 1, H: 1, Label: "car"}}}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	retireJSON, err := json.Marshal(Retire{EventID: "cam1#3", ByCameraID: "cam2"})
	if err != nil {
		t.Fatal(err)
	}
	tc := &TraceContext{TraceID: "cam1#3", SpanID: "s1", ParentID: "p0", Sampled: true}

	var buf bytes.Buffer
	for _, legacy := range []map[string]any{
		{"type": TypeFrameRecord, "payload": json.RawMessage(recJSON)},
		{"type": TypeRetire, "payload": json.RawMessage(retireJSON), "trace": tc},
	} {
		if err := WriteFrame(&buf, legacy, MaxFrameBytes); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := Seal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&buf, sealed); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if _, err := ReadEnvelope(&buf); !errors.Is(err, ErrBadEnvelope) || !strings.Contains(err.Error(), "format 0x7b") {
			t.Fatalf("JSON envelope %d: %v, want a bad envelope of format 0x7b", i, err)
		}
	}
	env, err := ReadEnvelope(&buf)
	if err != nil {
		t.Fatalf("binary envelope after the JSON ones: %v", err)
	}
	if msg, err := Open(env); err != nil || !frameRecordsEqual(msg.(FrameRecord), rec) {
		t.Errorf("binary envelope: %+v, %v; want %+v", msg, err, rec)
	}
	if _, err := ReadEnvelope(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestEnvelopeTraceRoundTrip(t *testing.T) {
	for _, tc := range []*TraceContext{
		nil,
		{TraceID: "cam1#1", SpanID: "a", Sampled: true},
		{TraceID: "cam1#1", SpanID: "b", ParentID: "a"},
		{},
	} {
		want := Envelope{Type: TypeConfirm, Payload: []byte(`{"eventId":"x"}`), Trace: tc}
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEnvelope(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) || !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Errorf("round trip = %+v (trace %+v), want %+v (trace %+v)", got, got.Trace, want, want.Trace)
		}
	}
}

func TestSealUnknownType(t *testing.T) {
	if _, err := Seal(struct{}{}); err == nil {
		t.Error("sealing an unknown type should error")
	}
}

func TestOpenUnknownType(t *testing.T) {
	_, err := Open(Envelope{Type: "bogus", Payload: []byte("{}")})
	if !errors.Is(err, ErrUnknownType) {
		t.Errorf("want ErrUnknownType, got %v", err)
	}
}

func TestOpenCorruptPayload(t *testing.T) {
	if _, err := Open(Envelope{Type: TypeInform, Payload: []byte("{")}); err == nil {
		t.Error("corrupt payload should error")
	}
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Retire{EventID: "cam1#1", ByCameraID: "cam9"}
	sealed, err := Seal(want)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := WriteEnvelope(&buf, sealed); err != nil {
		t.Fatalf("WriteEnvelope: %v", err)
	}
	env, err := ReadEnvelope(&buf)
	if err != nil {
		t.Fatalf("ReadEnvelope: %v", err)
	}
	got, err := Open(env)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got.(Retire) != want {
		t.Errorf("round trip = %+v", got)
	}
}

func TestWireMultipleMessages(t *testing.T) {
	var buf bytes.Buffer
	for i := int64(0); i < 5; i++ {
		sealed, err := Seal(Retire{EventID: NewEventID("cam", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteEnvelope(&buf, sealed); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 5; i++ {
		env, err := ReadEnvelope(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		msg, err := Open(env)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if msg.(Retire).EventID != NewEventID("cam", i) {
			t.Errorf("message %d out of order: %+v", i, msg)
		}
	}
	if _, err := ReadEnvelope(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestReadEnvelopeTruncated(t *testing.T) {
	var buf bytes.Buffer
	sealed, err := Seal(Retire{EventID: "c#1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEnvelope(&buf, sealed); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Cut the payload short: must not return clean EOF.
	if _, err := ReadEnvelope(bytes.NewReader(data[:len(data)-2])); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated payload: %v", err)
	}
	// Cut inside the length prefix.
	if _, err := ReadEnvelope(bytes.NewReader(data[:2])); err == nil {
		t.Error("truncated length should error")
	}
}

func TestReadEnvelopeOversized(t *testing.T) {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrameBytes+1)
	_, err := ReadEnvelope(bytes.NewReader(lenBuf[:]))
	if !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, ErrBadEnvelope) {
		t.Errorf("want ErrFrameTooLarge as a bad envelope, got %v", err)
	}
}

func TestReadEnvelopeGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("not json")
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	buf.Write(lenBuf[:])
	buf.Write(payload)
	if _, err := ReadEnvelope(&buf); err == nil {
		t.Error("garbage JSON should error")
	}
}

// eventsEqual compares events field by field; timestamps must be the same
// instant in the same zone offset, and histogram bins the same bits (so
// -0 and NaN compare).
func eventsEqual(a, b DetectionEvent) bool {
	_, aOff := a.Timestamp.Zone()
	_, bOff := b.Timestamp.Zone()
	if !a.Timestamp.Equal(b.Timestamp) || aOff != bOff || len(a.Histogram.Bins) != len(b.Histogram.Bins) {
		return false
	}
	for i := range a.Histogram.Bins {
		if math.Float64bits(a.Histogram.Bins[i]) != math.Float64bits(b.Histogram.Bins[i]) {
			return false
		}
	}
	a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
	a.Histogram, b.Histogram = feature.Histogram{}, feature.Histogram{}
	return reflect.DeepEqual(a, b)
}

func TestDetectionEventRoundTrip(t *testing.T) {
	odd := sampleEvent()
	odd.Timestamp = time.Date(2020, 12, 7, 10, 30, 0, 123456789, time.FixedZone("IST", 330*60))
	odd.Direction, odd.TrackID, odd.VertexID, odd.TruthID = geo.DirectionInvalid, -3, 0, ""
	odd.Histogram = feature.Histogram{Bins: make([]float64, feature.HistogramSize)}
	for i, v := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.SmallestNonzeroFloat64, 0.25} {
		odd.Histogram.Bins[i*97] = v
	}
	odd.Histogram.Bins[feature.HistogramSize-1] = 1e300
	events := map[string]DetectionEvent{
		"sample":       sampleEvent(),
		"odd values":   odd,
		"no histogram": {ID: "cam#1", CameraID: "cam"},
	}
	for name, want := range events {
		data, err := AppendDetectionEvent(nil, &want)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeDetectionEvent(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !eventsEqual(got, want) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", name, got, want)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := DecodeDetectionEvent(data[:cut]); err == nil {
				t.Fatalf("%s: decoded a record cut to %d of %d bytes", name, cut, len(data))
			}
		}
		if _, err := DecodeDetectionEvent(append(data, 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
	// One set bin of 512: a few dozen bytes, not a float per bin.
	sample := sampleEvent()
	if data, _ := AppendDetectionEvent(nil, &sample); len(data) > 64 {
		t.Errorf("sample event encodes to %d bytes", len(data))
	}

	big := DetectionEvent{Histogram: feature.Histogram{Bins: make([]float64, maxHistogramBins+1)}}
	if _, err := AppendDetectionEvent(nil, &big); err == nil {
		t.Error("histogram over the bin cap encoded")
	}
	// The histogram is the event's tail: bin count, set count, then pairs.
	head, _ := AppendDetectionEvent(nil, &DetectionEvent{})
	head = head[:len(head)-2]
	for name, tail := range map[string][]byte{
		"bin count over the cap": binary.AppendUvarint(binary.AppendUvarint(nil, maxHistogramBins+1), 0),
		"more set than bins":     {2, 3},
		"index past the end":     {2, 1, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
		"zero bin listed":        {2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := DecodeDetectionEvent(append(bytes.Clone(head), tail...)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, err := DecodeDetectionEvent(append(bytes.Clone(head), 2, 1, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f)); err != nil {
		t.Errorf("valid hand-built tail: %v", err)
	}
}

// TestTrajWritesRoundTrip encodes a batch of a traced vertex, an untraced
// edge and a traced edge, and decodes it back to an equal batch; a record
// the layout cannot carry is refused by the encoder, and damaged bytes by
// the decoder.
func TestTrajWritesRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: "cam1#1", SpanID: "s", ParentID: "p", Sampled: true}
	ws := []TrajWrite{VertexWrite(sampleEvent()).WithTrace(tc), EdgeWrite(1, 2, 0.25), EdgeWrite(-3, 4, -0.5).WithTrace(TraceContext{TraceID: "x", SpanID: "y"})}
	data, err := AppendTrajWrites(nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCursor(data)
	got, err := DecodeTrajWrites(&c)
	if err != nil || c.Len() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, c.Len())
	}
	if len(got) != len(ws) || !eventsEqual(*got[0].Event, *ws[0].Event) {
		t.Fatalf("decoded %+v, want %+v", got, ws)
	}
	got[0].Event, ws[0].Event = nil, nil
	if !reflect.DeepEqual(got, ws) {
		t.Errorf("decoded %+v, want %+v", got, ws)
	}

	long := sampleEvent()
	long.Histogram.Bins = make([]float64, maxHistogramBins+1)
	for _, bad := range []TrajWrite{{Kind: "x"}, {Kind: TrajWriteVertex}, VertexWrite(long)} {
		if _, err := AppendTrajWrites(nil, []TrajWrite{bad}); err == nil {
			t.Errorf("encoded %+v", bad)
		}
	}
	// A batch may declare maxBatchBins histogram bins and no more.
	full := sampleEvent()
	full.Histogram.Bins = make([]float64, maxHistogramBins)
	many := make([]TrajWrite, maxBatchBins/maxHistogramBins+1)
	for i := range many {
		many[i] = VertexWrite(full)
	}
	for n, ok := range map[int]bool{len(many) - 1: true, len(many): false} {
		data, err := AppendTrajWrites(nil, many[:n])
		if err != nil {
			t.Fatal(err)
		}
		c := NewCursor(data)
		if _, err := DecodeTrajWrites(&c); (err == nil) != ok {
			t.Errorf("batch of %d full histograms: err = %v, want ok %v", n, err, ok)
		}
	}

	edge, _ := AppendTrajWrites(nil, []TrajWrite{EdgeWrite(1, 2, 0.25)})
	for _, bad := range [][]byte{
		append([]byte{1, 'x'}, edge[2:]...),       // unknown kind
		edge[:len(edge)-1],                        // truncated weight
		{2, 'e', 0, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0}, // count past the bytes
		{1, 'e', 4, 2, 4, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown trace flags
	} {
		c := NewCursor(bad)
		if ws, err := DecodeTrajWrites(&c); err == nil {
			t.Errorf("%x decoded to %+v", bad, ws)
		}
	}
}

// TestUnmarshalTimeReadsMarshalBinaryExactly: every zone offset
// MarshalBinary writes, negative seconds included, decodes to the same
// instant at the same offset and re-encodes to the same bytes; the forms
// MarshalBinary never writes are refused.
func TestUnmarshalTimeReadsMarshalBinaryExactly(t *testing.T) {
	at := time.Date(2020, 12, 7, 10, 30, 0, 123456789, time.UTC)
	for _, loc := range []*time.Location{
		time.UTC, time.Local,
		time.FixedZone("", -317), time.FixedZone("", 317), time.FixedZone("", -17),
		time.FixedZone("", -3661), time.FixedZone("", -7*3600), time.FixedZone("", 0),
	} {
		b, err := at.In(loc).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalTime(b)
		if err != nil {
			t.Errorf("%v: %v", loc, err)
			continue
		}
		_, want := at.In(loc).Zone()
		if _, off := got.Zone(); !got.Equal(at) || off != want {
			t.Errorf("%v: decoded %v at offset %d, want %v at %d", loc, got, off, at, want)
		}
		if again, err := got.MarshalBinary(); err != nil || !bytes.Equal(again, b) {
			t.Errorf("%v: re-encoded to %x, %v; want %x", loc, again, err, b)
		}
	}

	b, _ := at.In(time.FixedZone("", -317)).MarshalBinary()
	form := func(edit func(b []byte) []byte) []byte { return edit(append([]byte{}, b...)) }
	for name, bad := range map[string][]byte{
		"seconds byte zero":       form(func(b []byte) []byte { b[15] = 0; return b }),
		"seconds against minutes": form(func(b []byte) []byte { b[15] = 17; return b }),
		"UTC marker in version 2": form(func(b []byte) []byte { b[13], b[14] = 0xff, 0xff; return b }),
		"a second of nanoseconds": form(func(b []byte) []byte { binary.BigEndian.PutUint32(b[9:], 1e9); return b }),
		"truncated":               b[:15],
	} {
		if got, err := UnmarshalTime(bad); err == nil {
			t.Errorf("%s: decoded %x to %v", name, bad, got)
		}
	}
}
