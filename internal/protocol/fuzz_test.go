package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
)

// FuzzReadEnvelope feeds arbitrary bytes to the envelope reader and the
// message decoder. Neither may panic, a body in the all-JSON envelope older
// senders wrote (first byte '{') must be refused, and whatever decodes
// must survive re-encoding: WriteEnvelope → ReadEnvelope gives back the
// same envelope, and Seal → Open gives back the same message. Read as a
// stream through one reused buffer, the bytes must give, envelope by
// envelope, what a fresh buffer per envelope gives.
func FuzzReadEnvelope(f *testing.F) {
	tc := &TraceContext{TraceID: "cam1#1", SpanID: "s", Sampled: true}
	var stream bytes.Buffer // every binary seed, back to back
	for _, msg := range []any{
		Inform{Event: sampleEvent(), FromAddr: "127.0.0.1:9000"},
		Retire{EventID: "cam1#1", ByCameraID: "cam2"},
		TopologyUpdate{CameraID: "cam3", Version: 5, MDCS: map[geo.Direction][]CameraRef{geo.East: {{ID: "cam4"}}}},
		FrameRecord{CameraID: "cam1", Seq: 3, Width: 1, Height: 1, Pixels: []byte{1, 2, 3},
			Annotations: []BoxAnnotation{{TrackID: 1, W: 1, H: 1, Label: "car", Confidence: 0.5}}},
	} {
		env, err := Seal(msg)
		if err != nil {
			f.Fatal(err)
		}
		env.Trace = tc
		var bin, legacy bytes.Buffer
		if err := WriteEnvelope(&bin, env); err != nil {
			f.Fatal(err)
		}
		// The same message in the all-JSON envelope older senders wrote.
		payload, err := json.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		jsonEnv := struct {
			Type    MessageType     `json:"type"`
			Payload json.RawMessage `json:"payload"`
			Trace   *TraceContext   `json:"trace,omitempty"`
		}{env.Type, payload, tc}
		if err := WriteFrame(&legacy, jsonEnv, MaxFrameBytes); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
		f.Add(legacy.Bytes())
		stream.Write(bin.Bytes())
	}
	f.Add(stream.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, reused := bytes.NewReader(data), bytes.NewReader(data)
		var rbuf []byte
		for i := 0; ; i++ {
			want, werr := ReadEnvelope(fresh)
			got, gerr := ReadEnvelopeInto(reused, &rbuf)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("envelope %d: reused buffer: %v, fresh: %v", i, gerr, werr)
			}
			if werr != nil {
				break
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) || !reflect.DeepEqual(got.Trace, want.Trace) {
				t.Fatalf("envelope %d: reused buffer:\n got %+v\nwant %+v", i, got, want)
			}
		}

		env, err := ReadEnvelope(bytes.NewReader(data))
		if err != nil {
			return
		}
		if data[4] == '{' {
			t.Fatalf("JSON envelope decoded: %+v", env)
		}
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, env); err != nil {
			t.Fatalf("re-encode %+v: %v", env, err)
		}
		again, err := ReadEnvelope(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.Type != env.Type || !bytes.Equal(again.Payload, env.Payload) || !reflect.DeepEqual(again.Trace, env.Trace) {
			t.Fatalf("envelope round trip:\n got %+v\nwant %+v", again, env)
		}

		msg, err := Open(env)
		if err != nil {
			return
		}
		resealed, err := Seal(msg)
		if err != nil {
			t.Fatalf("re-seal %T: %v", msg, err)
		}
		reopened, err := Open(resealed)
		if err != nil {
			t.Fatalf("re-open %T: %v", msg, err)
		}
		if rec, ok := msg.(FrameRecord); ok {
			if !frameRecordsEqual(reopened.(FrameRecord), rec) {
				t.Fatalf("frame record round trip:\n got %+v\nwant %+v", reopened, rec)
			}
		} else if !reflect.DeepEqual(reopened, msg) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", msg, reopened, msg)
		}
	})
}

// FuzzDecodeFrameRecord feeds arbitrary bytes to the frame-record decoder
// the framestore runs on every segment record and received frame. It may
// not panic, must refuse the JSON record older versions wrote (first byte
// '{'), and a record that decodes must re-encode and decode to an equal
// record.
func FuzzDecodeFrameRecord(f *testing.F) {
	for _, rec := range []FrameRecord{
		{},
		{CameraID: "cam1", Seq: -2, Width: 2, Height: 1, Pixels: []byte{1, 2, 3, 4, 5, 6},
			Annotations: []BoxAnnotation{{TrackID: 4, X: 1, Label: "bus", Confidence: 1}}},
	} {
		env, err := Seal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env.Payload)
	}
	f.Add([]byte(`{"cameraId":"cam1","seq":1,"timestamp":"2020-12-07T10:30:00+01:00","width":1,"height":1,"pixels":"AQID"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeFrameRecord(data)
		if err != nil {
			return
		}
		if data[0] == '{' {
			t.Fatalf("JSON frame record decoded: %+v", rec)
		}
		env, err := Seal(rec)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", rec, err)
		}
		again, err := DecodeFrameRecord(env.Payload)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !frameRecordsEqual(again, rec) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", again, rec)
		}
	})
}

// FuzzDecodeDetectionEvent feeds arbitrary bytes to the event decoder the
// trajectory store runs on every vertex record of its log. It may not
// panic, and an event that decodes must re-encode to bytes that decode to
// an equal event.
func FuzzDecodeDetectionEvent(f *testing.F) {
	zoned := sampleEvent()
	zoned.Timestamp = zoned.Timestamp.In(time.FixedZone("", -7*3600))
	zoned.Histogram.Bins[9] = math.Copysign(0, -1)
	for _, e := range []DetectionEvent{{}, sampleEvent(), zoned} {
		data, err := AppendDetectionEvent(nil, &e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeDetectionEvent(data)
		if err != nil {
			return
		}
		again, err := AppendDetectionEvent(nil, &e)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", e, err)
		}
		got, err := DecodeDetectionEvent(again)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !eventsEqual(got, e) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, e)
		}
	})
}

// FuzzDecodeTrajWrites feeds arbitrary bytes to the add_batch write-batch
// decoder. It may not panic, and whatever decodes must re-encode and
// decode again to the same batch: the same kinds, endpoints, weight bits,
// trace contexts and events. The checked-in corpus holds an empty batch,
// a traced vertex with two edges, a vertex at an offset with negative
// seconds, a truncated batch and one of an unknown kind.
func FuzzDecodeTrajWrites(f *testing.F) {
	tc := TraceContext{TraceID: "cam1#1", SpanID: "s", ParentID: "p", Sampled: true}
	odd := sampleEvent()
	odd.Timestamp = odd.Timestamp.In(time.FixedZone("", -317))
	for _, ws := range [][]TrajWrite{
		nil,
		{VertexWrite(sampleEvent()).WithTrace(tc), EdgeWrite(1, 2, 0.25), EdgeWrite(-3, 4, math.Inf(-1))},
		{VertexWrite(odd)},
	} {
		data, err := AppendTrajWrites(nil, ws)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCursor(data)
		ws, err := DecodeTrajWrites(&c)
		if err != nil {
			return
		}
		again, err := AppendTrajWrites(nil, ws)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", ws, err)
		}
		c = NewCursor(again)
		got, err := DecodeTrajWrites(&c)
		if err != nil || c.Len() != 0 {
			t.Fatalf("re-decode: %v, %d bytes left", err, c.Len())
		}
		if len(got) != len(ws) {
			t.Fatalf("re-decoded %d writes, want %d", len(got), len(ws))
		}
		for i := range ws {
			a, b := ws[i], got[i]
			if a.Kind != b.Kind || a.From != b.From || a.To != b.To ||
				math.Float64bits(a.Weight) != math.Float64bits(b.Weight) || !reflect.DeepEqual(a.Trace, b.Trace) ||
				(a.Event == nil) != (b.Event == nil) || a.Event != nil && !eventsEqual(*a.Event, *b.Event) {
				t.Fatalf("write %d re-decoded to %+v, want %+v", i, b, a)
			}
		}
	})
}
