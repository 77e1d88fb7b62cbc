package protocol

import "fmt"

// TraceContext is the wire form of a distributed-tracing span context.
// It mirrors obs.SpanContext field-for-field, so the two types convert
// with a plain struct conversion in either direction; protocol keeps
// its own copy to stay free of an obs dependency.
//
// TraceID names the trace (Coral-Pie uses the detection-event ID),
// SpanID the sender's span, ParentID that span's parent, and Sampled
// the head-sampling decision taken at the trace root. The field is
// optional everywhere it appears: messages without it are fully
// backward compatible.
type TraceContext struct {
	TraceID  string `json:"traceId"`
	SpanID   string `json:"spanId"`
	ParentID string `json:"parentId,omitempty"`
	Sampled  bool   `json:"sampled"`
}

// Valid reports whether tc identifies a trace position.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" && tc.SpanID != "" }

// TraceContext and SetTraceContext implement the rpc layer's
// trace-carrier contract, letting the trace inject/extract middleware
// move span contexts through envelopes without knowing the frame type.
func (e *Envelope) TraceContext() *TraceContext      { return e.Trace }
func (e *Envelope) SetTraceContext(tc *TraceContext) { e.Trace = tc }

// AppendTrace appends tc as the trace flags byte and, when tc is set, its
// trace, span and parent IDs: the one encoding of a span context, in the
// envelope header and in the trajectory store's requests.
func AppendTrace(dst []byte, tc *TraceContext) []byte {
	if tc == nil {
		return append(dst, 0)
	}
	flags := byte(traceSet)
	if tc.Sampled {
		flags |= traceSampled
	}
	dst = AppendString(append(dst, flags), tc.TraceID)
	return AppendString(AppendString(dst, tc.SpanID), tc.ParentID)
}

// Trace reads a span context written by AppendTrace, nil when none is set.
func (c *Cursor) Trace() *TraceContext {
	switch flags := c.Byte(); flags {
	case 0:
	case traceSet, traceSet | traceSampled:
		return &TraceContext{
			TraceID:  string(c.Bytes()),
			SpanID:   string(c.Bytes()),
			ParentID: string(c.Bytes()),
			Sampled:  flags&traceSampled != 0,
		}
	default:
		c.err = fmt.Errorf("unknown trace flags 0x%02x", flags)
	}
	return nil
}
