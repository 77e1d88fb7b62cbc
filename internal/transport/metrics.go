package transport

import (
	"repro/internal/obs"
)

// endpointMetrics are one transport instance's counters. Every instance
// owns a private registry by default, so e.g. Bus.Dropped() never mixes
// in another bus's drops; binding a registry via Use re-homes the
// handles onto that registry (named coralpie_transport_*) for HTTP
// exposition.
type endpointMetrics struct {
	reg *obs.Registry // nil when private

	sends            *obs.Counter   // envelopes submitted for delivery
	delivered        *obs.Counter   // envelopes handed to a handler
	lost             *obs.Counter   // envelopes discarded by the loss model
	sendErrors       *obs.Counter   // failed sends (unknown peer, no handler, dial/write errors)
	redials          *obs.Counter   // TCP dials (first connect and reconnects)
	received         *obs.Counter   // envelopes read off inbound connections
	bytesOut         *obs.Counter   // payload bytes submitted
	bytesIn          *obs.Counter   // payload bytes received
	deadlineExceeded *obs.Counter   // sends/drains aborted by a context or socket deadline
	retries          *obs.Counter   // sends retried after a stale cached connection
	retryExhausted   *obs.Counter   // sends that failed after the whole retry budget
	drain            *obs.Histogram // graceful-shutdown drain duration
	decodeErrors     *obs.Counter   // inbound envelopes that did not decode (TCP only)

	peerSends map[string]*obs.Counter // registry-bound only
}

func newEndpointMetrics(reg *obs.Registry, kind string) *endpointMetrics {
	m := &endpointMetrics{reg: reg, peerSends: make(map[string]*obs.Counter)}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	label := []string{"transport", kind}
	m.sends = reg.Counter("coralpie_transport_sends_total",
		"envelopes submitted for delivery", label...)
	m.delivered = reg.Counter("coralpie_transport_delivered_total",
		"envelopes handed to a destination handler", label...)
	m.lost = reg.Counter("coralpie_transport_lost_total",
		"envelopes discarded by the loss model", label...)
	m.sendErrors = reg.Counter("coralpie_transport_send_errors_total",
		"sends that failed", label...)
	m.redials = reg.Counter("coralpie_transport_dials_total",
		"outgoing TCP dials, including reconnects", label...)
	m.received = reg.Counter("coralpie_transport_received_total",
		"envelopes read from peers", label...)
	m.bytesOut = reg.Counter("coralpie_transport_bytes_out_total",
		"payload bytes submitted", label...)
	m.bytesIn = reg.Counter("coralpie_transport_bytes_in_total",
		"payload bytes received", label...)
	m.deadlineExceeded = reg.Counter("coralpie_transport_deadline_exceeded_total",
		"sends or shutdown drains aborted by a context or socket deadline", label...)
	m.retries = reg.Counter("coralpie_transport_retries_total",
		"sends retried after a stale cached connection", label...)
	m.retryExhausted = reg.Counter("coralpie_transport_retry_exhausted_total",
		"sends that failed after exhausting their retry budget", label...)
	m.drain = reg.Histogram("coralpie_transport_shutdown_drain_seconds",
		"graceful-shutdown drain duration", nil, label...)
	if kind == "tcp" {
		// Only a stream transport decodes, so an in-process deployment's
		// exposition has no such family.
		m.decodeErrors = reg.Counter("coralpie_transport_decode_errors_total",
			"inbound envelopes that did not decode or exceeded the size cap; each closes its connection", label...)
	}
	return m
}

// peer returns the per-peer send counter, or nil on a private registry.
// Callers must serialize access (the owning transport's lock).
func (m *endpointMetrics) peer(kind, addr string) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	if c, ok := m.peerSends[addr]; ok {
		return c
	}
	c := m.reg.Counter("coralpie_transport_peer_sends_total",
		"envelopes sent per destination peer", "transport", kind, "peer", addr)
	m.peerSends[addr] = c
	return c
}
