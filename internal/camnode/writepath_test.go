package camnode

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trajstore"
	"repro/internal/transport"
)

// informEvent builds a minimal upstream detection event for direct
// handleInform delivery.
func informEvent(id string) protocol.DetectionEvent {
	return protocol.DetectionEvent{
		ID:        protocol.EventID(id),
		CameraID:  "up",
		Timestamp: epoch,
	}
}

// TestDuplicateInformRedelivery proves a re-delivered Inform refreshes
// the sender address in the event's one pool entry instead of adding a
// second record of the event.
func TestDuplicateInformRedelivery(t *testing.T) {
	bus := transport.NewBus()
	n := newTestNode(t, bus, "dupcam", nodeConfig("dupcam", trajstore.NewMemStore()))

	evA, evB := informEvent("up#A"), informEvent("up#B")
	n.handleInform(context.Background(), protocol.Inform{Event: evA, FromAddr: "addrA"})
	n.handleInform(context.Background(), protocol.Inform{Event: evA, FromAddr: "addrA2"}) // redelivery
	n.handleInform(context.Background(), protocol.Inform{Event: evB, FromAddr: "addrB"})

	entries := n.Pool().Snapshot()
	if len(entries) != 2 || entries[0].Event.ID != evA.ID || entries[1].Event.ID != evB.ID {
		t.Fatalf("pool = %+v, want one entry each for A and B", entries)
	}
	if got := entries[0].ReplyAddr; got != "addrA2" {
		t.Errorf("reply addr of A = %q, want refreshed addrA2", got)
	}
	if got := entries[1].ReplyAddr; got != "addrB" {
		t.Errorf("reply addr of B = %q", got)
	}
	if n.Stats().InformsReceived != 3 {
		t.Errorf("informs received = %d", n.Stats().InformsReceived)
	}
}

// TestRedeliveredInformOneOpenSpan: the first delivery's span is the
// handoff span, so a redelivery must not leave a second one open for the
// tracer's FIFO to reclaim.
func TestRedeliveredInformOneOpenSpan(t *testing.T) {
	cfg := nodeConfig("dupcam", trajstore.NewMemStore())
	tracer := obs.NewTracerWith(obs.TracerConfig{Clock: clock.Fixed{T: epoch}, Capacity: 16})
	cfg.Tracer = tracer
	n := newTestNode(t, transport.NewBus(), "dupcam", cfg)

	ev := informEvent("up#A")
	n.handleInform(context.Background(), protocol.Inform{Event: ev, FromAddr: "addrA"})
	n.handleInform(context.Background(), protocol.Inform{Event: ev, FromAddr: "addrA"})
	if got := tracer.ActiveCount(); got != 1 {
		t.Errorf("open spans after a redelivery = %d, want 1", got)
	}
}

// TestRememberInformRedelivery proves a repeated rememberInform replaces
// the recipient set without a second FIFO slot, which would later evict
// the live entry while the stale slot kept burning budget.
func TestRememberInformRedelivery(t *testing.T) {
	bus := transport.NewBus()
	n := newTestNode(t, bus, "pendcam", nodeConfig("pendcam", trajstore.NewMemStore()))

	refs := []protocol.CameraRef{{ID: "x", Addr: "x"}}
	n.rememberInform("e1", refs)
	n.rememberInform("e1", refs) // repeat replaces, must not re-append
	n.rememberInform("e2", refs)

	n.mu.Lock()
	ordLen, mapLen := len(n.pendOrd), len(n.pending)
	_, hasE1 := n.pending["e1"]
	n.mu.Unlock()

	if ordLen != 2 || mapLen != 2 {
		t.Fatalf("pendOrd=%d pending=%d, want 2/2", ordLen, mapLen)
	}
	if !hasE1 {
		t.Error("e1 evicted by its own duplicate slot")
	}
}

// edgeFailStore passes vertices through and fails every edge insert.
type edgeFailStore struct {
	*trajstore.Store
}

func (s *edgeFailStore) QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error)) {
	done(errors.New("injected edge failure"))
}

// TestReidMatchAccountingWhenEdgeFails proves the re-id accounting no
// longer diverges on a failed edge write: ReidMatches counts the match,
// the failure lands in SendErrors, and EdgesInserted stays at zero.
func TestReidMatchAccountingWhenEdgeFails(t *testing.T) {
	bus := transport.NewBus()
	base := trajstore.NewMemStore()
	store := &edgeFailStore{Store: base}
	a := newTestNode(t, bus, "camA", nodeConfig("camA", store))
	b := newTestNode(t, bus, "camB", nodeConfig("camB", store))
	a.Topology().ApplyUpdate(protocol.TopologyUpdate{
		CameraID: "camA",
		Version:  1,
		MDCS: map[geo.Direction][]protocol.CameraRef{
			geo.East: {{ID: "camB", Addr: "camB"}},
		},
	})

	driveVehicleThrough(t, a, "veh-1", imaging.Red, 0)
	driveVehicleThrough(t, b, "veh-1", imaging.Red, 100)

	st := b.Stats()
	if st.ReidMatches != 1 {
		t.Errorf("ReidMatches = %d, want 1 (match happened regardless of edge outcome)", st.ReidMatches)
	}
	if st.EdgesInserted != 0 {
		t.Errorf("EdgesInserted = %d, want 0", st.EdgesInserted)
	}
	if st.SendErrors == 0 {
		t.Error("failed edge write not counted in SendErrors")
	}
	if base.NumEdges() != 0 {
		t.Errorf("edges = %d", base.NumEdges())
	}
	// The confirming stage still ran: the failed edge must not mask it.
	if st.ConfirmsSent != 1 {
		t.Errorf("ConfirmsSent = %d, want 1", st.ConfirmsSent)
	}
}

// queueStore buffers edges on top of a mem store until Flush delivers
// them, like the real BatchWriter but deterministic.
type queueStore struct {
	*trajstore.Store

	mu      sync.Mutex
	queued  []trajstore.Edge
	dones   []func(error)
	flushes int
}

func (s *queueStore) QueueEdgeTraced(from, to int64, weight float64, tc protocol.TraceContext, done func(error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queued = append(s.queued, trajstore.Edge{From: from, To: to, Weight: weight})
	s.dones = append(s.dones, done)
}

func (s *queueStore) Flush(ctx context.Context) error {
	s.mu.Lock()
	edges, dones := s.queued, s.dones
	s.queued, s.dones = nil, nil
	s.flushes++
	s.mu.Unlock()
	for i, e := range edges {
		err := s.Store.AddEdge(e.From, e.To, e.Weight)
		if dones[i] != nil {
			dones[i](err)
		}
	}
	return nil
}

// TestBatchedEdgePathAccounting proves a store that defers the edge
// result still feeds the accounting when the result lands, and that
// FlushContext drains the buffer.
func TestBatchedEdgePathAccounting(t *testing.T) {
	bus := transport.NewBus()
	base := trajstore.NewMemStore()
	store := &queueStore{Store: base}
	a := newTestNode(t, bus, "camA", nodeConfig("camA", store))
	b := newTestNode(t, bus, "camB", nodeConfig("camB", store))
	a.Topology().ApplyUpdate(protocol.TopologyUpdate{
		CameraID: "camA",
		Version:  1,
		MDCS: map[geo.Direction][]protocol.CameraRef{
			geo.East: {{ID: "camB", Addr: "camB"}},
		},
	})

	driveVehicleThrough(t, a, "veh-1", imaging.Red, 0)
	driveVehicleThrough(t, b, "veh-1", imaging.Red, 100)

	// The edge is queued, not yet delivered: re-id already counted, edge
	// accounting deferred until the batch lands.
	if st := b.Stats(); st.ReidMatches != 1 || st.EdgesInserted != 0 {
		t.Fatalf("pre-flush stats: matches=%d edges=%d, want 1/0", st.ReidMatches, st.EdgesInserted)
	}
	if base.NumEdges() != 0 {
		t.Fatalf("edge landed before flush: %d", base.NumEdges())
	}

	if err := b.FlushContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if store.flushes == 0 {
		t.Fatal("FlushContext never flushed the store")
	}
	if base.NumEdges() != 1 {
		t.Errorf("edges after flush = %d, want 1", base.NumEdges())
	}
	if st := b.Stats(); st.EdgesInserted != 1 || st.SendErrors != 0 {
		t.Errorf("post-flush stats: edges=%d sendErrors=%d, want 1/0", st.EdgesInserted, st.SendErrors)
	}
}

// TestExpiredPoolEntriesFinishSpans proves the handoff span leak fix:
// informs that never match are finished with outcome=expired when the
// pool evicts them, instead of staying open forever.
func TestExpiredPoolEntriesFinishSpans(t *testing.T) {
	bus := transport.NewBus()
	cfg := nodeConfig("excam", trajstore.NewMemStore())
	const poolBound = 256 // the prototype's candidate-pool bound
	tracer := obs.NewTracerWith(obs.TracerConfig{Clock: clock.Fixed{T: epoch}, Capacity: 2 * poolBound})
	cfg.Tracer = tracer
	n := newTestNode(t, bus, "excam", cfg)

	for i := 0; i < poolBound+1; i++ {
		n.handleInform(context.Background(), protocol.Inform{Event: informEvent(fmt.Sprintf("up#%d", i)), FromAddr: "up"})
	}

	// poolBound+1 spans began; inserting the last pushed the pool over
	// its bound, expiring the oldest unmatched entry.
	if got := tracer.ActiveCount(); got != poolBound {
		t.Errorf("active spans = %d, want %d (one expired)", got, poolBound)
	}
	if got := tracer.Finished(); got != 1 {
		t.Fatalf("finished spans = %d, want 1", got)
	}
	spans := tracer.Recent()
	if len(spans) != 1 {
		t.Fatalf("recent spans = %d", len(spans))
	}
	sp := spans[0]
	if sp.Trace != "up#0" {
		t.Errorf("expired span trace = %q, want the oldest inform", sp.Trace)
	}
	found := false
	for _, l := range sp.Attrs {
		if l.Name == "outcome" && l.Value == "expired" {
			found = true
		}
	}
	if !found {
		t.Errorf("span attrs = %v, want outcome=expired", sp.Attrs)
	}
}
