package framestore

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
	"repro/internal/transport"
)

// replicaRig wires n framestore servers on one bus and returns their
// stores plus a camera endpoint.
func replicaRig(t *testing.T, n int) (*transport.Bus, []string, []*Store, transport.Endpoint) {
	t.Helper()
	bus := transport.NewBus()
	addrs := make([]string, n)
	stores := make([]*Store, n)
	for i := 0; i < n; i++ {
		addrs[i] = []string{"fs-a", "fs-b", "fs-c"}[i]
		ep, err := bus.Endpoint(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		if _, err := NewServer(st, ep); err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	cam, err := bus.Endpoint("cam1")
	if err != nil {
		t.Fatal(err)
	}
	return bus, addrs, stores, cam
}

func TestMultiClientReplicatesToAll(t *testing.T) {
	_, addrs, stores, cam := replicaRig(t, 3)
	mc, err := NewMultiClient(cam, addrs, MultiClientConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 5; seq++ {
		if err := mc.StoreFrameContext(context.Background(), record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range stores {
		if got := st.Count("cam1"); got != 5 {
			t.Errorf("replica %d holds %d frames, want 5", i, got)
		}
	}
}

func TestMultiClientSurvivesSingleOutage(t *testing.T) {
	bus, addrs, stores, cam := replicaRig(t, 2)
	reg := obs.NewRegistry()
	mc, err := NewMultiClient(cam, addrs, MultiClientConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := mc.StoreFrameContext(context.Background(), record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}

	// Replica 0 dies mid-run.
	bus.Partition(addrs[0])
	for seq := int64(4); seq <= 8; seq++ {
		if err := mc.StoreFrameContext(context.Background(), record("cam1", seq)); err != nil {
			t.Fatalf("put during outage: %v", err)
		}
	}
	if got := stores[0].Count("cam1"); got != 3 {
		t.Errorf("dead replica holds %d frames, want 3", got)
	}
	// Every frame reached the survivor: no evidence lost.
	if got := stores[1].Count("cam1"); got != 8 {
		t.Errorf("surviving replica holds %d frames, want all 8", got)
	}
	errs := reg.Counter("coralpie_framestore_replica_errors_total", "", "replica", addrs[0])
	if errs.Value() != 5 {
		t.Errorf("dead-replica error counter = %d, want 5", errs.Value())
	}
	ok := reg.Counter("coralpie_framestore_replica_sends_total", "", "replica", addrs[1])
	if ok.Value() != 8 {
		t.Errorf("survivor send counter = %d, want 8", ok.Value())
	}
}

func TestMultiClientQuorumFailure(t *testing.T) {
	bus, addrs, _, cam := replicaRig(t, 2)
	mc, err := NewMultiClient(cam, addrs, MultiClientConfig{
		Quorum:   2,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.StoreFrameContext(context.Background(), record("cam1", 1)); err != nil {
		t.Fatalf("both replicas up: %v", err)
	}
	bus.Partition(addrs[1])
	if err := mc.StoreFrameContext(context.Background(), record("cam1", 2)); err == nil {
		t.Fatal("quorum 2 with one dead replica must fail")
	}
}

func TestMultiClientRetriesRetryableErrors(t *testing.T) {
	_, addrs, stores, cam := replicaRig(t, 2)
	// An interceptor that fails each replica's first attempt with a
	// retryable error: the retry middleware must redial within the same
	// StoreFrameContext call.
	var mu sync.Mutex
	tried := make(map[string]bool)
	flaky := func(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
		mu.Lock()
		first := !tried[req.Addr]
		tried[req.Addr] = true
		mu.Unlock()
		if first {
			return nil, rpc.MarkRetryable(errors.New("injected"))
		}
		return next(ctx, req)
	}
	reg := obs.NewRegistry()
	mc, err := NewMultiClient(cam, addrs, MultiClientConfig{
		Quorum:       2,
		Registry:     reg,
		Interceptors: []rpc.Interceptor{flaky},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.StoreFrameContext(context.Background(), record("cam1", 1)); err != nil {
		t.Fatalf("retry did not absorb the injected failures: %v", err)
	}
	for i, st := range stores {
		if got := st.Count("cam1"); got != 1 {
			t.Errorf("replica %d holds %d frames, want 1", i, got)
		}
	}
	for _, addr := range addrs {
		r := reg.Counter("coralpie_framestore_replica_retries_total", "", "replica", addr)
		if r.Value() != 1 {
			t.Errorf("replica %s retries = %d, want 1", addr, r.Value())
		}
	}
}

func TestMultiClientCarriesTrace(t *testing.T) {
	// The in-proc bus injects the ambient span context onto envelopes;
	// replicated sends must deliver it to every replica, so frame writes
	// join the camera's ingest trace.
	bus := transport.NewBus()
	got := make([]*obs.SpanContext, 0, 2)
	for _, addr := range []string{"fs-a", "fs-b"} {
		ep, err := bus.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		ep.SetHandler(func(ctx context.Context, env protocol.Envelope) {
			if sc, ok := obs.SpanFromContext(ctx); ok {
				got = append(got, &sc)
			} else {
				got = append(got, nil)
			}
		})
	}
	cam, err := bus.Endpoint("cam1")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := NewMultiClient(cam, []string{"fs-a", "fs-b"}, MultiClientConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.ContextWithSpan(context.Background(),
		obs.SpanContext{TraceID: "trace-1", SpanID: "span-1", Sampled: true})
	if err := mc.StoreFrameContext(ctx, record("cam1", 1)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered to %d replicas, want 2", len(got))
	}
	for i, sc := range got {
		if sc == nil || sc.TraceID != "trace-1" {
			t.Errorf("replica %d: trace context %+v, want trace-1", i, sc)
		}
	}
}

func TestMultiClientValidation(t *testing.T) {
	bus := transport.NewBus()
	ep, err := bus.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiClient(nil, []string{"a"}, MultiClientConfig{}); err == nil {
		t.Error("nil endpoint accepted")
	}
	if _, err := NewMultiClient(ep, nil, MultiClientConfig{}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := NewMultiClient(ep, []string{""}, MultiClientConfig{}); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := NewMultiClient(ep, []string{"a"}, MultiClientConfig{Quorum: 2}); err == nil {
		t.Error("quorum above replica count accepted")
	}
	mc, err := NewMultiClient(ep, []string{"a", "b"}, MultiClientConfig{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.Replicas(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Replicas() = %v", got)
	}
}
