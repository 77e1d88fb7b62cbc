package trajstore

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestTraceContextSurvivesServerRestart asserts that a traced edge write
// keeps its trace context through the client's redial/retry path: the
// context is part of the request frame, not the connection, so the span
// recorded server-side after a restart is still parented to the camera's
// original span.
func TestTraceContextSurvivesServerRestart(t *testing.T) {
	store := NewMemStore()
	tracer := obs.NewTracerWith(obs.TracerConfig{Capacity: 16})
	store.UseTracer(tracer)

	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	client, err := DialContext(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	v1, err := client.AddVertexContext(context.Background(), event("cam-1#1"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := client.AddVertexContext(context.Background(), event("cam-2#1"))
	if err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close server: %v", err)
	}
	restarted := make(chan *Server, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv2, err := ServeWith(store, addr, ServerOptions{})
		if err != nil {
			return // port raced away; the call below fails and reports it
		}
		restarted <- srv2
	}()

	tc := protocol.TraceContext{
		TraceID: "cam-1#1",
		SpanID:  "cam-1-7",
		Sampled: true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var lastErr error
	recovered := false
	for i := 0; i < 50 && !recovered; i++ {
		_, errs, err := client.AddBatchContext(ctx, []protocol.TrajWrite{protocol.EdgeWrite(v1, v2, 12.5).WithTrace(tc)})
		if err == nil {
			err = errs[0]
		}
		if err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		recovered = true
	}
	if !recovered {
		t.Fatalf("traced edge write never recovered after restart: %v", lastErr)
	}

	var commit *obs.Span
	for _, sp := range tracer.Recent() {
		if sp.Name == "wal_commit" && sp.Trace == "cam-1#1" {
			cp := sp
			commit = &cp
		}
	}
	if commit == nil {
		t.Fatalf("no wal_commit span recorded; spans: %+v", tracer.Recent())
	}
	if commit.ParentID != "cam-1-7" {
		t.Fatalf("wal_commit parent = %q, want cam-1-7", commit.ParentID)
	}

	select {
	case srv2 := <-restarted:
		_ = srv2.Close()
	default:
		t.Fatal("restarted server never came up")
	}
}

// TestBatchWriterCarriesTrace asserts QueueEdgeTraced attaches the trace
// context to the batch record so the store's group commit records a
// wal_commit span parented to the caller's commit span.
func TestBatchWriterCarriesTrace(t *testing.T) {
	store := NewMemStore()
	tracer := obs.NewTracerWith(obs.TracerConfig{Capacity: 16})
	store.UseTracer(tracer)

	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	w := NewBatchWriter(client, BatchWriterConfig{})
	defer func() { _ = w.Close() }()

	v1, err := w.AddVertex(event("cam-1#1"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := w.AddVertex(event("cam-2#1"))
	if err != nil {
		t.Fatal(err)
	}

	tc := protocol.TraceContext{TraceID: "cam-1#1", SpanID: "cam-1-9", Sampled: true}
	done := make(chan error, 1)
	w.QueueEdgeTraced(v1, v2, 3.5, tc, func(err error) { done <- err })
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued traced edge: %v", err)
	}

	found := false
	for _, sp := range tracer.Recent() {
		if sp.Name == "wal_commit" && sp.Trace == "cam-1#1" && sp.ParentID == "cam-1-9" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no wal_commit span for batched traced edge; spans: %+v", tracer.Recent())
	}
}
