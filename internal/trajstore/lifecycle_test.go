package trajstore

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestClientRecoversAcrossServerRestart is the mid-stream restart
// scenario: the client has a live cached connection, the server dies and
// comes back on the same address, and the client's next calls must
// redial (with backoff, riding out the downtime) and keep working.
func TestClientRecoversAcrossServerRestart(t *testing.T) {
	store := NewMemStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	client, err := DialContext(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	if _, err := client.AddVertexContext(context.Background(), event("cam-1#1")); err != nil {
		t.Fatalf("add before restart: %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close server: %v", err)
	}

	// Restart on the same address after a short outage, while the client
	// is already retrying.
	restarted := make(chan *Server, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv2, err := Serve(store, addr)
		if err != nil {
			return // port raced away; the call below fails and reports it
		}
		restarted <- srv2
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The first call may burn its retry discovering the stale cached
	// connection before the listener is back; keep calling within the
	// outage budget like a camera node would.
	var lastErr error
	recovered := false
	for i := 0; i < 50 && !recovered; i++ {
		if _, err := client.AddVertexContext(ctx, event(fmt.Sprintf("cam-1#%d", i+2))); err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		recovered = true
	}
	if !recovered {
		t.Fatalf("client never recovered after server restart: %v", lastErr)
	}

	vertices, _, err := client.StatsContext(ctx)
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if vertices < 2 {
		t.Errorf("store has %d vertices, want >= 2", vertices)
	}

	select {
	case srv2 := <-restarted:
		_ = srv2.Close()
	default:
		t.Fatal("restarted server never came up")
	}
}

// TestClientCallDeadline asserts a call against an unreachable server
// fails within its context deadline instead of retrying forever.
func TestClientCallDeadline(t *testing.T) {
	store := NewMemStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client, err := DialContext(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.AddVertexContext(ctx, event("cam-1#1"))
	if err == nil {
		t.Fatal("call against a dead server should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("call took %v to respect a 400ms deadline", elapsed)
	}
}

// TestServerShutdownGraceful asserts Shutdown finishes promptly with a
// connected-but-idle client and records a drain observation.
func TestServerShutdownGraceful(t *testing.T) {
	store := NewMemStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if _, err := client.AddVertexContext(context.Background(), event("cam-1#1")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown with an idle client: %v", err)
	}
	if srv.DrainObservations() == 0 {
		t.Error("shutdown recorded no drain observation")
	}
	// Idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close after shutdown: %v", err)
	}
}
