package trajstore

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// TestClientRecoversAcrossServerRestart is the mid-stream restart
// scenario: the client has a live cached connection, the server dies and
// comes back on the same address, and the client's next calls must
// redial (with backoff, riding out the downtime) and keep working.
func TestClientRecoversAcrossServerRestart(t *testing.T) {
	store := NewMemStore()
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
		srv2, err := ServeWith(store, addr, ServerOptions{})
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

// TestClientCloseReturnsWhileCallInFlight: Close does not wait behind a
// call to a server that accepted the connection and never answers. It
// returns at once, the call fails promptly, and a later call fails with
// net.ErrClosed.
func TestClientCloseReturnsWhileCallInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c) // never read, never answered
			mu.Unlock()
		}
	}()
	defer func() {
		_ = ln.Close()
		<-accepted
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	}()

	client, err := DialContext(context.Background(), ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	callErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := client.VertexContext(ctx, 1)
		callErr <- err
	}()
	time.Sleep(200 * time.Millisecond) // the call waits for its answer

	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- client.Close() }()
	select {
	case <-closed:
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("Close took %v with a call in flight", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited behind the call in flight")
	}
	select {
	case err := <-callErr:
		if err == nil {
			t.Error("the call to a silent server succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the call in flight did not fail after Close")
	}
	if _, err := client.VertexContext(context.Background(), 1); !errors.Is(err, net.ErrClosed) {
		t.Errorf("call after Close: %v, want net.ErrClosed", err)
	}
}

// TestClientConfigFromFlagsKeepsDialTimeout: -rpc-dial-timeout reaches
// the store client's dials.
func TestClientConfigFromFlagsKeepsDialTimeout(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := rpc.RegisterFlags(fs)
	if err := fs.Parse([]string{"-rpc-dial-timeout", "750ms"}); err != nil {
		t.Fatal(err)
	}
	if got := ClientConfigFromFlags(f).DialTimeout; got != 750*time.Millisecond {
		t.Errorf("DialTimeout = %v, want the flag's 750ms", got)
	}
}

// TestServerShutdownGraceful asserts Shutdown finishes promptly with a
// connected-but-idle client and records a drain observation.
func TestServerShutdownGraceful(t *testing.T) {
	store := NewMemStore()
	srv, err := ServeWith(store, "127.0.0.1:0", ServerOptions{})
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
