package rpc

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// silentPeer starts a listener that accepts connections and never reads
// or answers them, and returns its address. Cleanup closes everything.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String()
}

// TestClientConnCloseFailsBlockedCall: Close closes the socket under a
// call blocked writing to a peer that never reads, so the call fails
// within 100ms of Close instead of at its own deadline.
func TestClientConnCloseFailsBlockedCall(t *testing.T) {
	cc := NewClientConn(silentPeer(t), BackoffConfig{})
	writing := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- cc.Call(ctx, func(conn net.Conn) error {
			close(writing)
			// Far more than the socket buffers hold: the write blocks.
			_, err := conn.Write(make([]byte, 64<<20))
			return err
		})
	}()
	<-writing
	time.Sleep(200 * time.Millisecond) // let the write fill the buffers and block
	start := time.Now()
	closed := make(chan struct{})
	go func() { _ = cc.Close(); close(closed) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a call blocked on a silent peer succeeded")
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("blocked call failed %v after Close, want within 100ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not fail the call blocked on its socket")
	}
	<-closed
}

// TestClientConnCloseStopsDialInBackoff: Close ends a call waiting out
// its dial backoff at once, with net.ErrClosed.
func TestClientConnCloseStopsDialInBackoff(t *testing.T) {
	// Reserve an address, then free it so every dial is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	cc := NewClientConn(addr, BackoffConfig{Base: time.Hour, Max: time.Hour})
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		done <- cc.Call(ctx, func(net.Conn) error { return nil })
	}()
	time.Sleep(200 * time.Millisecond) // the first dial is refused; the call sleeps
	start := time.Now()
	go func() { _ = cc.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("call after Close stopped its dial: %v, want net.ErrClosed", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("dial stopped %v after Close", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not stop the dial in backoff")
	}
}

// TestClientConnCallAfterCloseFails: Close is final. A later Call fails
// with net.ErrClosed and neither dials nor runs its function.
func TestClientConnCallAfterCloseFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	dials := 0
	cc := NewClientConn(ln.Addr().String(), BackoffConfig{OnDial: func() { dials++ }})
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}
	ran := false
	err = cc.Call(context.Background(), func(net.Conn) error { ran = true; return nil })
	if !errors.Is(err, net.ErrClosed) {
		t.Errorf("Call after Close: %v, want net.ErrClosed", err)
	}
	if ran || dials != 0 {
		t.Errorf("Call after Close ran its function (%v) or dialed (%d times)", ran, dials)
	}
	if err := cc.Prime(context.Background()); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Prime after Close: %v, want net.ErrClosed", err)
	}
	if err := cc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
