package transport

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
)

// TestTCPSendDeadlineStalledPeer covers the write path against a peer
// that accepts connections but never drains them: once the kernel
// buffers fill, Send must fail with a deadline error within the context
// budget instead of blocking forever.
func TestTCPSendDeadlineStalledPeer(t *testing.T) {
	stalled := stalledPeer(t)
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	// Big envelopes fill the socket buffers quickly. The transport ships
	// payload bytes as they are, so their content does not matter.
	env := protocol.Envelope{Type: protocol.TypeRetire, Payload: make([]byte, 4<<20)}

	start := time.Now()
	var sendErr error
	for i := 0; i < 32; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		sendErr = a.Send(ctx, stalled, env)
		cancel()
		if sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("sends to a never-draining peer kept succeeding; write path has no deadline")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	a.mu.Lock()
	deadlines := a.m.deadlineExceeded.Value()
	a.mu.Unlock()
	if deadlines == 0 {
		t.Errorf("deadlineExceeded counter = 0, want > 0 (err: %v)", sendErr)
	}
}

// stalledPeer starts a raw listener that accepts connections and never
// reads them, and returns its address. Cleanup closes everything.
func stalledPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var connMu sync.Mutex
	var conns []net.Conn
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			connMu.Lock()
			conns = append(conns, c) // hold the conn open, never read
			connMu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-acceptDone
		connMu.Lock()
		defer connMu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String()
}

// TestTCPSlowPeerDoesNotStallOtherPeers blocks one endpoint's write to a
// peer that never drains, then requires a send from the same endpoint to
// a healthy peer to be delivered promptly: the stalled write may hold up
// only its own connection.
func TestTCPSlowPeerDoesNotStallOtherPeers(t *testing.T) {
	stalled := stalledPeer(t)
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	got := make(chan protocol.Envelope, 1)
	b.SetHandler(func(_ context.Context, env protocol.Envelope) { got <- kept(env) })

	// Keep writing 4 MiB envelopes to the stalled peer until one blocks
	// in the socket write; sendStart is when the current send began.
	var sendStart atomic.Int64
	sendStart.Store(time.Now().UnixNano())
	stallerDone := make(chan struct{})
	go func() {
		defer close(stallerDone)
		env := protocol.Envelope{Type: protocol.TypeRetire, Payload: make([]byte, 4<<20)}
		for {
			sendStart.Store(time.Now().UnixNano())
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := a.Send(ctx, stalled, env)
			cancel()
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		_ = a.Close() // fails the blocked write
		<-stallerDone
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Since(time.Unix(0, sendStart.Load())) < 300*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatal("no send to the never-draining peer ever blocked")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-stallerDone:
		t.Fatal("sends to the never-draining peer failed instead of blocking")
	default:
	}

	start := time.Now()
	if err := a.Send(context.Background(), b.Addr(), retireEnv(t, "fast#1")); err != nil {
		t.Fatalf("send to healthy peer: %v", err)
	}
	select {
	case <-got:
	case <-time.After(100*time.Millisecond - time.Since(start)):
		t.Fatalf("healthy peer's envelope not delivered within 100ms of Send while another peer stalls (took %v so far)", time.Since(start))
	}
}

// TestTCPPayloadValidUntilHandlerReturns sends 1 000 envelopes back to
// back on one connection, their sizes jumping between 1 B and 2 MiB and
// across the 1 MiB bound on the read buffer a connection keeps, both
// ways. Every handler call must see its payload byte for byte, whatever
// the envelope before it left in the buffer.
func TestTCPPayloadValidUntilHandlerReturns(t *testing.T) {
	const n = 1000
	const keep = 1 << 20 // the largest read buffer a connection keeps
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, n)
	for i := range sizes {
		switch i % 10 {
		case 0:
			sizes[i] = keep + 1 + rng.Intn(keep) // past the bound, up to 2 MiB
		case 1:
			sizes[i] = keep - 32 + rng.Intn(64) // the body straddles the bound
		case 2, 3:
			sizes[i] = 1 + rng.Intn(keep)
		default:
			sizes[i] = 1 + rng.Intn(4096)
		}
	}
	src := make([]byte, 2<<20+n)
	rng.Read(src)
	payload := func(i int) []byte { return src[i : i+sizes[i]] }

	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	var handled atomic.Int64
	done := make(chan struct{})
	b.SetHandler(func(_ context.Context, env protocol.Envelope) {
		// One connection, so calls come one at a time, in send order.
		i := int(handled.Add(1)) - 1
		if i >= n {
			t.Errorf("handler called for envelope %d of %d", i+1, n)
			return
		}
		if !bytes.Equal(env.Payload, payload(i)) {
			t.Errorf("envelope %d: %d-byte payload differs from the %d bytes sent", i, len(env.Payload), sizes[i])
		}
		if i == n-1 {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		env := protocol.Envelope{Type: protocol.TypeRetire, Payload: payload(i)}
		if err := a.Send(context.Background(), b.Addr(), env); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("handled %d of %d envelopes", handled.Load(), n)
	}
}

// TestTCPDialBackoffRidesOutRestart verifies the dialer retries with
// backoff: the destination's listener only appears after the first
// attempts have failed, and Send still succeeds within its context.
func TestTCPDialBackoffRidesOutRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	// Reserve an address, then free it so the first dials fail.
	tmp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tmp.Addr().String()
	_ = tmp.Close()

	got := make(chan protocol.Envelope, 1)
	ready := make(chan *TCP, 1)
	go func() {
		time.Sleep(400 * time.Millisecond)
		b, err := ListenTCP(addr)
		if err != nil {
			return // port raced away; Send will fail and the test reports it
		}
		b.SetHandler(func(_ context.Context, env protocol.Envelope) { got <- kept(env) })
		ready <- b
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(ctx, addr, retireEnv(t, "late#1")); err != nil {
		t.Fatalf("send across delayed listener start: %v", err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered after backoff dial")
	}
	select {
	case b := <-ready:
		_ = b.Close()
	default:
	}
}

// TestTCPShutdownDrainsAndLeaksNoGoroutines asserts the graceful
// lifecycle: Shutdown waits for an in-flight handler, and after it
// returns no transport goroutines remain.
func TestTCPShutdownDrainsAndLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	handled := make(chan struct{})
	b.SetHandler(func(ctx context.Context, env protocol.Envelope) {
		close(entered)
		<-release
		close(handled)
	})
	if err := a.Send(context.Background(), b.Addr(), retireEnv(t, "x#1")); err != nil {
		t.Fatal(err)
	}
	<-entered

	// Shutdown must block on the in-flight handler, then finish.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- b.Shutdown(ctx)
	}()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a handler was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-handled
	if b.m.drain.Count() == 0 {
		t.Error("shutdown drain histogram recorded nothing")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// All transport goroutines must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines: before=%d after=%d\n%s", before, after, buf[:n])
	}
}

// TestTCPShutdownDeadlineForcesClose covers the hard-close fallback: a
// handler that never returns cannot hold Shutdown past its context.
func TestTCPShutdownDeadlineForcesClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	b.SetHandler(func(ctx context.Context, env protocol.Envelope) {
		close(entered)
		<-ctx.Done() // only the shutdown cancellation releases this handler
	})
	if err := a.Send(context.Background(), b.Addr(), retireEnv(t, "x#1")); err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = b.Shutdown(ctx)
	if err == nil {
		t.Error("Shutdown should report the missed drain deadline")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Shutdown took %v despite a 200ms drain deadline", elapsed)
	}
}
