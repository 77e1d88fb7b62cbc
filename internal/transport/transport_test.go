package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/protocol"
)

func retireEnv(t *testing.T, id string) protocol.Envelope {
	t.Helper()
	env, err := protocol.Seal(protocol.Retire{EventID: protocol.EventID(id)})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// kept gives env a payload of its own, for a test handler that keeps the
// envelope past its return (the payload is valid only until then).
func kept(env protocol.Envelope) protocol.Envelope {
	env.Payload = bytes.Clone(env.Payload)
	return env
}

func TestBusSynchronousDelivery(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var got []protocol.Envelope
	b.SetHandler(func(_ context.Context, env protocol.Envelope) { got = append(got, kept(env)) })
	if err := a.Send(context.Background(), "b", retireEnv(t, "x#1")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != protocol.TypeRetire {
		t.Errorf("got %v", got)
	}
}

func TestBusDuplicateEndpoint(t *testing.T) {
	bus := NewBus()
	if _, err := bus.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Endpoint("a"); err == nil {
		t.Error("duplicate endpoint should error")
	}
	if _, err := bus.Endpoint(""); err == nil {
		t.Error("empty name should error")
	}
}

func TestBusUnknownAddress(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "ghost", retireEnv(t, "x#1")); !errors.Is(err, ErrUnknownAddress) {
		t.Errorf("want ErrUnknownAddress, got %v", err)
	}
}

func TestBusNoHandler(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), "b", retireEnv(t, "x#1")); !errors.Is(err, ErrNoHandler) {
		t.Errorf("want ErrNoHandler, got %v", err)
	}
}

func TestBusClosedEndpoint(t *testing.T) {
	bus := NewBus()
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	b.SetHandler(func(context.Context, protocol.Envelope) {})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Send(context.Background(), "b", retireEnv(t, "x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	// Sending to a closed endpoint fails with unknown address.
	if err := b.Send(context.Background(), "a", retireEnv(t, "y")); !errors.Is(err, ErrUnknownAddress) {
		t.Errorf("send to closed: %v", err)
	}
}

func TestSimBusLatency(t *testing.T) {
	sim := des.New(time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC))
	bus := NewSimBus(sim, 10*time.Millisecond)
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var deliveredAt time.Duration = -1
	b.SetHandler(func(context.Context, protocol.Envelope) { deliveredAt = sim.Now() })
	if err := a.Send(context.Background(), "b", retireEnv(t, "x")); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != -1 {
		t.Error("delivery should be deferred to the simulator")
	}
	sim.Run()
	if deliveredAt != 10*time.Millisecond {
		t.Errorf("delivered at %v, want 10ms", deliveredAt)
	}
}

// TestSimBusPayloadOwnedInFlight: Send keeps no payload, so a message in
// flight on the simulated wire carries a copy of its own and the sender
// may reuse its buffer at once.
func TestSimBusPayloadOwnedInFlight(t *testing.T) {
	sim := des.New(time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC))
	bus := NewSimBus(sim, 10*time.Millisecond)
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	b.SetHandler(func(_ context.Context, env protocol.Envelope) { got = bytes.Clone(env.Payload) })
	env := retireEnv(t, "x#1")
	want := bytes.Clone(env.Payload)
	if err := a.Send(context.Background(), "b", env); err != nil {
		t.Fatal(err)
	}
	clear(env.Payload) // the sender reuses its buffer while the message is in flight
	sim.Run()
	if !bytes.Equal(got, want) {
		t.Errorf("delivered %q, want %q", got, want)
	}
}

func TestSimBusInFlightMessageToFailedEndpoint(t *testing.T) {
	sim := des.New(time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC))
	bus := NewSimBus(sim, 10*time.Millisecond)
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	delivered := false
	b.SetHandler(func(context.Context, protocol.Envelope) { delivered = true })
	if err := a.Send(context.Background(), "b", retireEnv(t, "x")); err != nil {
		t.Fatal(err)
	}
	bus.Partition("b") // b dies while the message is in flight
	sim.Run()
	if delivered {
		t.Error("message delivered to a failed endpoint")
	}
}

func TestTCPRoundTrip(t *testing.T) {
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

	var mu sync.Mutex
	var got []protocol.Envelope
	done := make(chan struct{}, 16)
	b.SetHandler(func(_ context.Context, env protocol.Envelope) {
		mu.Lock()
		got = append(got, kept(env))
		mu.Unlock()
		done <- struct{}{}
	})

	for i := 0; i < 3; i++ {
		if err := a.Send(context.Background(), b.Addr(), retireEnv(t, "x#1")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for delivery")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Errorf("got %d messages", len(got))
	}
}

// TestTCPCountsUndecodableEnvelope: an envelope in the all-JSON form older
// senders wrote closes its connection and is counted in
// coralpie_transport_decode_errors_total; a binary envelope on a new
// connection is delivered.
func TestTCPCountsUndecodableEnvelope(t *testing.T) {
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	reg := obs.NewRegistry()
	b.Use(reg)
	got := make(chan protocol.Envelope, 1)
	b.SetHandler(func(_ context.Context, env protocol.Envelope) { got <- kept(env) })
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.DialTimeout("tcp", b.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	legacy := dial()
	defer func() { _ = legacy.Close() }()
	jsonEnv := map[string]any{"type": protocol.TypeRetire, "payload": map[string]any{"eventId": "x#1"}}
	if err := protocol.WriteFrame(legacy, jsonEnv, protocol.MaxFrameBytes); err != nil {
		t.Fatal(err)
	}
	_ = legacy.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := legacy.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("connection after a JSON envelope: read %v, want the endpoint to close it", err)
	}

	current := dial()
	defer func() { _ = current.Close() }()
	if err := protocol.WriteEnvelope(current, retireEnv(t, "x#2")); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if msg, err := protocol.Open(env); err != nil || msg.(protocol.Retire).EventID != "x#2" {
			t.Errorf("delivered %+v, %v; want retire x#2", msg, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("binary envelope not delivered")
	}
	if n := reg.Counter("coralpie_transport_decode_errors_total", "", "transport", "tcp").Value(); n != 1 {
		t.Errorf("decode errors = %d, want 1", n)
	}
}

func TestTCPBidirectional(t *testing.T) {
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

	gotA := make(chan protocol.Envelope, 1)
	gotB := make(chan protocol.Envelope, 1)
	a.SetHandler(func(_ context.Context, env protocol.Envelope) { gotA <- kept(env) })
	b.SetHandler(func(_ context.Context, env protocol.Envelope) { gotB <- kept(env) })

	if err := a.Send(context.Background(), b.Addr(), retireEnv(t, "to-b#1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(context.Background(), a.Addr(), retireEnv(t, "to-a#1")); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan protocol.Envelope{gotA, gotB} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out")
		}
	}
}

func TestTCPSendToDeadPeerFails(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	dead, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	// The dialer retries with backoff until the context expires, so bound
	// the attempt explicitly.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := a.Send(ctx, deadAddr, retireEnv(t, "x")); err == nil {
		t.Error("send to dead peer should eventually error")
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()

	b1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	got := make(chan protocol.Envelope, 8)
	b1.SetHandler(func(_ context.Context, env protocol.Envelope) { got <- kept(env) })
	if err := a.Send(context.Background(), addr, retireEnv(t, "first#1")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("first message not delivered")
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the peer on the same address.
	b2, err := ListenTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b2.Close() }()
	b2.SetHandler(func(_ context.Context, env protocol.Envelope) { got <- kept(env) })

	// The cached connection is stale; Send must redial. The first send
	// may or may not detect staleness immediately (TCP buffering), so try
	// a few times.
	delivered := false
	for i := 0; i < 10 && !delivered; i++ {
		_ = a.Send(context.Background(), addr, retireEnv(t, "second#1"))
		select {
		case <-got:
			delivered = true
		case <-time.After(300 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("message not delivered after peer restart")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Send(context.Background(), "127.0.0.1:1", retireEnv(t, "x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	recv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	var count sync.WaitGroup
	const total = 40
	count.Add(total)
	recv.SetHandler(func(context.Context, protocol.Envelope) { count.Done() })

	sender, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sender.Close() }()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < total/4; j++ {
				if err := sender.Send(context.Background(), recv.Addr(), retireEnv(t, "c#1")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	done := make(chan struct{})
	go func() {
		count.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("not all concurrent messages arrived")
	}
}
