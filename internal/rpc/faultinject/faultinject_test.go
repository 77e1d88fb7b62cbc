package faultinject

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/rpc"
)

func ok(ctx context.Context, r *rpc.Request) (*rpc.Response, error) {
	return &rpc.Response{}, nil
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{DropRate: 1.0},
		{DropRate: -0.1},
		{ErrorRate: 1.5},
		{Latency: -time.Millisecond},
		{LatencyJitter: -time.Millisecond},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(Config{DropRate: 0.5, Latency: time.Millisecond}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, cfg := range []Config{
		{DropRate: 0.1}, {ErrorRate: 0.1}, {Latency: time.Millisecond}, {LatencyJitter: time.Millisecond},
	} {
		if !cfg.Enabled() {
			t.Errorf("config %+v reports disabled", cfg)
		}
	}
}

// TestDeterministicDropSequence requires two same-seed middlewares to
// drop exactly the same messages: fault injection must be a pure
// function of the seed and the message order.
func TestDeterministicDropSequence(t *testing.T) {
	drops := func() []int {
		var dropped []int
		i := 0
		ic, err := New(Config{RNG: rand.New(rand.NewSource(9)), DropRate: 0.3, OnDrop: func() { dropped = append(dropped, i) }})
		if err != nil {
			t.Fatal(err)
		}
		for ; i < 200; i++ {
			if _, err := ic(context.Background(), &rpc.Request{OneWay: true}, ok); err != nil {
				t.Fatal(err)
			}
		}
		return dropped
	}
	a, b := drops(), drops()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("degenerate drop count %d/200 at rate 0.3", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same-seed runs dropped %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop sequences diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDropSemantics(t *testing.T) {
	// Force a drop with rate just under 1.
	ic, err := New(Config{RNG: rand.New(rand.NewSource(1)), DropRate: 0.999999})
	if err != nil {
		t.Fatal(err)
	}
	// One-way: silently swallowed, like a lost datagram.
	resp, err := ic(context.Background(), &rpc.Request{Method: "hb", OneWay: true}, func(ctx context.Context, r *rpc.Request) (*rpc.Response, error) {
		t.Error("dropped one-way message still reached the base handler")
		return &rpc.Response{}, nil
	})
	if err != nil || resp == nil {
		t.Fatalf("one-way drop: resp=%v err=%v, want silent success", resp, err)
	}
	// Request/response: the caller awaits a reply, so the drop surfaces.
	if _, err := ic(context.Background(), &rpc.Request{Method: "add_edge"}, ok); !errors.Is(err, ErrInjected) {
		t.Errorf("req/resp drop err = %v, want ErrInjected", err)
	}
}

func TestErrorInjection(t *testing.T) {
	ic, err := New(Config{RNG: rand.New(rand.NewSource(1)), ErrorRate: 0.999999})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic(context.Background(), &rpc.Request{Method: "m", OneWay: true}, ok); !errors.Is(err, ErrInjected) {
		t.Errorf("err = %v, want ErrInjected", err)
	}
}

func TestLatencyRidesRequestDelay(t *testing.T) {
	ic, err := New(Config{Latency: 3 * time.Millisecond, LatencyJitter: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	req := &rpc.Request{Method: "m", OneWay: true}
	var seen time.Duration
	if _, err := ic(context.Background(), req, func(ctx context.Context, r *rpc.Request) (*rpc.Response, error) {
		seen = r.Delay
		return &rpc.Response{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen < 3*time.Millisecond || seen >= 5*time.Millisecond {
		t.Errorf("injected delay = %v, want in [3ms, 5ms)", seen)
	}
}
