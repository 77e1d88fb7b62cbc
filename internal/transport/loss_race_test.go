package transport

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc/faultinject"
)

// TestDroppedCounterConcurrent hammers Send from many goroutines while
// InjectFaults flips the loss model on and off and Dropped is polled —
// the exact interleaving the simulation harness produces when a sweep
// reconfigures loss mid-run. Run under -race; it also checks the
// counter-backed accounting: every message is either delivered or
// counted as dropped, with nothing lost twice.
func TestDroppedCounterConcurrent(t *testing.T) {
	bus := NewBus()
	reg := obs.NewRegistry()
	bus.Use(reg)

	sink, err := bus.Endpoint("sink")
	if err != nil {
		t.Fatal(err)
	}
	var deliveredMu sync.Mutex
	delivered := 0
	sink.SetHandler(func(context.Context, protocol.Envelope) {
		deliveredMu.Lock()
		delivered++
		deliveredMu.Unlock()
	})

	env, err := protocol.Seal(protocol.Retire{EventID: "x#1"})
	if err != nil {
		t.Fatal(err)
	}

	const (
		senders    = 8
		perSender  = 500
		totalSends = senders * perSender
	)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ep, err := bus.Endpoint(string(rune('a' + s)))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perSender; i++ {
				if err := ep.Send(context.Background(), "sink", env); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	// Concurrently flip the loss model and poll the counter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			if err := bus.InjectFaults(faultinject.Config{DropRate: 0.5, RNG: rng}); err != nil {
				t.Error(err)
				return
			}
			_ = bus.Dropped()
			if err := bus.InjectFaults(faultinject.Config{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	deliveredMu.Lock()
	got := delivered
	deliveredMu.Unlock()
	dropped := bus.Dropped()
	if int64(got)+dropped != totalSends {
		t.Fatalf("delivered %d + dropped %d != sent %d", got, dropped, totalSends)
	}

	// Deterministic tail: with loss pinned at ~1, sends must be counted
	// as dropped, and the counter must move.
	if err := bus.InjectFaults(faultinject.Config{DropRate: 0.99, RNG: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
	ep, err := bus.Endpoint("tail")
	if err != nil {
		t.Fatal(err)
	}
	const tail = 200
	for i := 0; i < tail; i++ {
		if err := ep.Send(context.Background(), "sink", env); err != nil {
			t.Fatal(err)
		}
	}
	deliveredMu.Lock()
	got = delivered
	deliveredMu.Unlock()
	dropped = bus.Dropped()
	if int64(got)+dropped != totalSends+tail {
		t.Fatalf("delivered %d + dropped %d != sent %d", got, dropped, totalSends+tail)
	}
	if dropped == 0 {
		t.Error("expected the loss model to drop at least one message")
	}

	// The registry-backed counters must agree with the bus's view.
	var lost, sends int64
	for _, fam := range reg.Snapshot().Families {
		switch fam.Name {
		case "coralpie_transport_lost_total":
			lost = fam.Metrics[0].Value
		case "coralpie_transport_sends_total":
			sends = fam.Metrics[0].Value
		}
	}
	if lost != dropped {
		t.Errorf("registry lost = %d, Dropped() = %d", lost, dropped)
	}
	if sends != totalSends+tail {
		t.Errorf("registry sends = %d, want %d", sends, totalSends+tail)
	}
}
