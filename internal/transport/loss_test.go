package transport

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/protocol"
	"repro/internal/rpc/faultinject"
)

// TestSetLossRateValidation checks InjectFaults' range on the drop
// rate; a zero rate clears the loss model.
func TestSetLossRateValidation(t *testing.T) {
	bus := NewBus()
	if err := bus.InjectFaults(faultinject.Config{DropRate: -0.1, RNG: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("negative rate accepted")
	}
	if err := bus.InjectFaults(faultinject.Config{DropRate: 1.0, RNG: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("rate 1.0 accepted")
	}
	if err := bus.InjectFaults(faultinject.Config{}); err != nil {
		t.Errorf("disabling loss: %v", err)
	}
}

func TestLossRateDropsApproximately(t *testing.T) {
	sim := des.New(time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC))
	bus := NewSimBus(sim, time.Millisecond)
	if err := bus.InjectFaults(faultinject.Config{DropRate: 0.3, RNG: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
	a, err := bus.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	b.SetHandler(func(context.Context, protocol.Envelope) { received++ })
	const n = 2000
	env, err := protocol.Seal(protocol.Retire{EventID: "x#1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), "b", env); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	rate := float64(n-received) / n
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("observed loss %v, want ~0.3", rate)
	}
	if bus.Dropped() != int64(n-received) {
		t.Errorf("Dropped() = %d, want %d", bus.Dropped(), n-received)
	}
}
