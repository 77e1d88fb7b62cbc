package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
	"repro/internal/rpc/faultinject"
)

// Bus is an in-process network. Endpoints register by name; Send routes
// envelopes through the same rpc middleware chain as the TCP transport
// (metrics, trace inject, fault injection) to the destination's
// handler, either synchronously or — when the bus is attached to a
// discrete-event simulator — after a simulated network latency.
type Bus struct {
	mu        sync.Mutex
	endpoints map[string]*busEndpoint
	parted    map[string]*busEndpoint
	sim       *des.Simulator
	latency   time.Duration
	faults    rpc.Interceptor
	// rngMu serializes draws from a caller-supplied fault RNG across the
	// successive fault middlewares built from it (see InjectFaults).
	rngMu sync.Mutex
	m     *endpointMetrics

	// send is the send chain, bound once around transmit. Its fault
	// stage reads the current interceptor per message, so fault
	// injection can be (re)configured on a live bus.
	send rpc.Handler
}

// NewBus returns a bus that delivers synchronously (zero latency) on the
// caller's goroutine.
func NewBus() *Bus { return NewSimBus(nil, 0) }

// NewSimBus returns a bus that schedules deliveries on the simulator,
// latency after each send. All endpoint handlers then run on the
// simulator's goroutine, which is what makes large-scale experiments
// deterministic. A nil sim delivers synchronously, like NewBus.
func NewSimBus(sim *des.Simulator, latency time.Duration) *Bus {
	b := &Bus{
		endpoints: make(map[string]*busEndpoint),
		parted:    make(map[string]*busEndpoint),
		sim:       sim,
		latency:   latency,
		m:         newEndpointMetrics(nil, "bus"),
	}
	b.send = rpc.Bind(b.transmit, b.countSend, rpc.WithTraceInject(), b.faultStage)
	return b
}

// Use re-homes the bus's telemetry onto reg (coralpie_transport_* with
// transport="bus", plus per-peer send counters). Call before traffic
// flows; counts accumulated on the previous handles do not carry over.
func (b *Bus) Use(reg *obs.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m = newEndpointMetrics(reg, "bus")
}

// Endpoint registers (or returns an error for a duplicate) endpoint name.
func (b *Bus) Endpoint(name string) (Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("transport: empty endpoint name")
	}
	if _, ok := b.endpoints[name]; ok {
		return nil, fmt.Errorf("transport: endpoint %q already registered", name)
	}
	if _, ok := b.parted[name]; ok {
		return nil, fmt.Errorf("transport: endpoint %q is partitioned, not free", name)
	}
	ep := &busEndpoint{bus: b, name: name}
	b.endpoints[name] = ep
	return ep, nil
}

// Partition detaches the named endpoint from the bus without closing
// it, simulating a network or camera failure: subsequent sends to it
// fail, and sends from it fail too — a failed camera neither receives
// nor emits traffic (in particular, its heartbeats stop reaching the
// topology server and the fleet monitor). The endpoint is parked, not
// destroyed; Heal reattaches it with its handler intact.
func (b *Bus) Partition(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ep, ok := b.endpoints[name]; ok {
		delete(b.endpoints, name)
		b.parted[name] = ep
	}
}

// Heal reattaches a partitioned endpoint, simulating a node or link
// recovery: traffic to and from it flows again and its handler is the
// one it had at partition time. Healing a name that was never
// partitioned (or was closed for good) is an error.
func (b *Bus) Heal(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep, ok := b.parted[name]
	if !ok {
		return fmt.Errorf("transport: endpoint %q is not partitioned", name)
	}
	delete(b.parted, name)
	b.endpoints[name] = ep
	return nil
}

// Attached reports whether the endpoint is currently on the bus (it
// exists and is not partitioned). The fleet health plane uses this to
// decide whether a simulated node's heartbeat can reach the monitor.
func (b *Bus) Attached(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.endpoints[name]
	return ok
}

// remove drops the endpoint entirely (attached or parked); Close uses
// it so a closed endpoint's name cannot be healed back.
func (b *Bus) remove(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.endpoints, name)
	delete(b.parted, name)
}

// InjectFaults installs deterministic fault injection (drop, latency,
// error) on every send through the bus, replacing any previous fault
// middleware; a valid config with no enabled fault clears it. Dropped
// messages are counted in Dropped() and coralpie_transport_lost_total.
func (b *Bus) InjectFaults(cfg faultinject.Config) error {
	user := cfg.OnDrop
	cfg.OnDrop = func() {
		b.countDrop()
		if user != nil {
			user()
		}
	}
	if cfg.RNG != nil {
		// A send still running the middleware this call replaces draws
		// from the same RNG as one running the new middleware, and each
		// middleware locks only its own draws. The wrapper draws the
		// identical sequence, one bus-wide lock around each draw.
		cfg.RNG = rand.New(lockedSource{mu: &b.rngMu, rng: cfg.RNG})
	}
	ic, err := faultinject.New(cfg)
	if err != nil {
		return err
	}
	if !cfg.Enabled() {
		ic = nil
	}
	b.mu.Lock()
	b.faults = ic
	b.mu.Unlock()
	return nil
}

// lockedSource is a rand.Source drawing from rng under mu.
type lockedSource struct {
	mu  *sync.Mutex
	rng *rand.Rand
}

func (s lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Int63()
}

func (s lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng.Seed(seed)
}

// Dropped returns how many messages fault injection has discarded. The
// count is backed by the bus's telemetry counter, so it is also exported
// as coralpie_transport_lost_total once a registry is attached.
func (b *Bus) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m.lost.Value()
}

func (b *Bus) countDrop() {
	b.mu.Lock()
	m := b.m
	b.mu.Unlock()
	m.lost.Inc()
}

// countSend counts every message entering the bus — including ones the
// fault stage then drops, matching the loss model's historical
// accounting (a dropped datagram was still sent).
func (b *Bus) countSend(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
	env := req.Body.(*protocol.Envelope)
	b.mu.Lock()
	m := b.m
	m.sends.Inc()
	m.bytesOut.Add(int64(len(env.Payload)))
	peer := m.peer("bus", req.Addr)
	b.mu.Unlock()
	if peer != nil {
		peer.Inc()
	}
	return next(ctx, req)
}

// faultStage applies the currently installed fault middleware, if any.
func (b *Bus) faultStage(ctx context.Context, req *rpc.Request, next rpc.Handler) (*rpc.Response, error) {
	b.mu.Lock()
	f := b.faults
	b.mu.Unlock()
	if f == nil {
		return next(ctx, req)
	}
	return f(ctx, req, next)
}

// transmit is the base handler under the send chain: route to the
// destination handler, now or on the simulator.
func (b *Bus) transmit(ctx context.Context, req *rpc.Request) (*rpc.Response, error) {
	env := *req.Body.(*protocol.Envelope)
	to := req.Addr
	b.mu.Lock()
	m := b.m
	ep, ok := b.endpoints[to]
	var serve rpc.Handler
	if ok {
		serve = ep.serve
	}
	sim := b.sim
	latency := b.latency
	b.mu.Unlock()

	if !ok {
		m.sendErrors.Inc()
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddress, to)
	}
	if serve == nil {
		m.sendErrors.Inc()
		return nil, fmt.Errorf("%w: %q", ErrNoHandler, to)
	}
	if sim == nil {
		if err := rpc.Sleep(ctx, req.Delay); err != nil {
			return nil, err
		}
		m.delivered.Inc()
		deliver(ctx, serve, env)
		return &rpc.Response{}, nil
	}
	// The message is in flight after Send returns, which keeps no payload:
	// it travels with a copy of its own.
	env.Payload = bytes.Clone(env.Payload)
	sim.Schedule(latency+req.Delay, func() {
		// Re-check at delivery time: the endpoint may have failed while
		// the message was in flight. The sender's context does not travel
		// with the simulated in-flight message (it may be done by the
		// time the message lands), so delivery runs under Background —
		// only the envelope's trace context crosses the simulated wire.
		b.mu.Lock()
		cur, stillThere := b.endpoints[to]
		var serve rpc.Handler
		if stillThere {
			serve = cur.serve
		}
		b.mu.Unlock()
		if serve != nil {
			m.delivered.Inc()
			deliver(context.Background(), serve, env)
		}
	})
	return &rpc.Response{}, nil
}

// busEndpoint is one name on a Bus. Its handler runs under the same
// inbound chain (trace extraction) as a TCP handler.
type busEndpoint struct {
	bus    *Bus
	name   string
	mu     sync.Mutex
	closed bool

	serve rpc.Handler // the installed handler bound in the inbound chain
}

var _ Endpoint = (*busEndpoint)(nil)

func (e *busEndpoint) Addr() string { return e.name }

func (e *busEndpoint) SetHandler(h Handler) {
	serve := bindHandler(h)
	e.bus.mu.Lock()
	defer e.bus.mu.Unlock()
	e.serve = serve
}

func (e *busEndpoint) Send(ctx context.Context, addr string, env protocol.Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !e.bus.Attached(e.name) {
		return fmt.Errorf("%w: %q is partitioned", ErrClosed, e.name)
	}
	req := &rpc.Request{Method: string(env.Type), Addr: addr, Body: &env, OneWay: true}
	_, err := e.bus.send(ctx, req)
	return err
}

func (e *busEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.bus.remove(e.name)
	return nil
}
