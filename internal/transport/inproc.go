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
	faults    rpc.ClientInterceptor
	// rngMu serializes draws from a caller-supplied fault RNG across the
	// successive fault middlewares built from it (see InjectFaults).
	rngMu sync.Mutex
	m     *endpointMetrics

	// ccall is the send chain bound once around transmit (see TCP.ccall).
	ccall  rpc.Handler
	schain rpc.ServerInterceptor
}

// NewBus returns a bus that delivers synchronously (zero latency) on the
// caller's goroutine.
func NewBus() *Bus {
	b := &Bus{
		endpoints: make(map[string]*busEndpoint),
		parted:    make(map[string]*busEndpoint),
		m:         newEndpointMetrics(nil, "bus"),
	}
	b.initChains()
	return b
}

// NewSimBus returns a bus that schedules deliveries on the simulator,
// latency after each send. All endpoint handlers then run on the
// simulator's goroutine, which is what makes large-scale experiments
// deterministic.
func NewSimBus(sim *des.Simulator, latency time.Duration) *Bus {
	b := &Bus{
		endpoints: make(map[string]*busEndpoint),
		parted:    make(map[string]*busEndpoint),
		sim:       sim,
		latency:   latency,
		m:         newEndpointMetrics(nil, "bus"),
	}
	b.initChains()
	return b
}

// initChains assembles the fixed middleware chains. The fault stage
// reads the current interceptor per message, so fault injection can be
// (re)configured on a live bus.
func (b *Bus) initChains() {
	b.ccall = rpc.BindClient(b.transmit, b.countSend, rpc.WithTraceInject(), b.faultStage)
	b.schain = rpc.ChainServer(rpc.WithTraceExtract())
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
// middleware; a config with no enabled fault clears it. Dropped
// messages are counted in Dropped() and coralpie_transport_lost_total.
func (b *Bus) InjectFaults(cfg faultinject.Config) error {
	if !cfg.Enabled() {
		b.mu.Lock()
		b.faults = nil
		b.mu.Unlock()
		return nil
	}
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

// SetLossRate makes the bus silently drop each message with the given
// probability — now a thin wrapper over the faultinject middleware,
// kept for its validation contract and existing callers. The rng must
// be dedicated to the bus. Rate 0 (the default) disables loss.
func (b *Bus) SetLossRate(rate float64, rng *rand.Rand) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("transport: loss rate %v out of [0,1)", rate)
	}
	if rate > 0 && rng == nil {
		return fmt.Errorf("transport: loss rate needs an RNG")
	}
	return b.InjectFaults(faultinject.Config{DropRate: rate, RNG: rng})
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
	var h Handler
	if ok {
		h = ep.handler
	}
	sim := b.sim
	latency := b.latency
	b.mu.Unlock()

	if !ok {
		m.sendErrors.Inc()
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddress, to)
	}
	if h == nil {
		m.sendErrors.Inc()
		return nil, fmt.Errorf("%w: %q", ErrNoHandler, to)
	}
	if sim == nil {
		if err := rpc.Sleep(ctx, req.Delay); err != nil {
			return nil, err
		}
		m.delivered.Inc()
		b.dispatch(ctx, h, env)
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
		var handler Handler
		if stillThere {
			handler = cur.handler
		}
		b.mu.Unlock()
		if handler != nil {
			m.delivered.Inc()
			b.dispatch(context.Background(), handler, env)
		}
	})
	return &rpc.Response{}, nil
}

// dispatch runs the handler under the server-side chain (trace
// extraction), so bus handlers see the same middleware contract as TCP
// handlers.
func (b *Bus) dispatch(base context.Context, h Handler, env protocol.Envelope) {
	req := &rpc.Request{Method: string(env.Type), Body: &env, OneWay: true}
	_, _ = b.schain(base, req, func(ctx context.Context, r *rpc.Request) (*rpc.Response, error) {
		h(ctx, *r.Body.(*protocol.Envelope))
		return &rpc.Response{}, nil
	})
}

type busEndpoint struct {
	bus    *Bus
	name   string
	mu     sync.Mutex
	closed bool

	handler Handler
}

var _ Endpoint = (*busEndpoint)(nil)

func (e *busEndpoint) Addr() string { return e.name }

func (e *busEndpoint) SetHandler(h Handler) {
	e.bus.mu.Lock()
	defer e.bus.mu.Unlock()
	e.handler = h
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
	_, err := e.bus.ccall(ctx, req)
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
