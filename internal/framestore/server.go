package framestore

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Server receives FrameRecord envelopes from cameras and stores them.
type Server struct {
	store *Store
	ep    transport.Endpoint

	mu       sync.Mutex
	received int64
	errors   int64
	closed   bool
	drainObs uint64

	inflight sync.WaitGroup
	drain    *obs.Histogram
	clk      clock.Clock
}

// NewServer installs the handler on ep and returns the server.
func NewServer(store *Store, ep transport.Endpoint) (*Server, error) {
	if store == nil || ep == nil {
		return nil, errors.New("framestore: store and endpoint required")
	}
	s := &Server{store: store, ep: ep, drain: new(obs.Histogram), clk: clock.Real{}}
	ep.SetHandler(s.handle)
	return s, nil
}

// Use re-homes the server's shutdown telemetry
// (coralpie_framestore_shutdown_drain_seconds) onto reg and times the
// drain with clk (nil keeps the current clock). Call before Shutdown.
func (s *Server) Use(reg *obs.Registry, clk clock.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg != nil {
		s.drain = reg.Histogram("coralpie_framestore_shutdown_drain_seconds",
			"graceful-shutdown drain duration", nil)
	}
	if clk != nil {
		s.clk = clk
	}
}

func (s *Server) handle(ctx context.Context, env protocol.Envelope) {
	s.mu.Lock()
	if s.closed {
		// Intake is stopped: frames arriving mid-shutdown are dropped
		// silently, same as a fire-and-forget datagram to a gone peer.
		s.mu.Unlock()
		return
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	if ctx.Err() != nil {
		// The endpoint is shutting down; drop rather than write to a
		// store that may already be flushing its logs closed.
		s.count(false)
		return
	}
	msg, err := protocol.Open(env)
	rec, ok := msg.(protocol.FrameRecord)
	s.count(err == nil && ok && s.store.Put(rec) == nil)
}

// Shutdown gracefully stops the server: intake is cut first (frames
// arriving afterwards are dropped), in-flight handlers drain bounded by
// ctx, and the store is then closed, flushing its buffered log writers.
// The drain duration lands in the shutdown histogram. Idempotent; on
// ctx expiry the store is left open so the caller can still force-close
// it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	clk := s.clk
	s.mu.Unlock()

	start := clk.Now()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("framestore: shutdown drain: %w", ctx.Err())
	}
	err := s.store.Close()
	s.mu.Lock()
	s.drain.Observe(clk.Now().Sub(start).Seconds())
	s.drainObs++
	s.mu.Unlock()
	return err
}

// DrainObservations returns how many graceful shutdowns have recorded a
// drain duration (at most one per server; exposed for tests and
// telemetry wiring).
func (s *Server) DrainObservations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainObs
}

func (s *Server) count(ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.received++
	} else {
		s.errors++
	}
}

// Stats returns the number of records stored and handler errors.
func (s *Server) Stats() (received, errs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received, s.errors
}
