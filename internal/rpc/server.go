package rpc

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// ServerCodec translates between wire frames and Requests/Responses for
// one protocol served by Server: a request/response wire, or a one-way
// one whose WriteResponse writes nothing. The server calls one codec
// value from every connection's goroutine, never interleaved on one
// connection; a connection's own state is the buffer ReadRequest gets.
type ServerCodec interface {
	// ReadRequest blocks for the next request frame on r. buf is the
	// connection's read buffer, owned by the server: a codec may read
	// into it, and a request that keeps its bytes is valid until the
	// next ReadRequest on that connection. Any error — including io.EOF
	// — ends the connection.
	ReadRequest(r io.Reader, buf *[]byte) (*Request, error)
	// WriteResponse writes the reply for req. herr is the handler
	// chain's error; protocol codecs typically encode it into the
	// response frame (so old clients see the same wire shape) rather
	// than killing the connection.
	WriteResponse(w io.Writer, req *Request, resp *Response, herr error) error
}

// ServerConfig tunes a Server.
type ServerConfig struct {
	// WriteTimeout bounds each response write (0 = none).
	WriteTimeout time.Duration
	// Interceptors wrap the handler, outermost first, after the
	// built-in trace extraction.
	Interceptors []Interceptor
}

// Server accepts framed connections (one goroutine per connection,
// requests served in order per connection) and dispatches each request
// through the server interceptor chain. It owns the one
// accept/serve/graceful-shutdown lifecycle in the repository: the
// trajectory store, the heartbeat monitor and the envelope transport
// all serve through it.
type Server struct {
	ln    net.Listener
	codec ServerCodec
	call  Handler // the handler bound in its interceptor chain, once
	cfg   ServerConfig

	// rootCtx is the base context handed to request chains; cancelled
	// once the server hard-closes so stuck handlers can bail out.
	rootCtx context.Context
	cancel  context.CancelFunc

	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	drain *obs.Histogram
}

// NewServer listens on addr and serves the codec's protocol through
// handler wrapped in cfg.Interceptors (trace extraction is always
// outermost).
func NewServer(addr string, codec ServerCodec, handler Handler, cfg ServerConfig) (*Server, error) {
	if codec == nil || handler == nil {
		return nil, fmt.Errorf("rpc: codec and handler required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		ln:      ln,
		codec:   codec,
		call:    Bind(handler, append([]Interceptor{WithTraceExtract()}, cfg.Interceptors...)...),
		cfg:     cfg,
		rootCtx: ctx,
		cancel:  cancel,
		conns:   make(map[net.Conn]struct{}),
		drain:   new(obs.Histogram),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var buf []byte
	for {
		req, err := s.codec.ReadRequest(conn, &buf)
		if err != nil {
			return // EOF, peer reset, shutdown read deadline, or framing error
		}
		resp, herr := s.call(s.rootCtx, req)
		if s.cfg.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if err := s.codec.WriteResponse(conn, req, resp, herr); err != nil {
			return
		}
		if s.cfg.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Time{})
		}
	}
}

// Shutdown gracefully stops the server: it stops accepting new
// connections, lets any request currently being served finish, and only
// hard-closes connections once idle (or once ctx expires, whichever is
// first). The drain duration lands in the drain histogram. Safe to call
// concurrently with Close; both are idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	start := time.Now()
	conns, ok, lnErr := s.stopAccepting()
	if !ok {
		return nil
	}
	// Unblock idle readers immediately; a connection mid-request has
	// already consumed its frame and finishes handle+reply first. Bound
	// the reply write by the shutdown deadline so a stalled client
	// cannot hold the drain open.
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now())
		if deadline, ok := ctx.Deadline(); ok {
			_ = c.SetWriteDeadline(deadline)
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("rpc: shutdown drain: %w", ctx.Err())
		// Cancel before waiting: a handler blocked on its context
		// returns only once the handler context is done.
		s.hardClose(conns)
		<-done
	}
	s.hardClose(conns)
	s.drain.Observe(time.Since(start).Seconds())
	if drainErr != nil {
		return drainErr
	}
	return lnErr
}

// stopAccepting marks the server closed, closes its listener and returns
// the open connections; ok is false when the server was closed already.
func (s *Server) stopAccepting() (conns []net.Conn, ok bool, lnErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, nil
	}
	s.closed = true
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns, true, s.ln.Close()
}

// hardClose cancels the handler context and closes conns.
func (s *Server) hardClose(conns []net.Conn) {
	s.cancel()
	for _, c := range conns {
		_ = c.Close()
	}
}

// DrainObservations returns how many graceful shutdowns have recorded a
// drain duration (at most one per server; exposed for tests and
// telemetry wiring).
func (s *Server) DrainObservations() uint64 { return s.drain.Count() }

// Close stops accepting, closes connections, and waits for handlers.
// Unlike Shutdown it does not wait for in-flight requests.
func (s *Server) Close() error {
	conns, ok, err := s.stopAccepting()
	if !ok {
		return nil
	}
	s.hardClose(conns)
	s.wg.Wait()
	return err
}
