package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// HealthCheck reports nil while its subsystem is serving.
type HealthCheck func() error

// NamedCheck is a HealthCheck attributed to one component, so /healthz
// can report per-component readiness and the fleet heartbeat can carry
// the same results to the monitor.
type NamedCheck struct {
	Name  string
	Check HealthCheck
}

// DirCheck is the readiness check of a store persisted under dir: the
// directory must still be there. An in-memory store (dir "") is ready.
func DirCheck(name, dir string) NamedCheck {
	return NamedCheck{Name: name, Check: func() error {
		if dir == "" {
			return nil
		}
		_, err := os.Stat(dir)
		return err
	}}
}

// CheckResult is one component's readiness at evaluation time.
type CheckResult struct {
	Component string `json:"component"`
	OK        bool   `json:"ok"`
	Err       string `json:"err,omitempty"`
}

// RunChecks evaluates every named check once. Results keep registration
// order; a nil check function reports ok.
func RunChecks(checks []NamedCheck) []CheckResult {
	out := make([]CheckResult, 0, len(checks))
	for _, c := range checks {
		res := CheckResult{Component: c.Name, OK: true}
		if c.Check != nil {
			if err := c.Check(); err != nil {
				res.OK = false
				res.Err = err.Error()
			}
		}
		out = append(out, res)
	}
	return out
}

// MuxConfig configures NewMuxWith.
type MuxConfig struct {
	// Registry backs /metrics and /debug/obs; nil uses Default().
	Registry *Registry
	// Tracer backs the span half of /debug/obs and all of
	// /debug/trace; nil omits spans and 404s /debug/trace.
	Tracer *Tracer
	// PProf mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose stack traces and symbol names, so
	// binaries gate this behind an explicit -obs-pprof flag.
	PProf bool
	// NamedChecks back /healthz (with none, it always reports ok) and
	// its ?v=json mode: per-component readiness results. Binaries pass the
	// same slice to their fleet heartbeat agent, so what the monitor
	// sees is exactly what /healthz reports.
	NamedChecks []NamedCheck
}

// NewMuxWith builds the telemetry HTTP handler:
//
//   - /metrics      — Prometheus text exposition of reg
//   - /healthz      — 200 "ok" while every check passes, 503 otherwise
//   - /debug/obs    — JSON snapshot: metrics plus recent/active spans
//   - /debug/trace  — assembled span tree for ?id=<trace>, or the list
//     of known trace IDs without ?id (404 when no tracer is attached)
//
// and, with cfg.PProf, net/http/pprof under /debug/pprof/. See MuxConfig.
func NewMuxWith(cfg MuxConfig) *http.ServeMux {
	reg := cfg.Registry
	if reg == nil {
		reg = Default()
	}
	tr := cfg.Tracer
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		results := RunChecks(cfg.NamedChecks)
		healthy := true
		for _, res := range results {
			healthy = healthy && res.OK
		}
		if r.URL.Query().Get("v") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if !healthy {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				OK         bool          `json:"ok"`
				Components []CheckResult `json:"components,omitempty"`
			}{OK: healthy, Components: results})
			return
		}
		if !healthy {
			msg := "unhealthy"
			for _, res := range results {
				if !res.OK {
					msg = res.Component + ": " + res.Err
					break
				}
			}
			http.Error(w, msg, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) {
		type debugState struct {
			Metrics     Snapshot `json:"metrics"`
			Spans       []Span   `json:"spans,omitempty"`
			ActiveSpans int      `json:"active_spans,omitempty"`
		}
		state := debugState{Metrics: reg.Snapshot()}
		if tr != nil {
			state.Spans = tr.Recent()
			state.ActiveSpans = tr.ActiveCount()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(state)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		id := r.URL.Query().Get("id")
		if id == "" {
			_ = enc.Encode(struct {
				Traces []string `json:"traces"`
			}{Traces: tr.Traces()})
			return
		}
		roots := tr.AssembleTrace(id)
		if len(roots) == 0 {
			http.Error(w, fmt.Sprintf("no spans for trace %q", id), http.StatusNotFound)
			return
		}
		_ = enc.Encode(struct {
			TraceID string       `json:"traceId"`
			Roots   []*TraceNode `json:"roots"`
		}{TraceID: id, Roots: roots})
	})
	if cfg.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Server is a running telemetry HTTP listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for handler on addr ("host:0" picks an
// ephemeral port; read it back with Addr). It returns once the listener
// is bound; requests are served on a background goroutine. The server
// carries explicit read timeouts so a stalled client cannot pin a
// handler goroutine forever.
func Serve(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops accepting connections and waits for in-flight
// requests until ctx expires, then hard-closes whatever remains. It
// follows the repo-wide graceful-shutdown convention: best effort
// within the deadline, guaranteed teardown after it.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close()
	}
	return err
}

// Close stops the listener and in-flight handlers immediately.
func (s *Server) Close() error { return s.srv.Close() }
