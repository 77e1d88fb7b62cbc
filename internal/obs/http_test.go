package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("coralpie_http_total", "hits").Add(2)
	r.Gauge("coralpie_http_gauge", "").Set(1)
	r.Histogram("coralpie_http_seconds", "", nil).Observe(0.001)

	srv := httptest.NewServer(NewMuxWith(MuxConfig{Registry: r}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"coralpie_http_total 2",
		"coralpie_http_gauge 1",
		`coralpie_http_seconds_bucket{le="+Inf"} 1`,
		"# TYPE coralpie_http_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	healthy := true
	check := func() error {
		if !healthy {
			return errors.New("store offline")
		}
		return nil
	}
	srv := httptest.NewServer(NewMuxWith(MuxConfig{
		Registry:    NewRegistry(),
		NamedChecks: []NamedCheck{{Name: "store", Check: check}},
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status = %d, want 200", resp.StatusCode)
	}

	healthy = false
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy status = %d, want 503", resp.StatusCode)
	}
}

func TestHealthzJSONPerComponent(t *testing.T) {
	storeUp := true
	mux := NewMuxWith(MuxConfig{
		Registry: NewRegistry(),
		NamedChecks: []NamedCheck{
			{Name: "pipeline", Check: nil},
			{Name: "store", Check: func() error {
				if !storeUp {
					return errors.New("store offline")
				}
				return nil
			}},
		},
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	fetch := func(wantStatus int) struct {
		OK         bool          `json:"ok"`
		Components []CheckResult `json:"components"`
	} {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz?v=json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var out struct {
			OK         bool          `json:"ok"`
			Components []CheckResult `json:"components"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	got := fetch(http.StatusOK)
	if !got.OK || len(got.Components) != 2 || !got.Components[0].OK || !got.Components[1].OK {
		t.Fatalf("healthy body = %+v", got)
	}

	storeUp = false
	got = fetch(http.StatusServiceUnavailable)
	if got.OK {
		t.Fatal("ok=true while a component is failing")
	}
	// The healthy component stays individually ok; only the failing one
	// carries its error.
	if !got.Components[0].OK || got.Components[1].OK || got.Components[1].Err != "store offline" {
		t.Fatalf("unhealthy body = %+v", got)
	}
}

func TestDebugObsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("coralpie_dbg_total", "").Inc()
	tr := NewTracerWith(TracerConfig{Clock: clock.Fixed{T: time.Unix(9, 0)}, Capacity: 4})
	tr.EndSpan(tr.Start(SpanContext{}, "veh", "handoff"))
	tr.Start(SpanContext{}, "lost", "handoff")

	srv := httptest.NewServer(NewMuxWith(MuxConfig{Registry: r, Tracer: tr}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state struct {
		Metrics     Snapshot `json:"metrics"`
		Spans       []Span   `json:"spans"`
		ActiveSpans int      `json:"active_spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if len(state.Metrics.Families) != 1 || state.Metrics.Families[0].Name != "coralpie_dbg_total" {
		t.Fatalf("metrics = %+v", state.Metrics)
	}
	if len(state.Spans) != 1 || state.Spans[0].Trace != "veh" {
		t.Fatalf("spans = %+v", state.Spans)
	}
	if state.ActiveSpans != 1 {
		t.Fatalf("active = %d, want 1", state.ActiveSpans)
	}
}

// TestDebugObsHistogramJSON guards the +Inf bucket bound: histograms
// always carry one, encoding/json rejects infinite numbers, and a
// failed encode used to leave the response body silently empty.
func TestDebugObsHistogramJSON(t *testing.T) {
	r := NewRegistry()
	r.Histogram("coralpie_dbg_seconds", "", nil).Observe(0.5)

	srv := httptest.NewServer(NewMuxWith(MuxConfig{Registry: r}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state struct {
		Metrics Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatalf("debug JSON with histogram: %v", err)
	}
	if len(state.Metrics.Families) != 1 {
		t.Fatalf("families = %+v", state.Metrics.Families)
	}
	buckets := state.Metrics.Families[0].Metrics[0].Buckets
	if len(buckets) == 0 {
		t.Fatal("no buckets decoded")
	}
}

func TestServeLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Counter("coralpie_served_total", "").Inc()
	s, err := Serve("127.0.0.1:0", NewMuxWith(MuxConfig{Registry: r}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server should be closed")
	}
}
