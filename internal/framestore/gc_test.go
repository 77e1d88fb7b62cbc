package framestore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// settableClock is a thread-safe test clock.
type settableClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *settableClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *settableClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

var _ clock.Clock = (*settableClock)(nil)

func TestGCRetainBytesBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	const (
		segBytes    = 2048
		retainBytes = 8192
	)
	s, err := OpenStoreConfig(dir, Config{SegmentBytes: segBytes, RetainBytes: retainBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)

	const n = 200
	for seq := int64(1); seq <= n; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	// GC runs after every roll, so sustained writes keep disk bounded by
	// RetainBytes plus at most one over-threshold active segment.
	recSize := int64(4 + len(mustMarshal(t, record("cam1", 1))))
	bound := int64(retainBytes) + segBytes + recSize
	if got := s.DiskBytes(); got > bound {
		t.Errorf("DiskBytes = %d, want <= %d", got, bound)
	}
	var onDisk int64
	matches, _ := filepath.Glob(filepath.Join(dir, "cam1.*"+segSuffix))
	for _, p := range matches {
		if info, err := os.Stat(p); err == nil {
			onDisk += info.Size()
		}
	}
	if onDisk != s.DiskBytes() {
		t.Errorf("accounting drift: files hold %d bytes, DiskBytes says %d", onDisk, s.DiskBytes())
	}

	// Oldest frames were collected, newest survive.
	if _, err := s.Get("cam1", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest frame survived retention: %v", err)
	}
	if _, err := s.Get("cam1", n); err != nil {
		t.Errorf("newest frame collected: %v", err)
	}
	// Count matches Range: no phantom index entries for deleted segments.
	recs, err := s.Range("cam1", 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != s.Count("cam1") {
		t.Errorf("Range returned %d records, Count says %d", len(recs), s.Count("cam1"))
	}

	if v := reg.Counter("coralpie_framestore_gc_runs_total", "").Value(); v == 0 {
		t.Error("gc_runs_total = 0, want > 0")
	}
	if v := reg.Counter("coralpie_framestore_gc_segments_total", "").Value(); v == 0 {
		t.Error("gc_segments_total = 0, want > 0")
	}
	if v := reg.Counter("coralpie_framestore_gc_reclaimed_bytes_total", "").Value(); v == 0 {
		t.Error("gc_reclaimed_bytes_total = 0, want > 0")
	}
	if v := reg.Gauge("coralpie_framestore_disk_bytes", "").Value(); v != s.DiskBytes() {
		t.Errorf("disk_bytes gauge = %d, DiskBytes = %d", v, s.DiskBytes())
	}

	// The bound still holds across a reload (accounting reconstructed
	// from the surviving segments).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStoreConfig(dir, Config{SegmentBytes: segBytes, RetainBytes: retainBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if re.DiskBytes() != onDisk {
		t.Errorf("reloaded DiskBytes = %d, want %d", re.DiskBytes(), onDisk)
	}
}

func TestGCRetainAge(t *testing.T) {
	dir := t.TempDir()
	clk := &settableClock{}
	clk.Set(time.Date(2020, 12, 7, 0, 10, 0, 0, time.UTC))
	s, err := OpenStoreConfig(dir, Config{
		SegmentBytes: 2048,
		RetainAge:    time.Hour,
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	tracer := obs.NewTracerWith(obs.TracerConfig{Clock: clk, Capacity: 64})
	s.UseTracer(tracer)

	// record() stamps timestamps within the first minute of 2020-12-07.
	for seq := int64(1); seq <= 30; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Everything is younger than RetainAge: nothing to collect.
	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 0 {
		t.Errorf("premature GC: %+v", st)
	}

	// Two hours later every frame has aged out — including the active
	// segment's, which GC seals first.
	clk.Set(time.Date(2020, 12, 7, 2, 0, 0, 0, time.UTC))
	st, err = s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments == 0 || st.Frames != 30 {
		t.Errorf("GC reclaimed %+v, want all 30 frames", st)
	}
	if got := s.Count("cam1"); got != 0 {
		t.Errorf("Count = %d after full age-out", got)
	}
	if s.DiskBytes() != 0 {
		t.Errorf("DiskBytes = %d after full age-out", s.DiskBytes())
	}

	// Every retention pass leaves a "gc" span.
	found := false
	for _, sp := range tracer.Recent() {
		if sp.Name == "gc" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no gc span recorded")
	}

	// The camera accepts new frames after its whole chain was collected.
	if err := s.Put(record("cam1", 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("cam1", 31); err != nil {
		t.Errorf("write after age-out: %v", err)
	}
}

func TestGCNeverDeletesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	// RetainBytes far below one record: the size policy wants everything
	// gone, but the active segment must survive.
	s, err := OpenStoreConfig(dir, Config{RetainBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	for seq := int64(1); seq <= 5; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 0 {
		t.Errorf("GC deleted the active segment: %+v", st)
	}
	if got := s.Count("cam1"); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
}

func TestGCMemStoreNoop(t *testing.T) {
	s, err := OpenStoreConfig("", Config{RetainBytes: 1, RetainAge: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.Put(record("cam1", 1)); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC()
	if err != nil || st != (GCStats{}) {
		t.Errorf("mem GC = %+v, %v", st, err)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
