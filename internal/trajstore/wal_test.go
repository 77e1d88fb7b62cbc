package trajstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/protocol"
)

// legacyVehicles are the truth IDs in testdata/floor-log.
var legacyVehicles = []string{"veh-0", "veh-1", "veh-2", ""}

// legacyAnswers renders, one line each, every vertex (its histogram as
// length and set bins' bits), its ReconstructTracks answer and every
// vehicle's SightingsOf answer. testdata/floor-log/answers.txt holds these
// lines as the JSON-log engine answered them for the directory in
// testdata/json-wal, whose migrated record log is testdata/floor-log.
func legacyAnswers(sn *Snapshot, vehicles []string) []byte {
	var out bytes.Buffer
	limits := TraceLimits{MaxDepth: 32, MaxPaths: 64}
	line := func(kind, key string, v any, err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		raw, merr := json.Marshal(struct {
			V   any
			Err string
		}{v, msg})
		if merr != nil {
			panic(merr)
		}
		fmt.Fprintf(&out, "%s %s %s\n", kind, key, raw)
	}
	for vid := int64(1); vid <= sn.MaxVertexID(); vid++ {
		v, err := sn.Vertex(vid)
		bins := map[int]uint64{}
		for i, b := range v.Event.Histogram.Bins {
			if math.Float64bits(b) != 0 {
				bins[i] = math.Float64bits(b)
			}
		}
		nbins := len(v.Event.Histogram.Bins)
		v.Event.Histogram.Bins = nil
		line("vertex", fmt.Sprint(vid), []any{v, nbins, bins}, err)
		tracks, err := ReconstructTracks(sn, vid, limits)
		line("reconstruct", fmt.Sprint(vid), tracks, err)
	}
	for _, veh := range vehicles {
		hops, err := SightingsOf(sn, sn.MaxVertexID(), veh)
		line("sightings", veh, hops, err)
	}
	return out.Bytes()
}

// copyTestdata copies the named files of testdata/<src> into a temporary
// directory, which it returns.
func copyTestdata(t *testing.T, src string, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join("testdata", src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeLog writes the records in b as dir's record log.
func writeLog(t *testing.T, dir string, b *walBatch) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, walFileName), b.buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertFile fails unless path holds want; nil want means no file.
func assertFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	switch {
	case want == nil && !errors.Is(err, os.ErrNotExist):
		t.Errorf("%s: still there (%v)", filepath.Base(path), err)
	case want != nil && err != nil:
		t.Errorf("%s: %v", filepath.Base(path), err)
	case want != nil && !bytes.Equal(got, want):
		t.Errorf("%s: %d bytes, want the %d it had", filepath.Base(path), len(got), len(want))
	}
}

// TestFloorLogOpens: the record log a migrating open made of the JSON-log
// engine's directory opens with every write and answers exactly as that
// engine did.
func TestFloorLogOpens(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "floor-log", "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := copyTestdata(t, "floor-log", walFileName)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if s.NumVertices() != 24 {
		t.Fatalf("opened %d vertices, want 24", s.NumVertices())
	}
	if got := legacyAnswers(s.Snapshot(), legacyVehicles); !bytes.Equal(got, want) {
		t.Errorf("answers differ from the JSON-log engine's\n got: %s\nwant: %s", got, want)
	}
}

// TestOpenRefusesPreFloorDirectory: a directory holding the JSON-log
// engine's log, its snapshot or both is refused with ErrPreFloorFormat,
// naming the file, and every file in it is left as it was, with no record
// log created beside them.
func TestOpenRefusesPreFloorDirectory(t *testing.T) {
	for _, names := range [][]string{preFloorFiles, preFloorFiles[:1], preFloorFiles[1:]} {
		dir := copyTestdata(t, "json-wal", names...)
		if _, err := Open(dir); !errors.Is(err, ErrPreFloorFormat) || !strings.Contains(err.Error(), names[0]) {
			t.Fatalf("%v: open = %v, want ErrPreFloorFormat naming %s", names, err, names[0])
		}
		for _, name := range names {
			want, err := os.ReadFile(filepath.Join("testdata", "json-wal", name))
			if err != nil {
				t.Fatal(err)
			}
			assertFile(t, filepath.Join(dir, name), want)
		}
		assertFile(t, filepath.Join(dir, walFileName), nil)
	}
}

// TestZeroFilledWALTailTruncated: a power loss can leave the log's tail
// zero-filled. Zeros are not a record (an empty body is invalid), so they
// are a torn tail, truncated and counted, not mid-file corruption.
func TestZeroFilledWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.AddVertex(event(fmt.Sprintf("cam#%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(bytes.Clone(good), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("zero-filled tail must not fail open: %v", err)
	}
	defer func() { _ = s2.Close() }()
	if s2.NumVertices() != 2 || s2.WALStats().TailTruncations != 1 {
		t.Errorf("vertices %d, tail truncations %d; want 2, 1", s2.NumVertices(), s2.WALStats().TailTruncations)
	}
	assertFile(t, path, good)
}

// FuzzOpenWAL opens a store whose record log is the fuzz input. Open may
// fail only with ErrWALCorrupt, never panic, and an opened store holds
// nothing a live write would have been refused for: every event passes
// checkEvent (finite bins, years 0..9999), every edge weight is finite and
// both its endpoints exist. A reopen finds the same graph, so what a
// torn-tail truncation removed stays removed.
func FuzzOpenWAL(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	zoned := event("cam#2")
	zoned.Timestamp = zoned.Timestamp.In(time.FixedZone("", 330*60))
	zoned.Histogram.Bins[9] = math.Copysign(0, -1)
	if _, errs, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("cam#1")), protocol.VertexWrite(zoned),
		protocol.EdgeWrite(1, 2, 0.25), protocol.VertexWrite(event("cam#3")), protocol.EdgeWrite(2, 3, 0.5),
	}); errors.Join(append(errs, err)...) != nil {
		f.Fatal(errs, err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		f.Fatal(err)
	}
	// Records that frame and decode but that the store must refuse.
	var bad walBatch
	nan := event("cam#4")
	nan.VertexID, nan.Histogram.Bins[1] = 4, math.NaN()
	_ = bad.addVertex(&Vertex{ID: 4, Event: nan})
	_ = bad.addEdge(Edge{From: 1, To: 3, Weight: math.Inf(1)})
	_ = bad.addEdge(Edge{From: 1, To: 99, Weight: 0.5})
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(bytes.Clone(log), make([]byte, 64)...))
	f.Add(append(bytes.Clone(log), bad.buf...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bounds what one input can make the replay allocate
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("open: %v", err)
			}
			return
		}
		sn := s.Snapshot()
		for id := int64(1); id <= sn.MaxVertexID(); id++ {
			v, err := sn.Vertex(id)
			if err != nil {
				continue
			}
			if err := checkEvent(&v.Event); err != nil {
				t.Fatalf("vertex %d holds an event a write would refuse: %v", id, err)
			}
			for _, e := range sn.edges(id, true) {
				_, ferr := sn.Vertex(e.From)
				_, terr := sn.Vertex(e.To)
				if err := errors.Join(finite(e.Weight), ferr, terr); err != nil {
					t.Fatalf("edge %+v: %v", e, err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer func() { _ = again.Close() }()
		if again.NumVertices() != sn.NumVertices() || again.NumEdges() != sn.NumEdges() || again.WALStats().TailTruncations != 0 {
			t.Fatalf("reopen: %d vertices, %d edges, %d truncations; first open %d, %d",
				again.NumVertices(), again.NumEdges(), again.WALStats().TailTruncations, sn.NumVertices(), sn.NumEdges())
		}
	})
}

// BenchmarkOpenReplay is recovery time: Open of a directory holding 10^4
// vertices (2 000 vehicles × 5 hops, camera-like histograms with six set
// bins) and ~9·10^3 edges as a binary record log.
func BenchmarkOpenReplay(b *testing.B) {
	const vehicles, hops = 2000, 5
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for v := 0; v < vehicles; v++ {
		var batch []protocol.TrajWrite
		hist := feature.Histogram{Bins: make([]float64, feature.HistogramSize)}
		for k := 0; k < 6; k++ {
			hist.Bins[(v*37+k*83)%feature.HistogramSize] += 1.0 / 6
		}
		for h := 0; h < hops; h++ {
			id := int64(v*hops + h + 1)
			batch = append(batch, protocol.VertexWrite(protocol.DetectionEvent{
				ID: protocol.NewEventID(fmt.Sprintf("cam%d", h), int64(v)), CameraID: fmt.Sprintf("cam%d", h),
				Timestamp: time.Date(2020, 12, 7, 0, 0, int(id), 0, time.UTC), Histogram: hist,
				TrackID: int64(v), TruthID: fmt.Sprintf("veh-%d", v),
			}))
			if h > 0 {
				batch = append(batch, protocol.EdgeWrite(id-1, id, 0.1))
			}
			if h > 1 && v%10 == 0 {
				batch = append(batch, protocol.EdgeWrite(id-2, id, 0.3))
			}
		}
		if _, errs, err := s.ApplyBatch(batch); errors.Join(append(errs, err)...) != nil {
			b.Fatal(errs, err)
		}
	}
	nv, ne := s.NumVertices(), s.NumEdges()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("log=binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			if st.NumVertices() != nv || st.NumEdges() != ne {
				b.Fatalf("opened %d/%d, want %d/%d", st.NumVertices(), st.NumEdges(), nv, ne)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(log))/float64(nv+ne), "log_bytes/record")
	})
}
