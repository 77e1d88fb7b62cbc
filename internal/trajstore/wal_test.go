package trajstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/feature"
	"repro/internal/protocol"
)

// legacyVehicles are the truth IDs in testdata/json-wal.
var legacyVehicles = []string{"veh-0", "veh-1", "veh-2", ""}

// legacyAnswers renders, one line each, every vertex (its histogram as
// length and set bins' bits), its ReconstructTracks answer and every
// vehicle's SightingsOf answer. testdata/json-wal/answers.txt holds these
// lines as the JSON-log engine answered them for the directory beside it.
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

// copyLegacyDir copies the directory the JSON-log engine wrote (a snapshot
// and a JSON log, 24 vertices across both) into a temporary directory.
func copyLegacyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range legacyFiles {
		data, err := os.ReadFile(filepath.Join("testdata", "json-wal", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeLegacySnapshot writes file as the JSON snapshot older versions kept.
func writeLegacySnapshot(t *testing.T, dir string, file snapshotFile) {
	t.Helper()
	raw, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertOnlyLog fails unless the record log is the only file in dir.
func assertOnlyLog(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != walFileName {
		t.Errorf("directory holds %v, want only %s", names, walFileName)
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

// TestLegacyJSONDirectoryOpens: a directory written by the JSON-log
// engine opens with every write and answers exactly as that engine did,
// and the open migrates the legacy log away.
func TestLegacyJSONDirectoryOpens(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "json-wal", "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := copyLegacyDir(t)
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
	assertFile(t, filepath.Join(dir, legacyWALFileName), nil)
}

// TestLegacyPlusLogDirectory: after an upgrade, the legacy log is gone,
// new writes go to the record log, and edges crossing from legacy vertices
// to new ones survive two reopens.
func TestLegacyPlusLogDirectory(t *testing.T) {
	dir := copyLegacyDir(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids, errs, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("new#1")),
		protocol.EdgeWrite(24, 25, 0.125),
		protocol.EdgeWrite(3, 25, 0.25),
		protocol.VertexWrite(event("new#2")),
		protocol.EdgeWrite(25, 26, 0.5),
	})
	if err = errors.Join(append(errs, err)...); err != nil || ids[0] != 25 || ids[3] != 26 {
		t.Fatalf("writes after upgrade: ids %v, %v", ids, err)
	}
	want := legacyAnswers(s.Snapshot(), legacyVehicles)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	assertFile(t, filepath.Join(dir, legacyWALFileName), nil)
	if fi, err := os.Stat(filepath.Join(dir, walFileName)); err != nil || fi.Size() == 0 {
		t.Fatalf("record log after writes: %v, %v", fi, err)
	}

	for reopen := 1; reopen <= 2; reopen++ {
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if reopened.NumVertices() != 26 {
			t.Fatalf("reopen %d: %d vertices, want 26", reopen, reopened.NumVertices())
		}
		if in := reopened.InEdges(25); len(in) != 2 || in[0] != (Edge{3, 25, 0.25}) || in[1] != (Edge{24, 25, 0.125}) {
			t.Errorf("reopen %d: edges into 25 = %+v", reopen, in)
		}
		if got := legacyAnswers(reopened.Snapshot(), legacyVehicles); !bytes.Equal(got, want) {
			t.Errorf("reopen %d: answers differ\n got: %s\nwant: %s", reopen, got, want)
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenMigratesLegacyDirectory: the open that finds the JSON-log
// engine's files answers as that engine did and leaves the record log as
// the directory's only file, from which the next open answers the same.
func TestOpenMigratesLegacyDirectory(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "json-wal", "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := copyLegacyDir(t)
	for open := 1; open <= 2; open++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := legacyAnswers(s.Snapshot(), legacyVehicles); !bytes.Equal(got, want) {
			t.Errorf("open %d: answers differ from the JSON-log engine's\n got: %s\nwant: %s", open, got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		assertOnlyLog(t, dir)
	}
}

// TestCrashDuringLegacyDirectoryMigration: a crash before the migration's
// k-th removal leaves legacyFiles[k:] beside the migrated log. Every such
// directory reopens to the JSON-log engine's 24 vertices and answers,
// finishes the migration, and the next open answers the same. Removing the
// snapshot first would leave the JSON log alone, whose vertices 13..24,
// replayed before the log, hide the log's vertices 1..12.
func TestCrashDuringLegacyDirectoryMigration(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "json-wal", "answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for k := range legacyFiles {
		left := legacyFiles[k:]
		dir := copyLegacyDir(t)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for _, name := range left {
			data, err := os.ReadFile(filepath.Join("testdata", "json-wal", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for open := 1; open <= 2; open++ {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumVertices() != 24 {
				t.Errorf("%v left, open %d: %d vertices, want 24", left, open, s.NumVertices())
			}
			if got := legacyAnswers(s.Snapshot(), legacyVehicles); !bytes.Equal(got, want) {
				t.Errorf("%v left, open %d: answers differ from the JSON-log engine's\n got: %s\nwant: %s", left, open, got, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			assertOnlyLog(t, dir)
		}
	}
}

// TestLegacyWALDamage: the legacy log keeps the record log's damage rules.
// A last line that does not decode or lacks its newline is a torn tail,
// dropped and counted before the migration; a line that does not decode
// with an intact one after it refuses the open and leaves the directory
// as it was.
func TestLegacyWALDamage(t *testing.T) {
	intact, err := os.ReadFile(filepath.Join("testdata", "json-wal", legacyWALFileName))
	if err != nil {
		t.Fatal(err)
	}
	open := func(wal []byte) (dir string, s *Store, err error) {
		dir = copyLegacyDir(t)
		if err := os.WriteFile(filepath.Join(dir, legacyWALFileName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		return dir, s, err
	}
	withoutLast := intact[:bytes.LastIndexByte(intact[:len(intact)-1], '\n')+1]
	for _, tc := range []struct {
		name      string
		wal, want []byte // want: the log whose open the damaged one must match
	}{
		{"unterminated last line", intact[:len(intact)-1], withoutLast},
		{"undecodable last line", append(bytes.Clone(intact), `{"op":"v"`+"\n"...), intact},
	} {
		_, s, err := open(tc.wal)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, ref, err := open(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacyAnswers(s.Snapshot(), legacyVehicles), legacyAnswers(ref.Snapshot(), legacyVehicles)) ||
			s.WALStats().TailTruncations != 1 || ref.WALStats().TailTruncations != 0 {
			t.Errorf("%s: opened %d vertices, %d edges, %d truncations; want %d, %d, 1", tc.name,
				s.NumVertices(), s.NumEdges(), s.WALStats().TailTruncations, ref.NumVertices(), ref.NumEdges())
		}
		_, _ = s.Close(), ref.Close()
	}

	smashed := append([]byte("#"), intact[1:]...)
	dir, _, err := open(smashed)
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("first line smashed: open = %v, want ErrWALCorrupt", err)
	}
	assertFile(t, filepath.Join(dir, legacyWALFileName), smashed)
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Errorf("snapshot after a refused open: %v", err)
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
// bins) and ~9·10^3 edges, as a binary record log, and the one-time
// migration of the same graph as a legacy JSON log. The file is put back
// before each open.
func BenchmarkOpenReplay(b *testing.B) {
	const vehicles, hops = 2000, 5
	mem := NewMemStore()
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
		if _, errs, err := mem.ApplyBatch(batch); errors.Join(append(errs, err)...) != nil {
			b.Fatal(errs, err)
		}
	}
	sn := mem.Snapshot()

	binDir := b.TempDir()
	s, err := Open(binDir)
	if err != nil {
		b.Fatal(err)
	}
	jsonDir := b.TempDir()
	var legacy bytes.Buffer
	enc := json.NewEncoder(&legacy)
	for id := int64(1); id <= sn.MaxVertexID(); id++ {
		v, _ := sn.Vertex(id)
		if _, err := s.AddVertex(v.Event); err != nil {
			b.Fatal(err)
		}
		_ = enc.Encode(legacyRecord{Op: "v", Vertex: &v})
		for _, e := range sn.edges(id, false) {
			if err := s.AddEdge(e.From, e.To, e.Weight); err != nil {
				b.Fatal(err)
			}
			_ = enc.Encode(legacyRecord{Op: "e", Edge: &e})
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	binLog, err := os.ReadFile(filepath.Join(binDir, walFileName))
	if err != nil {
		b.Fatal(err)
	}

	for _, tc := range []struct {
		name, dir, file string
		data            []byte
	}{
		{"log=binary", binDir, walFileName, binLog},
		{"migrate=json", jsonDir, legacyWALFileName, legacy.Bytes()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_ = os.Remove(filepath.Join(tc.dir, walFileName))
				if err := os.WriteFile(filepath.Join(tc.dir, tc.file), tc.data, 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				st, err := Open(tc.dir)
				if err != nil {
					b.Fatal(err)
				}
				if st.NumVertices() != sn.NumVertices() || st.NumEdges() != sn.NumEdges() {
					b.Fatalf("opened %d/%d, want %d/%d", st.NumVertices(), st.NumEdges(), sn.NumVertices(), sn.NumEdges())
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tc.data))/float64(sn.NumVertices()+sn.NumEdges()), "log_bytes/record")
		})
	}
}
