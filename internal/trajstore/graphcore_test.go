package trajstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// --- Commit failure: fail-stop, and never visible ---

var errDiskGone = errors.New("disk gone")

type brokenDisk struct{}

func (brokenDisk) Write([]byte) (int, error) { return 0, errDiskGone }

// scanCounts counts a snapshot's vertices and edges the slow way, and
// checks the two adjacency directions agree.
func scanCounts(sn *Snapshot) (vertices, edges int, err error) {
	var in int
	for id := int64(1); id <= sn.MaxVertexID(); id++ {
		if _, verr := sn.Vertex(id); verr != nil {
			continue
		}
		vertices++
		out, _ := sn.OutEdges(id)
		edges += len(out)
		ins, _ := sn.InEdges(id)
		in += len(ins)
	}
	if in != edges {
		return 0, 0, fmt.Errorf("%d out edges but %d in edges", edges, in)
	}
	return vertices, edges, nil
}

// TestSnapshotCommitFailureFailStopConcurrent breaks the WAL under a live
// store while a reader hammers Snapshot(). Writers run in three phases —
// healthy (all acknowledged), broken (all must fail), healed (the disk
// works again, but the failure is latched, so all must still fail) — and
// the test asserts that no snapshot taken before, during or after contains
// a failed write, that the gauges equal the published counts, and that a
// reopen serves exactly the acknowledged writes.
func TestSnapshotCommitFailureFailStopConcurrent(t *testing.T) {
	const writers = 4
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)
	root, err := s.AddVertex(event("root#0"))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		var lastVersion uint64
		for {
			sn := s.Snapshot()
			nv, ne, err := scanCounts(sn)
			switch {
			case err != nil:
			case nv != sn.NumVertices() || ne != sn.NumEdges():
				err = fmt.Errorf("snapshot counts %d/%d, scan finds %d/%d", sn.NumVertices(), sn.NumEdges(), nv, ne)
			case sn.Version() < lastVersion:
				err = fmt.Errorf("version went back: %d -> %d", lastVersion, sn.Version())
			case ne > nv-1 || ne < nv-1-writers:
				// A writer sends its edge once its vertex is acknowledged,
				// so edges trail vertices by at most one per writer.
				err = fmt.Errorf("%d vertices but %d edges", nv, ne)
			}
			lastVersion = sn.Version()
			select {
			case <-stop:
				readerDone <- err
				return
			default:
			}
			if err != nil {
				readerDone <- err
				return
			}
		}
	}()

	// phase runs the writers concurrently, 8 handoffs each: a vertex, then
	// the edge root -> it.
	phase := func(name string) (acked []protocol.EventID, failures []error) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					e := event(fmt.Sprintf("%s-w%d#%d", name, w, i))
					e.TruthID = name
					id, err := s.AddVertex(e)
					if err == nil {
						err = s.AddEdge(root, id, 0.1)
					}
					mu.Lock()
					if err != nil {
						failures = append(failures, err)
					} else {
						acked = append(acked, e.ID)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return acked, failures
	}

	acked, failures := phase("healthy")
	if len(failures) != 0 || len(acked) != 32 {
		t.Fatalf("healthy phase: %d acked, failures %v", len(acked), failures)
	}
	committed := s.Snapshot()
	walFailed := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "coralpie_trajstore_wal_failed ") {
				return strings.TrimPrefix(line, "coralpie_trajstore_wal_failed ")
			}
		}
		return "unregistered"
	}
	if got := walFailed(); got != "0" {
		t.Errorf("coralpie_trajstore_wal_failed = %s while healthy, want 0", got)
	}

	// Break the disk. The committer is idle (every write above was
	// acknowledged) and will next touch the log's writer after a channel
	// receive from a writer that starts after this line.
	healthyW := s.persist.w
	s.persist.w = bufio.NewWriter(brokenDisk{})
	_, failures = phase("broken")
	if len(failures) != 32 {
		t.Fatalf("broken phase: %d of 32 writes failed", len(failures))
	}
	for _, err := range failures {
		if !errors.Is(err, errDiskGone) {
			t.Fatalf("failing write returned %v", err)
		}
	}

	// Heal it. Before the latch the next group would commit — and at the
	// parent could persist an edge whose vertex was rolled back.
	s.persist.w = healthyW
	_, healed := phase("healed")
	if len(healed) != 32 {
		t.Fatalf("healed phase: %d of 32 writes failed; the WAL failure is not latched", len(healed))
	}
	for _, err := range healed {
		if err.Error() != failures[0].Error() {
			t.Fatalf("later write failed with %q, want the latched %q", err, failures[0])
		}
	}
	if _, _, err := s.ApplyBatch([]protocol.TrajWrite{protocol.VertexWrite(event("late#0"))}); !errors.Is(err, errDiskGone) {
		t.Errorf("batch after failure: %v", err)
	}
	if got := walFailed(); got != "1" {
		t.Errorf("coralpie_trajstore_wal_failed = %s once latched, want 1", got)
	}

	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}

	// Nothing moved since the last acknowledged write.
	final := s.Snapshot()
	if final != committed {
		t.Errorf("a failed write published a snapshot: version %d -> %d", committed.Version(), final.Version())
	}
	for _, name := range []string{"broken", "healed"} {
		if hops := final.Sightings(name, 0); len(hops) != 0 {
			t.Errorf("%d %s writes are visible", len(hops), name)
		}
		if _, err := final.FindByEventID(protocol.EventID(name + "-w0#0")); !errors.Is(err, ErrVertexNotFound) {
			t.Errorf("%s write found by event ID: %v", name, err)
		}
	}
	gauge := func(name string) int { return int(reg.Gauge(name, "").Value()) }
	if v, e := gauge("coralpie_trajstore_vertices"), gauge("coralpie_trajstore_edges"); v != final.NumVertices() || e != final.NumEdges() {
		t.Errorf("gauges %d/%d, published %d/%d", v, e, final.NumVertices(), final.NumEdges())
	}
	if final.NumVertices() != 33 || final.NumEdges() != 32 || s.NumVertices() != 33 {
		t.Errorf("published %d vertices, %d edges; want 33, 32", final.NumVertices(), final.NumEdges())
	}
	_ = s.Close()

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if reopened.NumVertices() != 33 || reopened.NumEdges() != 32 {
		t.Fatalf("reopened with %d vertices, %d edges; want exactly the acknowledged 33, 32",
			reopened.NumVertices(), reopened.NumEdges())
	}
	for _, id := range acked {
		if _, err := reopened.FindByEventID(id); err != nil {
			t.Errorf("acknowledged write %s lost: %v", id, err)
		}
	}
	if hops := reopened.Snapshot().Sightings("healthy", 0); len(hops) != 32 {
		t.Errorf("reopened store has %d healthy sightings, want 32", len(hops))
	}
}

// TestWALFailedGaugeOnlyWhenPersisting: an in-memory store registers no
// WAL latch, so a simulation's registry dump is unchanged.
func TestWALFailedGaugeOnlyWhenPersisting(t *testing.T) {
	reg := obs.NewRegistry()
	NewMemStore().Instrument(reg, nil)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "coralpie_trajstore_wal_failed") {
		t.Errorf("an in-memory store registered the WAL latch:\n%s", b.String())
	}
}

// TestWALCountersExported: a disk-backed store's WALStats are on its
// registry as coralpie_trajstore_wal_* counters after a fixed write
// sequence, counting writes made before Instrument too; an in-memory
// store registers none of them.
func TestWALCountersExported(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWithConfig(dir, StoreConfig{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertex(event("cam#1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0}); err != nil { // a torn record header
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenWithConfig(dir, StoreConfig{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if _, err := s.AddVertex(event("cam#2")); err != nil { // before Instrument
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s.Instrument(reg, nil)
	s.Instrument(reg, nil) // a second call must not count twice
	if _, err := s.AddVertex(event("cam#3")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(event("cam#4")), protocol.EdgeWrite(2, 3, 0.1), protocol.EdgeWrite(3, 4, 0.1),
	}); err != nil {
		t.Fatal(err)
	}

	st := s.WALStats()
	if want := (WALStats{GroupCommits: 3, Records: 5, Syncs: 3, TailTruncations: 1}); st != want {
		t.Fatalf("WALStats = %+v, want %+v", st, want)
	}
	for name, want := range map[string]int64{
		"coralpie_trajstore_wal_group_commits_total":    st.GroupCommits,
		"coralpie_trajstore_wal_records_total":          st.Records,
		"coralpie_trajstore_wal_syncs_total":            st.Syncs,
		"coralpie_trajstore_wal_tail_truncations_total": st.TailTruncations,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	mem := obs.NewRegistry()
	NewMemStore().Instrument(mem, nil)
	var b strings.Builder
	if err := mem.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "coralpie_trajstore_wal_") {
		t.Errorf("an in-memory store registered WAL counters:\n%s", b.String())
	}
}

// TestUnencodableWriteRejectedBeforeApply: a value JSON cannot carry (the
// RPC responses are JSON) is one writer's error, not a commit failure that
// stops the store for everyone.
func TestUnencodableWriteRejectedBeforeApply(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	a, _ := s.AddVertex(event("cam#1"))
	b, _ := s.AddVertex(event("cam#2"))
	badBins, badYear := event("cam#3"), event("cam#4")
	badBins.Histogram.Bins[3] = math.Inf(1)
	badYear.Timestamp = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)

	if err := s.AddEdge(a, b, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := s.AddVertex(badBins); err == nil {
		t.Error("infinite histogram bin accepted")
	}
	_, errs, err := s.ApplyBatch([]protocol.TrajWrite{
		protocol.VertexWrite(badYear), protocol.EdgeWrite(a, b, 0.1), protocol.VertexWrite(event("cam#5")),
	})
	if err != nil || errs[0] == nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("batch = %v, %v; want only its first record rejected", errs, err)
	}
	if s.NumVertices() != 3 || s.NumEdges() != 1 {
		t.Errorf("store has %d vertices, %d edges; want 3, 1", s.NumVertices(), s.NumEdges())
	}
}

// --- Duplicate event IDs: the lowest vertex ID answers, everywhere ---

func TestSnapshotFindByEventIDDuplicatesDeterministic(t *testing.T) {
	// dup#1 twice and a filler sit in a record log an earlier process
	// wrote; a third dup#1 and both dup#2 then go to the same log.
	dir := t.TempDir()
	var log walBatch
	for i, id := range []string{"dup#1", "filler#1", "dup#1"} {
		v := Vertex{ID: int64(i + 1), Event: event(id)}
		v.Event.VertexID = v.ID
		if err := log.addVertex(&v); err != nil {
			t.Fatal(err)
		}
	}
	writeLog(t, dir, &log)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 3 {
		t.Fatalf("log opened with %d vertices, want 3", s.NumVertices())
	}
	add := func(id string) int64 {
		t.Helper()
		vid, err := s.AddVertex(event(id))
		if err != nil {
			t.Fatal(err)
		}
		return vid
	}
	const first = 1
	add("dup#1")
	second := add("dup#2")
	add("dup#2")

	srv, err := ServeWith(s, "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialContext(context.Background(), srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(where string, find func(protocol.EventID) (Vertex, error)) {
		t.Helper()
		for i := 0; i < 100; i++ {
			for id, want := range map[protocol.EventID]int64{"dup#1": first, "dup#2": second} {
				v, err := find(id)
				if err != nil || v.ID != want {
					t.Fatalf("%s lookup %d of %s = vertex %d, %v; want %d", where, i, id, v.ID, err, want)
				}
			}
		}
	}
	check("local", s.FindByEventID)
	check("wire", func(id protocol.EventID) (Vertex, error) {
		return client.FindByEventIDContext(context.Background(), id)
	})
	if best, err := client.BestContext(context.Background(), "dup#1", DefaultTraceLimits()); err != nil || best.Hops[0].VertexID != first {
		t.Fatalf("best through a duplicated event = %+v, %v", best, err)
	}
	_ = client.Close()
	_ = srv.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if reopened.NumVertices() != 6 {
		t.Fatalf("reopened with %d vertices, want 6", reopened.NumVertices())
	}
	check("reopened", reopened.FindByEventID)
}

// --- Indexes against the scans they replaced ---

// scanFindByEventID is the reference lookup: probe every ID upward, so the
// lowest vertex carrying the event answers.
func scanFindByEventID(sn *Snapshot, id protocol.EventID) (Vertex, error) {
	for vid := int64(1); vid <= sn.MaxVertexID(); vid++ {
		if v, err := sn.Vertex(vid); err == nil && v.Event.ID == id {
			return v, nil
		}
	}
	return Vertex{}, fmt.Errorf("%w: event %q", ErrVertexNotFound, id)
}

// answer marshals a result and its error into comparable bytes.
func answer(v any, err error) []byte {
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
	return raw
}

// TestSnapshotIndexMatchesScanConcurrent checks, on randomized graphs and
// while a batched writer keeps extending them, that the indexed
// FindByEventID, sightings and stats answer byte-for-byte what the scans
// answer on the same snapshot. The graphs are loaded from a log with ID
// gaps (what an older version's rolled-back writes left behind), reuse
// event IDs, and give each vehicle several sightings at one timestamp.
// Odd seeds run on a persistent store, so the committer publishes.
func TestSnapshotIndexMatchesScanConcurrent(t *testing.T) {
	const vehicles, events = 5, 40
	randomEvent := func(rng *rand.Rand) protocol.DetectionEvent {
		e := event(fmt.Sprintf("ev#%d", rng.Intn(events)))
		e.TruthID = fmt.Sprintf("veh-%d", rng.Intn(vehicles))
		e.Timestamp = e.Timestamp.Add(time.Duration(rng.Intn(4)) * time.Second)
		return e
	}
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// A record log with ID gaps, which Open replays.
			var log walBatch
			var ids []int64
			next := int64(1)
			for i := 0; i < 60; i++ {
				next += int64(rng.Intn(3)) // 0: dense, 1-2: a gap
				v := Vertex{ID: next, Event: randomEvent(rng)}
				v.Event.VertexID = v.ID
				if err := log.addVertex(&v); err != nil {
					t.Fatal(err)
				}
				if len(ids) > 0 && rng.Float64() < 0.7 {
					_ = log.addEdge(Edge{From: ids[rng.Intn(len(ids))], To: next, Weight: rng.Float64()})
				}
				ids = append(ids, next)
				next++
			}
			var s *Store
			if seed%2 == 1 {
				dir := t.TempDir()
				writeLog(t, dir, &log)
				var err error
				if s, err = Open(dir); err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewMemStore()
				for off := 0; off < len(log.buf); {
					rec, size, ok := readRecord(log.buf[off:])
					if !ok {
						t.Fatalf("record at byte %d does not decode", off)
					}
					s.applyLogRecord(rec)
					off += size
				}
				s.published.Store(s.snapshotLocked())
			}
			defer func() { _ = s.Close() }()
			if got := s.Snapshot().MaxVertexID(); got != next-1 || s.NumVertices() != len(ids) {
				t.Fatalf("loaded %d vertices up to ID %d, want %d up to %d", s.NumVertices(), got, len(ids), next-1)
			}

			writerDone := make(chan error, 1)
			go func() {
				wrng := rand.New(rand.NewSource(seed ^ 0x77))
				for round := 0; round < 40; round++ {
					first := s.Snapshot().MaxVertexID() + 1 // the only writer: IDs are predictable
					var batch []protocol.TrajWrite
					for k := int64(0); k < 3; k++ {
						batch = append(batch, protocol.VertexWrite(randomEvent(wrng)),
							protocol.EdgeWrite(ids[wrng.Intn(len(ids))], first+k, wrng.Float64()))
					}
					_, errs, err := s.ApplyBatch(batch)
					if err = errors.Join(append(errs, err)...); err != nil {
						writerDone <- err
						return
					}
				}
				writerDone <- nil
			}()

			compare := func(sn *Snapshot) {
				t.Helper()
				nv, ne, err := scanCounts(sn)
				if err != nil || nv != sn.NumVertices() || ne != sn.NumEdges() {
					t.Fatalf("stats %d/%d, scan %d/%d (%v)", sn.NumVertices(), sn.NumEdges(), nv, ne, err)
				}
				for e := 0; e <= events; e++ { // ev#<events> is never inserted
					id := protocol.EventID(fmt.Sprintf("ev#%d", e))
					if got, want := answer(sn.FindByEventID(id)), answer(scanFindByEventID(sn, id)); !bytes.Equal(got, want) {
						t.Fatalf("FindByEventID(%s)\n got: %s\nwant: %s", id, got, want)
					}
				}
				for v := 0; v <= vehicles; v++ {
					veh := fmt.Sprintf("veh-%d", v)
					for _, bound := range []int64{0, 1, rng.Int63n(sn.MaxVertexID()) + 1, sn.MaxVertexID(), sn.MaxVertexID() + 10} {
						scanBound := bound
						if scanBound <= 0 {
							scanBound = sn.MaxVertexID()
						}
						got := answer(sn.Sightings(veh, bound), nil)
						if want := answer(SightingsOf(sn, scanBound, veh)); !bytes.Equal(got, want) {
							t.Fatalf("sightings(%s, %d)\n got: %s\nwant: %s", veh, bound, got, want)
						}
					}
				}
			}
			for running := true; running; {
				select {
				case err := <-writerDone:
					if err != nil {
						t.Fatal(err)
					}
					running = false
				default:
				}
				compare(s.Snapshot())
			}
			final := s.Snapshot()
			if final.NumVertices() != len(ids)+120 {
				t.Fatalf("final snapshot has %d vertices, want %d", final.NumVertices(), len(ids)+120)
			}
			compare(final)
		})
	}
}

// --- Graph-size sweep ---

var benchSink Track

// BenchmarkSnapshotQueryBySize is the query a reader pays right after a
// write — one AddVertex, then Snapshot() and BestTrack — on graphs of
// 10^3 to 10^6 vertices (5-hop tracks, events with no histogram). With a
// watermark snapshot and the event index the cost does not depend on the
// graph's size. 10^6 is skipped under -short.
func BenchmarkSnapshotQueryBySize(b *testing.B) {
	const hops = 5
	epoch := time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)
	eventID := func(vehicle, hop int) protocol.EventID {
		return protocol.EventID(fmt.Sprintf("v%d#%d", vehicle, hop))
	}
	for _, size := range []int{1e3, 1e4, 1e5, 1e6} {
		b.Run(fmt.Sprintf("vertices=%d", size), func(b *testing.B) {
			if size >= 1e6 && testing.Short() {
				b.Skip("10^6 vertices skipped under -short")
			}
			s := NewMemStore()
			vehicles := size / hops
			batch := make([]protocol.TrajWrite, 0, 2*hops*100)
			for v := 0; v < vehicles; v++ {
				for h := 0; h < hops; h++ {
					id := int64(v*hops + h + 1)
					batch = append(batch, protocol.VertexWrite(protocol.DetectionEvent{
						ID: eventID(v, h), CameraID: "cam", TruthID: fmt.Sprintf("veh-%d", v),
						Timestamp: epoch.Add(time.Duration(id) * time.Second),
					}))
					if h > 0 {
						batch = append(batch, protocol.EdgeWrite(id-1, id, 0.1))
					}
				}
				if v%100 == 99 || v == vehicles-1 {
					if _, _, err := s.ApplyBatch(batch); err != nil {
						b.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AddVertex(protocol.DetectionEvent{ID: protocol.NewEventID("late", int64(i)), CameraID: "cam"}); err != nil {
					b.Fatal(err)
				}
				track, err := BestTrack(s.Snapshot(), eventID(rng.Intn(vehicles), rng.Intn(hops)), DefaultTraceLimits())
				if err != nil || len(track.Hops) != hops {
					b.Fatalf("best track = %d hops, %v", len(track.Hops), err)
				}
				benchSink = track
			}
		})
	}
}
