package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rpc"
	"repro/internal/trajstore"
)

// queryMode tells the two query workloads apart.
type queryMode struct {
	name string
	// ingest runs an open-loop writer beside the reader and paces the
	// reader at the same rate (query_under_ingest); otherwise the reader
	// is a closed loop (query_quiet).
	ingest bool
	zipf   bool // skewed keys (query_quiet), so the result cache can hit
}

var (
	queryUnderIngest = queryMode{name: "query_under_ingest", ingest: true}
	queryQuiet       = queryMode{name: "query_quiet", zipf: true}
)

const (
	opBest        = "best"
	opReconstruct = "reconstruct"
	opSightings   = "sightings"
)

// queryKey is one generated query.
type queryKey struct {
	op      string
	vehicle int
	hop     int
}

// queryStream returns the workload's seeded query generator: uniform or
// Zipf(1.1) over the preloaded vehicles, a uniform hop, the 70/20/10
// best/reconstruct/sightings mix, and whether to keep the answer for
// verification (a seeded 1 %).
func queryStream(g *queryGraph, mode queryMode, seed int64) func() (k queryKey, keep bool) {
	rng := rand.New(rand.NewSource(seed ^ 0x6b657973))
	pick := func() int { return rng.Intn(g.vehicles) }
	if mode.zipf {
		z := rand.NewZipf(rng, 1.1, 1, uint64(g.vehicles-1))
		pick = func() int { return int(z.Uint64()) }
	}
	return func() (queryKey, bool) {
		k := queryKey{vehicle: pick(), hop: rng.Intn(g.hops)}
		switch r := rng.Float64(); {
		case r < 0.7:
			k.op = opBest
		case r < 0.9:
			k.op = opReconstruct
		default:
			k.op = opSightings
		}
		return k, rng.Intn(100) == 0
	}
}

// remoteQuery runs k through the server-side engine and returns the
// answer in the form verification compares.
func remoteQuery(ctx context.Context, c *trajstore.Client, k queryKey) (any, error) {
	switch k.op {
	case opBest:
		return c.BestContext(ctx, queryEventID(k.vehicle, k.hop), trajstore.DefaultTraceLimits())
	case opReconstruct:
		return c.ReconstructContext(ctx, queryEventID(k.vehicle, k.hop), trajstore.DefaultTraceLimits())
	default:
		return c.SightingsContext(ctx, queryVehicleID(k.vehicle), 0)
	}
}

// localQuery computes the same answer with the engine on a held snapshot.
func localQuery(snap *trajstore.Snapshot, k queryKey) (any, error) {
	switch k.op {
	case opBest:
		return trajstore.BestTrack(snap, queryEventID(k.vehicle, k.hop), trajstore.DefaultTraceLimits())
	case opReconstruct:
		return trajstore.FindTracks(snap, queryEventID(k.vehicle, k.hop), trajstore.DefaultTraceLimits())
	default:
		return trajstore.SightingsOf(snap, snap.MaxVertexID(), queryVehicleID(k.vehicle))
	}
}

// querySample is a remote answer kept for post-run verification.
type querySample struct {
	key    queryKey
	answer []byte
}

// queryRun is what one pass of a query workload measured.
type queryRun struct {
	window     time.Duration
	queryMs    []float64
	byOp       map[string][]float64
	queries    int64
	queryFails int64
	samples    []querySample

	queryLate []float64 // paced reader: start minus due
	tick      time.Duration

	writes      int64
	writeFails  int64 // vertex inserts that failed; edge failures are on the probe
	writerLate  []float64
	extended    map[int]bool // vehicles the writer appended to
	writerProbe *writerProbe

	cacheHits, cacheMisses int64
	proc                   procDelta
}

// runQueries drives one query client and, for query_under_ingest, one
// open-loop writer: two driver goroutines, each with its own connection.
// Beside the writer the client is open-loop too, at the writer's rate and
// timed from its due times; alone it is a closed loop.
func runQueries(ctx context.Context, d *deployment, sc scale, mode queryMode, seed int64, window time.Duration, rec *recorder) (*queryRun, error) {
	run := &queryRun{byOp: make(map[string][]float64), extended: make(map[int]bool)}
	client, err := trajstore.DialContext(ctx, d.trajSrv.Addr(), trajClientConfig(obs.NewRegistry()))
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }()
	var sw *storeWriter
	if mode.ingest {
		if sw, err = dialStoreWriter(ctx, d.trajSrv.Addr(), obs.NewRegistry(), rec, "write"); err != nil {
			return nil, err
		}
		defer func() { _ = sw.close() }()
		run.writerProbe = sw.probe
	}

	before := d.trajSrv.QueryStats()
	meter := startProcMeter(rec != nil)
	start := time.Now()
	var wg sync.WaitGroup
	var writerErr error
	if mode.ingest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writerErr = runWriter(ctx, d.graph, sc, seed, sw, start, window, run)
		}()
	}

	next := queryStream(d.graph, mode, seed)
	run.tick = time.Duration(float64(time.Second) / sc.ingestOpsPerSec)
	pace := openLoop{start: start, interval: run.tick}
	for i := 0; ; i++ {
		iterStart := time.Now()
		if mode.ingest {
			due := pace.due(i)
			if due.Sub(start) >= window {
				break
			}
			if err := rpc.Sleep(ctx, time.Until(due)); err != nil {
				return nil, err
			}
			iterStart = pace.begin(i, time.Now())
		} else if iterStart.Sub(start) >= window {
			break
		}
		k, keep := next()
		callStart := time.Now()
		answer, err := remoteQuery(ctx, client, k)
		callEnd := time.Now()
		run.queries++
		if err != nil {
			run.queryFails++
			continue
		}
		lat := ms(callEnd.Sub(iterStart)) // from the due time when paced
		run.queryMs = append(run.queryMs, lat)
		run.byOp[k.op] = append(run.byOp[k.op], lat)
		if keep {
			raw, err := json.Marshal(answer)
			if err != nil {
				return nil, err
			}
			run.samples = append(run.samples, querySample{k, raw})
		}
		if rec != nil {
			root := spanRef{id: rec.newID(), trace: strconv.FormatInt(run.queries, 10)}
			rec.leaf("trajstore.query_"+k.op, root, callStart, callEnd)
			rec.record("query", root.id, 0, root.trace, iterStart, time.Now())
		}
	}
	run.window, run.queryLate = time.Since(start), pace.late
	wg.Wait()
	if writerErr != nil {
		return nil, writerErr
	}
	run.proc = meter.stop()
	after := d.trajSrv.QueryStats()
	run.cacheHits, run.cacheMisses = after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	return run, nil
}

// runWriter appends one sighting per tick to a preloaded track, the way a
// camera node writes a handoff: a synchronous vertex insert, then the
// edge queued on the BatchWriter. It takes turns over a seeded quarter of
// the tracks, so the others stay as preloaded and answers about them can
// be verified after the run. Latency counts from the tick's due time.
func runWriter(ctx context.Context, g *queryGraph, sc scale, seed int64, sw *storeWriter, start time.Time, window time.Duration, run *queryRun) error {
	rng := rand.New(rand.NewSource(seed ^ 0x77726974))
	growing := rng.Perm(g.vehicles)[:g.vehicles/4]
	loop := openLoop{start: start, interval: time.Duration(float64(time.Second) / sc.ingestOpsPerSec)}
	for i := 0; ; i++ {
		due := loop.due(i)
		if due.Sub(start) >= window {
			break
		}
		if err := rpc.Sleep(ctx, time.Until(due)); err != nil {
			return err
		}
		loop.begin(i, time.Now())
		v, hop := growing[i%len(growing)], g.hops+i/len(growing)
		run.extended[v] = true
		sw.probe.cur.handIn = due
		run.writes++
		vid, err := sw.store.AddVertex(protocol.DetectionEvent{
			ID:        queryEventID(v, hop),
			CameraID:  queryCamID(hop),
			Timestamp: time.Now(),
			Histogram: sparseHistogram(rng),
			TrackID:   int64(v),
			TruthID:   queryVehicleID(v),
		})
		if err != nil {
			run.writeFails++
			continue
		}
		sw.store.QueueEdge(g.last[v], vid, 0.05+0.1*rng.Float64(), nil)
		g.last[v] = vid
	}
	run.writerLate = loop.late
	if err := sw.store.Flush(ctx); err != nil {
		return fmt.Errorf("writer flush: %w", err)
	}
	return nil
}
