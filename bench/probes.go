package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/framestore"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trajstore"
)

// Post-run probes: after a traced pass has been verified, call public
// functions of single layers on the run's own data — the final graph, the
// last frame records — to price the steps no decorator can see inside.
// They run on a quiet system, so they give floors, not in-run costs.

// timeEach returns the duration of each call of fn, in the given unit.
func timeEach(rounds int, unit func(time.Duration) float64, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, unit(time.Since(start)))
	}
	return out, nil
}

// probeTrajstore fills the trajstore read-path and rpc rows. keys are the
// head of the query stream the run drew from (same seed, same
// distribution, same op mix), so the local engine is priced on the run's
// own keys; it returns the engine's mean cost per query of that stream.
func probeTrajstore(ctx context.Context, d *deployment, sc scale, seed int64, keys []queryKey, layers map[string]float64) (engineMeanMs float64, err error) {
	rng := rand.New(rand.NewSource(seed ^ 0x70726f62))

	// Store.Snapshot() right after a write: the O(V+E) copy a query pays
	// whenever ingest has touched the graph since the last query. The
	// writes also empty the server's result cache for what follows.
	var rebuild []float64
	for i := 0; i < 5; i++ {
		if _, err := d.store.AddVertex(protocol.DetectionEvent{
			ID:        protocol.NewEventID("probe", int64(i)),
			CameraID:  "probe",
			Timestamp: time.Now(),
			Histogram: sparseHistogram(rng),
		}); err != nil {
			return 0, fmt.Errorf("snapshot probe write: %w", err)
		}
		start := time.Now()
		d.store.Snapshot()
		rebuild = append(rebuild, ms(time.Since(start)))
	}
	layers["trajstore.snapshot_rebuild_ms"] = median(rebuild)

	snap := d.store.Snapshot()
	find, err := timeEach(len(keys), us, func(i int) error {
		_, err := snap.FindByEventID(queryEventID(keys[i].vehicle, keys[i].hop))
		return err
	})
	if err != nil {
		return 0, err
	}
	layers["trajstore.find_event_us"] = median(find)

	byOp := make(map[string][]float64)
	local, err := timeEach(len(keys), us, func(i int) error {
		_, err := localQuery(snap, keys[i])
		return err
	})
	if err != nil {
		return 0, err
	}
	for i, took := range local {
		byOp[keys[i].op] = append(byOp[keys[i].op], took)
	}
	for _, op := range []string{opBest, opReconstruct, opSightings} {
		layers["trajstore.engine_"+op+"_us"] = median(byOp[op])
	}

	client, err := trajstore.DialContext(ctx, d.trajSrv.Addr(), trajClientConfig(obs.NewRegistry()))
	if err != nil {
		return 0, err
	}
	defer func() { _ = client.Close() }()
	// The floor is the cheapest constant-time request the protocol has
	// (one vertex's out-edges). The stats op is smaller on the wire but
	// walks all adjacency on the server, ~1 ms at 10^5 vertices.
	floor, err := timeEach(sc.probeRounds, us, func(int) error {
		_, err := client.OutEdgesContext(ctx, 1)
		return err
	})
	if err != nil {
		return 0, err
	}
	layers["rpc.roundtrip_floor_us"] = median(floor)

	// Remote minus local on identical, distinct keys, so neither side is
	// helped by the result cache.
	distinct := rng.Perm(d.graph.vehicles)[:min(sc.probeRounds, d.graph.vehicles)]
	key := func(i int) queryKey { return queryKey{op: opBest, vehicle: distinct[i], hop: i % d.graph.hops} }
	remoteBest, err := timeEach(len(distinct), us, func(i int) error {
		_, err := remoteQuery(ctx, client, key(i))
		return err
	})
	if err != nil {
		return 0, err
	}
	localBest, err := timeEach(len(distinct), us, func(i int) error {
		_, err := localQuery(snap, key(i))
		return err
	})
	if err != nil {
		return 0, err
	}
	layers["rpc.query_overhead_us"] = median(remoteBest) - median(localBest)
	return summarize(local).Mean / 1e3, nil
}

// probeProtocol prices the wire codec on the run's own messages: the
// frame records last shipped (or one rendered now, when the workload
// stored none) and an inform carrying the newest stored event.
func probeProtocol(d *deployment, sc scale, newest protocol.DetectionEvent, layers map[string]float64) ([]protocol.FrameRecord, error) {
	d.frames.mu.Lock()
	recs := append([]protocol.FrameRecord(nil), d.frames.recent...)
	d.frames.mu.Unlock()
	if len(recs) == 0 {
		f := d.world.cameras[0].Render(0)
		recs = append(recs, protocol.FrameRecord{CameraID: "probe", Seq: f.Seq, Timestamp: time.Now(),
			Width: f.Image.Width, Height: f.Image.Height, Pixels: f.Image.Pix})
	}
	rounds := max(4, sc.probeRounds/10)
	var wire bytes.Buffer
	var wireBytes int
	enc, err := timeEach(rounds, us, func(i int) error {
		wire.Reset()
		env, err := protocol.Seal(recs[i%len(recs)])
		if err != nil {
			return err
		}
		err = protocol.WriteEnvelope(&wire, env)
		wireBytes = wire.Len()
		return err
	})
	if err != nil {
		return nil, err
	}
	encoded := append([]byte(nil), wire.Bytes()...)
	dec, err := timeEach(rounds, us, func(int) error {
		env, err := protocol.ReadEnvelope(bytes.NewReader(encoded))
		if err != nil {
			return err
		}
		_, err = protocol.Open(env)
		return err
	})
	if err != nil {
		return nil, err
	}
	layers["protocol.frame_encode_us"] = median(enc)
	layers["protocol.frame_decode_us"] = median(dec)
	layers["protocol.frame_wire_bytes"] = float64(wireBytes)

	inform := protocol.Inform{Event: newest, FromAddr: d.nodes[0].ep.Addr()}
	informEnc, err := timeEach(sc.probeRounds, us, func(int) error {
		wire.Reset()
		env, err := protocol.Seal(inform)
		if err != nil {
			return err
		}
		err = protocol.WriteEnvelope(&wire, env)
		wireBytes = wire.Len()
		return err
	})
	if err != nil {
		return nil, err
	}
	layers["protocol.inform_encode_us"] = median(informEnc)
	layers["protocol.inform_wire_bytes"] = float64(wireBytes)
	return recs, nil
}

// probeFramestore prices one disk append and one disk read on a scratch
// store fed the same records.
func probeFramestore(d *deployment, sc scale, recs []protocol.FrameRecord, layers map[string]float64) error {
	store, err := framestore.OpenStoreConfig(filepath.Join(d.dir, "probe-frames"), framestore.Config{SegmentBytes: sc.segmentBytes})
	if err != nil {
		return err
	}
	defer func() { _ = store.Close() }()
	rounds := max(4, sc.probeRounds/10)
	put, err := timeEach(rounds, us, func(i int) error {
		rec := recs[i%len(recs)]
		rec.CameraID, rec.Seq = "probe", int64(i)
		return store.Put(rec)
	})
	if err != nil {
		return err
	}
	get, err := timeEach(rounds, us, func(i int) error {
		_, err := store.Get("probe", int64(i))
		return err
	})
	if err != nil {
		return err
	}
	layers["framestore.put_us"] = median(put)
	layers["framestore.get_us"] = median(get)
	return nil
}
