package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/protocol"
)

// runEnv is what every pass of one invocation shares.
type runEnv struct {
	sc      scale
	seed    int64
	tmpRoot string
}

// passResult is one deployment's worth of measurement: one set-up, one
// window, verification, and — when traced — spans and probes.
type passResult struct {
	ladder    map[string]float64 // the ladder's end-to-end metrics defined on this workload
	contract  map[string]float64 // op_p50_ms … goodput_ratio
	timings   map[string]timing
	layers    map[string]float64 // traced pass only
	attempted int64
	failed    int64
	setup     setupTiming
	windowS   float64
	verified  map[string]int // what output verification checked, by kind
	spans     []span
	attrib    map[string][]attribRow
}

func newPassResult() *passResult {
	return &passResult{
		ladder: make(map[string]float64), contract: make(map[string]float64),
		timings: make(map[string]timing), verified: make(map[string]int),
		attrib: make(map[string][]attribRow),
	}
}

// runPass deploys, runs one workload window, verifies outputs, and tears
// down. window is how long load is offered.
func runPass(ctx context.Context, env runEnv, workload string, window time.Duration, traced bool) (res *passResult, err error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	d, err := deploy(ctx, deployConfig{sc: env.sc, seed: env.seed, tmpRoot: env.tmpRoot,
		storeFrames: workload == frameFlood.name, rec: rec})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			res, err = nil, fmt.Errorf("teardown: %w", cerr)
		}
	}()
	res = newPassResult()
	res.setup = d.setup
	res.ladder["setup_s"] = d.setup.totalS
	if traced {
		res.layers = make(map[string]float64, len(layerMetrics))
		for _, m := range layerMetrics {
			res.layers[m.Name] = 0
		}
		res.layers["topology.mdcs_converge_ms"] = d.setup.convergeS * 1e3
	}
	switch workload {
	case handoffStream.name:
		err = ingestPass(ctx, env, d, handoffStream, window, rec, res)
	case frameFlood.name:
		err = ingestPass(ctx, env, d, frameFlood, window, rec, res)
	case queryUnderIngest.name:
		err = queryPass(ctx, env, d, queryUnderIngest, window, rec, res)
	case queryQuiet.name:
		err = queryPass(ctx, env, d, queryQuiet, window, rec, res)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	if traced {
		res.spans = rec.all()
		for root, rows := range attribute(res.spans) {
			res.attrib[root] = rows
		}
		for name, v := range res.ladder {
			if _, ok := res.layers[name]; ok {
				res.layers[name] = v
			}
		}
	}
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *passResult) timing(name string, values []float64) timing {
	t := summarize(values)
	r.timings[name] = t
	return t
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// writerLayers fills the trajstore write-path rows from the probes of the
// run's writers (camera nodes, or the query_under_ingest writer).
func writerLayers(res *passResult, probes []*writerProbe) {
	var addVertex, addBatch, sizes, wait, unexplained []float64
	var retries int64
	for _, p := range probes {
		p.mu.Lock()
		addVertex = append(addVertex, p.addVertexUs...)
		addBatch = append(addBatch, p.addBatchUs...)
		sizes = append(sizes, p.batchSizes...)
		wait = append(wait, p.queueWaitMs...)
		unexplained = append(unexplained, p.unexplained...)
		retries += p.flushRetries
		p.mu.Unlock()
	}
	av := res.timing("trajstore.add_vertex_us", addVertex)
	ab := res.timing("trajstore.add_batch_us", addBatch)
	res.layers["trajstore.add_vertex_p50_us"], res.layers["trajstore.add_vertex_p95_us"] = av.P50, av.P95
	res.layers["trajstore.add_batch_p50_us"], res.layers["trajstore.add_batch_p95_us"] = ab.P50, ab.P95
	res.layers["trajstore.batch_queue_wait_p50_ms"] = res.timing("trajstore.batch_queue_wait_ms", wait).P50
	res.layers["trajstore.batch_size_mean"] = summarize(sizes).Mean
	res.layers["trajstore.flush_retries_total"] = float64(retries)
	res.layers["attribution.track_commit_unexplained_ms"] = summarize(unexplained).Mean
}

func procLayers(res *passResult, p procDelta, ops int64) {
	res.layers["proc.allocs_per_op"] = ratio(float64(p.mallocs), float64(ops))
	res.layers["proc.alloc_kb_per_op"] = ratio(float64(p.allocBytes)/1024, float64(ops))
	res.layers["proc.gc_pause_ms_total"] = ms(p.gcPause)
	res.layers["proc.peak_rss_mb"] = p.peakRSSMB
	res.layers["proc.goroutines_peak"] = float64(p.goroutinesPeak)
}

// runProbes runs every post-run probe; all workloads run all of them, so
// a floor that moves shows on every row of the ladder. keysOf names the
// query stream the engine probes replay.
func runProbes(ctx context.Context, env runEnv, d *deployment, keysOf queryMode, res *passResult) (engineMeanMs float64, err error) {
	newest, err := d.store.Vertex(int64(d.store.NumVertices()))
	if err != nil {
		return 0, err
	}
	next := queryStream(d.graph, keysOf, env.seed)
	keys := make([]queryKey, env.sc.probeRounds)
	for i := range keys {
		keys[i], _ = next()
	}
	if engineMeanMs, err = probeTrajstore(ctx, d, env.sc, env.seed, keys, res.layers); err != nil {
		return 0, fmt.Errorf("trajstore probes: %w", err)
	}
	recs, err := probeProtocol(d, env.sc, newest.Event, res.layers)
	if err != nil {
		return 0, fmt.Errorf("protocol probes: %w", err)
	}
	if err := probeFramestore(d, env.sc, recs, res.layers); err != nil {
		return 0, fmt.Errorf("framestore probes: %w", err)
	}
	return engineMeanMs, nil
}

func ingestPass(ctx context.Context, env runEnv, d *deployment, mode ingestMode, window time.Duration, rec *recorder, res *passResult) error {
	walDir := filepath.Join(d.dir, "traj")
	wal0, walBytes0 := d.store.WALStats(), dirBytes(walDir)
	run, err := runIngest(ctx, d, env.sc, mode, window, rec)
	if err != nil {
		return err
	}
	wal1, walBytes1 := d.store.WALStats(), dirBytes(walDir)

	// Output verification.
	committed, err := verifyGraph(d.store.Snapshot(), d.world.camIDs)
	if err != nil {
		return err
	}
	if err := verifyNodes(d); err != nil {
		return err
	}
	if res.verified["frames_read_back"], err = verifyFrames(d); err != nil {
		return err
	}
	commitRatio, handoffs := handoffCommitRatio(d.world.truthHandoffs(), committed)
	res.verified["ground_truth_handoffs"] = handoffs

	var commits []float64
	var events, matches, informs, sendErrs int64
	probes := make([]*writerProbe, len(d.nodes))
	for i, n := range d.nodes {
		st := n.node.Stats()
		events, matches, informs, sendErrs = events+st.EventsGenerated, matches+st.ReidMatches, informs+st.InformsSent, sendErrs+st.SendErrors
		probes[i] = n.sw.probe
		n.sw.probe.mu.Lock()
		commits = append(commits, n.sw.probe.commitMs...)
		n.sw.probe.mu.Unlock()
	}
	res.verified["track_commits"] = len(commits)
	frames := float64(run.frames)
	res.windowS = run.windowEnd.Sub(run.firstHandIn).Seconds()
	commit := res.timing("track_commit_ms", commits)
	perFrame := res.timing("frame_ms", scaled(run.processUs, 1e-3))
	// The generator renders in this process; its time is not the system's.
	cpuPerFrame := ms(run.proc.cpu-time.Duration(run.renderNs)) / frames

	res.ladder["track_commit_p50_ms"] = commit.P50
	res.ladder["handoff_commit_ratio"] = commitRatio
	res.ladder["cpu_ms_per_frame"] = cpuPerFrame
	res.contract["cpu_ms_per_op"] = cpuPerFrame
	res.attempted = run.frames
	res.failed = sendErrs

	if mode.storeFrames {
		sent := d.frames.sentCount()
		stored := sent // frames safely at every replica
		for _, r := range d.replicas {
			received, _ := r.srv.Stats()
			stored = min(stored, received)
		}
		res.failed += sent - stored
		res.ladder["frames_per_s"] = ratio(float64(stored), run.drained.Sub(run.firstHandIn).Seconds())
		res.ladder["frame_ack_ratio"] = ratio(float64(stored), float64(sent))
		res.contract["op_p50_ms"], res.contract["op_p95_ms"] = perFrame.P50, perFrame.P95
		res.contract["ops_per_s"] = res.ladder["frames_per_s"]
		res.contract["goodput_ratio"] = res.ladder["frame_ack_ratio"]
	} else {
		res.ladder["track_commit_p95_ms"] = commit.P95
		res.contract["op_p50_ms"], res.contract["op_p95_ms"] = commit.P50, commit.P95
		res.contract["ops_per_s"] = ratio(frames, res.windowS)
		res.contract["goodput_ratio"] = commitRatio
	}
	res.ladder["error_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	// Run validity: the generator must not be what is measured.
	late := res.timing("loadgen.late_ms", run.lateMs)
	if p75 := quantile(run.lateMs, 75); mode.openLoop && p75 > env.sc.maxLateTicks*ms(run.tickWall) {
		return fmt.Errorf("invalid run: a quarter of the ticks started more than %.2f ms late; a tick is %.2f ms", p75, ms(run.tickWall))
	}
	busy := ratio(float64(run.renderNs), float64(run.windowEnd.Sub(run.firstHandIn)))
	if mode.storeFrames && busy > 0.3 {
		return fmt.Errorf("invalid run: rendering took %.0f%% of the driver's time, more than 30%%", busy*100)
	}
	if rec == nil {
		return nil
	}

	// Per-layer rows.
	st := analyzeSpans(rec.all())
	L := res.layers
	L["loadgen.render_us"] = median(st.dur["loadgen.render"]) / 1e3
	L["loadgen.busy_share"] = busy
	L["loadgen.late_p95_ms"] = late.P95
	L["loadgen.achieved_rate_ratio"] = 1
	if mode.openLoop {
		offered := float64(window/run.tickWall) * float64(len(d.nodes))
		L["loadgen.achieved_rate_ratio"] = ratio(frames, offered)
	}
	process := res.timing("camnode.process_frame_us", run.processUs)
	L["camnode.process_frame_p50_us"], L["camnode.process_frame_p95_us"] = process.P50, process.P95
	L["camnode.self_us"] = median(st.self["camnode.process_frame"]) / 1e3
	L["camnode.events_total"] = float64(events)
	L["camnode.reid_match_ratio"] = ratio(float64(matches), float64(events))
	L["camnode.send_errors_total"] = float64(sendErrs)
	L["vision.detect_us"] = median(st.dur["vision.detect"]) / 1e3
	var sends []float64
	for _, typ := range []protocol.MessageType{protocol.TypeInform, protocol.TypeConfirm, protocol.TypeRetire} {
		sends = append(sends, st.dur["transport.send."+string(typ)]...)
	}
	send := res.timing("transport.send_us", scaled(sends, 1e-3))
	L["transport.send_p50_us"], L["transport.send_p95_us"] = send.P50, send.P95
	d.informs.mu.Lock()
	delivery := res.timing("transport.inform_delivery_ms", d.informs.deliveryMs)
	d.informs.mu.Unlock()
	L["transport.inform_delivery_p50_ms"], L["transport.inform_delivery_p95_ms"] = delivery.P50, delivery.P95
	L["transport.informs_per_event"] = ratio(float64(informs), float64(events))
	writerLayers(res, probes)
	L["trajstore.wal_records_per_commit"] = ratio(float64(wal1.Records-wal0.Records), float64(wal1.GroupCommits-wal0.GroupCommits))
	L["trajstore.wal_bytes_per_record"] = ratio(float64(walBytes1-walBytes0), float64(wal1.Records-wal0.Records))
	L["attribution.frame_unexplained_us"] = summarize(st.self["frame"]).Mean / 1e3
	procLayers(res, run.proc, run.frames)

	if mode.storeFrames {
		clientSend := res.timing("framestore.client_send_us", scaled(st.dur["framestore.client_send"], 1e-3))
		L["framestore.client_send_p50_us"], L["framestore.client_send_p95_us"] = clientSend.P50, clientSend.P95
		L["framestore.replica_lag_max_frames"] = float64(run.lagMax)
		L["framestore.drain_s"] = run.drained.Sub(run.windowEnd).Seconds()
		var stored, storedBytes, gcRuns, gcBytes, replicaErrs int64
		for _, r := range d.replicas {
			received, errs := r.srv.Stats()
			stored += received
			replicaErrs += errs
			storedBytes += r.reg.Counter("coralpie_framestore_bytes_total", "").Value()
			gcRuns += r.reg.Counter("coralpie_framestore_gc_runs_total", "").Value()
			gcBytes += r.reg.Counter("coralpie_framestore_gc_reclaimed_bytes_total", "").Value()
		}
		d.frames.mu.Lock()
		replicaErrs += d.frames.sendErr
		d.frames.mu.Unlock()
		spec := d.world.cameras[0].Spec()
		L["framestore.bytes_amplification"] = ratio(float64(storedBytes), float64(stored)*float64(spec.Width*spec.Height*3))
		L["framestore.gc_runs_total"] = float64(gcRuns)
		L["framestore.gc_reclaimed_mb"] = float64(gcBytes) / (1 << 20)
		L["framestore.replica_errors_total"] = float64(replicaErrs)
	}
	_, err = runProbes(ctx, env, d, queryUnderIngest, res)
	return err
}

func scaled(values []float64, k float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v * k
	}
	return out
}

func queryPass(ctx context.Context, env runEnv, d *deployment, mode queryMode, window time.Duration, rec *recorder, res *passResult) error {
	walDir := filepath.Join(d.dir, "traj")
	wal0, walBytes0 := d.store.WALStats(), dirBytes(walDir)
	run, err := runQueries(ctx, d, env.sc, mode, env.seed, window, rec)
	if err != nil {
		return err
	}
	wal1, walBytes1 := d.store.WALStats(), dirBytes(walDir)

	// Output verification.
	snap := d.store.Snapshot()
	if _, err := verifyGraph(snap, nil); err != nil {
		return err
	}
	if res.verified["query_answers"], err = verifyQueries(snap, d.graph, run); err != nil {
		return err
	}

	res.windowS = run.window.Seconds()
	q := res.timing("query_ms", run.queryMs)
	res.ladder["query_p50_ms"], res.ladder["query_p95_ms"] = q.P50, q.P95
	qps := ratio(float64(len(run.queryMs)), res.windowS)
	if !mode.ingest {
		res.ladder["queries_per_s"] = qps // paced beside the writer: the offered rate, not a result
	}
	res.attempted = run.queries + run.writes
	res.failed = run.queryFails + run.writeFails
	if p := run.writerProbe; p != nil {
		p.mu.Lock()
		wc := res.timing("write_commit_ms", p.commitMs)
		unacked := run.writes - run.writeFails - p.edgesAcked
		p.mu.Unlock()
		res.failed += unacked // edge errors and edges never acked
		res.ladder["write_commit_p50_ms"], res.ladder["write_commit_p95_ms"] = wc.P50, wc.P95
	}
	res.ladder["error_ratio"] = ratio(float64(res.failed), float64(res.attempted))
	res.contract["op_p50_ms"], res.contract["op_p95_ms"] = q.P50, q.P95
	res.contract["ops_per_s"] = qps
	res.contract["cpu_ms_per_op"] = ratio(ms(run.proc.cpu), float64(len(run.queryMs)))
	res.contract["goodput_ratio"] = 1 - res.ladder["error_ratio"]
	late := res.timing("loadgen.late_ms", append(run.writerLate, run.queryLate...))
	if rec == nil {
		return nil
	}

	L := res.layers
	L["trajstore.query_cache_hit_ratio"] = ratio(float64(run.cacheHits), float64(run.cacheHits+run.cacheMisses))
	for _, op := range []string{opBest, opReconstruct, opSightings} {
		L["trajstore.query_"+op+"_p50_ms"] = res.timing("query_"+op+"_ms", run.byOp[op]).P50
	}
	L["loadgen.achieved_rate_ratio"] = 1
	if run.writerProbe != nil {
		L["loadgen.late_p95_ms"] = late.P95
		L["loadgen.achieved_rate_ratio"] = ratio(float64(run.writes), float64(window/run.tick))
		writerLayers(res, []*writerProbe{run.writerProbe})
		L["trajstore.wal_records_per_commit"] = ratio(float64(wal1.Records-wal0.Records), float64(wal1.GroupCommits-wal0.GroupCommits))
		L["trajstore.wal_bytes_per_record"] = ratio(float64(walBytes1-walBytes0), float64(wal1.Records-wal0.Records))
	}
	procLayers(res, run.proc, int64(len(run.queryMs)))
	engine, err := runProbes(ctx, env, d, mode, res)
	if err != nil {
		return err
	}

	// What a remote query costs beyond the pieces priced in isolation:
	// the engine on a held snapshot (on the run's own key stream, for the
	// share of queries the result cache missed), the RPC floor, and — when
	// a write landed since the previous query — one snapshot rebuild.
	engine *= 1 - L["trajstore.query_cache_hit_ratio"]
	rebuilds := rebuildShare(rec.all(), run.writerProbe)
	rows := []attribRow{
		{"trajstore.snapshot_rebuild (probe x share of queries after a write)", rebuilds * L["trajstore.snapshot_rebuild_ms"]},
		{"trajstore.engine (probe on the run's keys x cache-miss share)", engine},
		{"rpc.roundtrip_floor (probe)", L["rpc.roundtrip_floor_us"] / 1e3},
	}
	unexplained := q.Mean
	for _, r := range rows {
		unexplained -= r.MeanMs
	}
	L["attribution.query_unexplained_ms"] = unexplained
	res.attrib["query_estimate"] = append(rows, attribRow{"unexplained", unexplained})
	return nil
}

// rebuildShare estimates the share of queries that had to rebuild the
// snapshot: those with a store mutation (a vertex or batch ack) between
// the previous query's start and their own end.
func rebuildShare(spans []span, p *writerProbe) float64 {
	if p == nil {
		return 0
	}
	var muts []int64
	var calls [][2]int64
	for _, sp := range spans {
		switch {
		case sp.Name == "trajstore.add_vertex" || sp.Name == "trajstore.add_batch":
			muts = append(muts, sp.EndNs)
		case strings.HasPrefix(sp.Name, "trajstore.query_"):
			calls = append(calls, [2]int64{sp.StartNs, sp.EndNs})
		}
	}
	sort.Slice(muts, func(i, j int) bool { return muts[i] < muts[j] })
	sort.Slice(calls, func(i, j int) bool { return calls[i][0] < calls[j][0] })
	hit, prev := 0, int64(0)
	for _, c := range calls {
		i := sort.Search(len(muts), func(i int) bool { return muts[i] > prev })
		if i < len(muts) && muts[i] <= c[1] {
			hit++
		}
		prev = c[0]
	}
	return ratio(float64(hit), float64(len(calls)))
}

// attribRow is one line of an attribution table: a layer's mean self time
// per root span.
type attribRow struct {
	Layer  string  `json:"layer"`
	MeanMs float64 `json:"mean_ms"`
}

// attribute splits each kind of root span (frame, handoff, write, query)
// into the self time of every span name beneath it, as a mean per root.
// The rows of one root add up to that root's mean duration exactly; the
// row named after the root itself is what no child accounts for.
func attribute(spans []span) map[string][]attribRow {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	rootOf := func(sp *span) *span {
		for sp.Parent != 0 {
			parent, ok := byID[sp.Parent]
			if !ok {
				return nil
			}
			sp = parent
		}
		return sp
	}
	self := selfTimes(spans)
	totals := make(map[string]map[string]float64)
	roots := make(map[string]int)
	for i := range spans {
		sp := &spans[i]
		root := rootOf(sp)
		if root == nil {
			continue
		}
		if sp == root {
			roots[root.Name]++
		}
		if totals[root.Name] == nil {
			totals[root.Name] = make(map[string]float64)
		}
		totals[root.Name][sp.Name] += float64(self[sp.ID])
	}
	out := make(map[string][]attribRow)
	for root, layers := range totals {
		if len(layers) == 1 {
			continue // a span that is only ever a childless root (e.g. a heartbeat send)
		}
		for name, total := range layers {
			if name == root {
				name = "unexplained"
			}
			out[root] = append(out[root], attribRow{name, total / float64(roots[root]) / 1e6})
		}
		sort.Slice(out[root], func(i, j int) bool { return out[root][i].MeanMs > out[root][j].MeanMs })
	}
	return out
}
