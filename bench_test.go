package coralpie

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 5), reporting the headline quantity of each as a
// custom metric, plus micro-benchmarks of the hot-path components that
// back Table 1's sub-task rows.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Human-readable paper-vs-measured output comes from cmd/experiments.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/hungarian"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/vision"
)

// --- Table 1: latency summary and pipeline throughput ---

func BenchmarkTable1(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		fps = res.PipelinedFPS
	}
	b.ReportMetric(fps, "pipelined-FPS")
}

// BenchmarkThroughput isolates the Section 5.2 pipelined-vs-sequential
// comparison on the timing model.
func BenchmarkThroughput(b *testing.B) {
	profile := pipeline.PaperRPi3Profile()
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := pipeline.SimulateTandem(profile.DualDeviceStages(), time.Second/15, 2000)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.ThroughputFPS / pipeline.SequentialThroughputFPS(profile.DualDeviceStages())
	}
	b.ReportMetric(speedup, "speedup-x")
}

// --- Table 2: event detection accuracy ---

func BenchmarkTable2(b *testing.B) {
	var f2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(17)
		if err != nil {
			b.Fatal(err)
		}
		f2 = res.MacroF2
	}
	b.ReportMetric(f2, "macro-F2")
}

// --- Figure 10(a): message vs vehicle arrival ---

func BenchmarkFigure10a(b *testing.B) {
	var headstart time.Duration
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10a(7)
		if err != nil {
			b.Fatal(err)
		}
		headstart = res.MinHeadstart
	}
	b.ReportMetric(headstart.Seconds(), "min-headstart-s")
}

// --- Figure 10(b): candidate-pool redundancy, MDCS vs broadcast ---

func BenchmarkFigure10b(b *testing.B) {
	var mdcs, broadcast float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10b(11)
		if err != nil {
			b.Fatal(err)
		}
		mdcs, broadcast = res.MeanMDCS, res.MeanBroadcast
	}
	b.ReportMetric(mdcs*100, "mdcs-redundant-%")
	b.ReportMetric(broadcast*100, "broadcast-redundant-%")
}

// BenchmarkAblationBroadcast is the broadcast-flooding half of Figure
// 10(b) viewed as a design ablation.
func BenchmarkAblationBroadcast(b *testing.B) {
	var redundant float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultCorridorConfig(11)
		cfg.Vehicles = 24
		cfg.PerfectDetector = true
		cfg.Broadcast = true
		run, err := experiments.RunCorridor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := run.RedundancyOf(experiments.CameraName(5))
		if err != nil {
			b.Fatal(err)
		}
		redundant = r
	}
	b.ReportMetric(redundant*100, "cam5-redundant-%")
}

// --- Figure 11: failure recovery ---

func BenchmarkFigure11Heartbeat2s(b *testing.B) {
	benchmarkFigure11(b, 2*time.Second)
}

func BenchmarkFigure11Heartbeat5s(b *testing.B) {
	benchmarkFigure11(b, 5*time.Second)
}

func benchmarkFigure11(b *testing.B, heartbeat time.Duration) {
	b.Helper()
	var maxRatio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11(heartbeat, 10, 3)
		if err != nil {
			b.Fatal(err)
		}
		maxRatio = res.MaxOverHeartbeat
	}
	b.ReportMetric(maxRatio, "max-recovery-over-heartbeat")
}

// --- Figure 12(a): MDCS size vs deployment size ---

func BenchmarkFigure12a(b *testing.B) {
	var at10, final float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12a(9)
		if err != nil {
			b.Fatal(err)
		}
		at10, final = res.AvgAt10, res.FinalAvg
	}
	b.ReportMetric(at10, "avg-mdcs@10")
	b.ReportMetric(final, "avg-mdcs@37")
}

// --- Figure 12(b): redundancy vs density ---

func BenchmarkFigure12b(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12b(13)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Points[len(res.Points)-1].Redundant
	}
	b.ReportMetric(last*100, "redundant-at-2-cameras-%")
}

// --- Section 5.6: re-identification accuracy ---

func BenchmarkReidAccuracy(b *testing.B) {
	var f2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ReidAccuracy(19)
		if err != nil {
			b.Fatal(err)
		}
		f2 = res.F2
	}
	b.ReportMetric(f2, "reid-F2")
}

// --- Section 4.1.5 ablations ---

func BenchmarkAblationSingleDevice(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSingleDevice()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.DualFPS / res.SingleFPS
	}
	b.ReportMetric(ratio, "dual-over-single-FPS")
}

func BenchmarkAblationSerialization(b *testing.B) {
	var jpegFPS float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSerialization()
		if err != nil {
			b.Fatal(err)
		}
		jpegFPS = res.Options[2].FPS
	}
	b.ReportMetric(jpegFPS, "jpeg-FPS")
}

func BenchmarkAblationDetectAndTrack(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationDetectAndTrack(23)
		if err != nil {
			b.Fatal(err)
		}
		gap = res.EveryFrameF2 - res.EveryFifthF2
	}
	b.ReportMetric(gap, "F2-gap")
}

// --- Hot-path micro-benchmarks backing Table 1's sub-task rows ---

func benchFrame() (*imaging.Frame, imaging.Rect) {
	img := imaging.MustNewFrame(256, 192)
	img.FillTexturedBackground(imaging.Gray, 1)
	box := imaging.Rect{X: 100, Y: 80, W: 24, H: 14}
	img.FillRect(box, imaging.Red)
	return img, box
}

func BenchmarkDetectorInference(b *testing.B) {
	img, box := benchFrame()
	det, err := vision.NewSimDetector(vision.DefaultSimDetectorConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	frame := &vision.Frame{CameraID: "bench", Image: img,
		Truth: []vision.TruthObject{{ID: "v", Label: vision.LabelCar, Box: box}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSORTUpdate(b *testing.B) {
	tk, err := tracker.New(tracker.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dets := make([]vision.Detection, 8)
	for k := range dets {
		dets[k] = vision.Detection{
			Box:        imaging.Rect{X: 20 + k*28, Y: 80, W: 20, H: 12},
			Label:      vision.LabelCar,
			Confidence: 0.9,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tk.Update(int64(i), dets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	img, box := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feature.Extract(img, box); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBhattacharyya(b *testing.B) {
	img, box := benchFrame()
	h1, err := feature.Extract(img, box)
	if err != nil {
		b.Fatal(err)
	}
	h2, err := feature.Extract(img, imaging.Rect{X: 90, Y: 70, W: 30, H: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := feature.Bhattacharyya(h1, h2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReidMatch(b *testing.B) {
	img, box := benchFrame()
	hist, err := feature.Extract(img, box)
	if err != nil {
		b.Fatal(err)
	}
	pool := reid.NewPool(reid.DefaultPoolConfig())
	for i := 0; i < 32; i++ {
		pool.Add(reid.Entry{Event: protocol.DetectionEvent{
			ID:        protocol.NewEventID("up", int64(i)),
			CameraID:  "up",
			Histogram: hist,
		}})
	}
	matcher, err := reid.NewMatcher(reid.DefaultMatcherConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcher.Match(hist, pool)
	}
}

func BenchmarkHungarian16x16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cost := make([][]float64, 16)
	for i := range cost {
		cost[i] = make([]float64, 16)
		for j := range cost[i] {
			cost[i][j] = rng.Float64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hungarian.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDCSCampus(b *testing.B) {
	graph, sites, err := roadnet.Campus()
	if err != nil {
		b.Fatal(err)
	}
	for i, site := range sites {
		if i%3 == 0 {
			if err := graph.PlaceCameraAtNode(fmt.Sprintf("cam%02d", i), site); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.MDCSAll("cam00"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrajStoreInsert(b *testing.B) {
	store := trajstore.NewMemStore()
	img, box := benchFrame()
	hist, err := feature.Extract(img, box)
	if err != nil {
		b.Fatal(err)
	}
	var prev int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := store.AddVertex(protocol.DetectionEvent{
			ID:        protocol.NewEventID("bench", int64(i)),
			CameraID:  "bench",
			Histogram: hist,
		})
		if err != nil {
			b.Fatal(err)
		}
		if prev != 0 {
			if err := store.AddEdge(prev, id, 0.1); err != nil {
				b.Fatal(err)
			}
		}
		prev = id
	}
}

// BenchmarkTrajstoreWritePath measures edge-insert throughput into a
// persistent trajectory store over loopback TCP — the shared write path
// every camera pays — comparing one synchronous RPC per edge against the
// client-side batch writer riding the server's add_batch group commit.
// Results are recorded in BENCH_trajstore.json.
func BenchmarkTrajstoreWritePath(b *testing.B) {
	for _, mode := range []string{"percall", "batched"} {
		for _, clients := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/clients-%d", mode, clients), func(b *testing.B) {
				benchTrajstoreWritePath(b, mode, clients)
			})
		}
	}
}

func benchTrajstoreWritePath(b *testing.B, mode string, clients int) {
	store, err := trajstore.OpenWithConfig(b.TempDir(), trajstore.StoreConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = store.Close() }()
	srv, err := trajstore.ServeWith(store, "127.0.0.1:0", trajstore.ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	// Pre-insert a vertex pool for the edges to connect. 2048 vertices
	// give ~4.2M unique (from, to) pairs before the store's duplicate
	// guard would trip.
	const vpool = 2048
	seed, err := trajstore.DialContext(context.Background(), srv.Addr(), trajstore.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int64, 0, vpool)
	for off := 0; off < vpool; off += 256 {
		writes := make([]protocol.TrajWrite, 256)
		for i := range writes {
			writes[i] = protocol.VertexWrite(protocol.DetectionEvent{
				ID:       protocol.NewEventID("bench", int64(off+i)),
				CameraID: "bench",
			})
		}
		got, _, err := seed.AddBatchContext(context.Background(), writes)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, got...)
	}
	_ = seed.Close()

	// The k-th edge overall connects a unique vertex pair.
	pairOf := func(k int64) (int64, int64) {
		i := k % vpool
		r := k / vpool
		return ids[i], ids[(i+1+r)%vpool]
	}

	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	noteErr := func(err error) {
		if err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	per, rem := b.N/clients, b.N%clients
	for c := 0; c < clients; c++ {
		n := per
		if c < rem {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			cl, err := trajstore.DialContext(context.Background(), srv.Addr(), trajstore.ClientConfig{})
			if err != nil {
				noteErr(err)
				return
			}
			defer func() { _ = cl.Close() }()
			if mode == "batched" {
				w := trajstore.NewBatchWriter(cl, trajstore.BatchWriterConfig{MaxBatch: 128})
				for i := 0; i < n; i++ {
					from, to := pairOf(next.Add(1) - 1)
					w.QueueEdge(from, to, 0.1, noteErr)
				}
				noteErr(w.Close())
				return
			}
			for i := 0; i < n; i++ {
				from, to := pairOf(next.Add(1) - 1)
				_, errs, err := cl.AddBatchContext(context.Background(), []protocol.TrajWrite{protocol.EdgeWrite(from, to, 0.1)})
				if err == nil {
					err = errs[0]
				}
				noteErr(err)
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkCameraRender(b *testing.B) {
	// Frame synthesis dominates large simulated sweeps; this measures one
	// 256x192 frame with a vehicle in view.
	g, ids, err := roadnet.Corridor(3, 150, Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		b.Fatal(err)
	}
	world, err := sim.NewWorld(sim.WorldConfig{
		Sim:   des.New(time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC)),
		Graph: g,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := world.AddVehicle(sim.VehicleSpec{
		ID: "v", Color: imaging.Red, SpeedMPS: 15, Route: ids,
	}); err != nil {
		b.Fatal(err)
	}
	node, err := g.Node(ids[1])
	if err != nil {
		b.Fatal(err)
	}
	cam, err := world.AddCamera(sim.DefaultCameraSpec("bench", node.Pos, 0), func(*vision.Frame) {})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cam.Render(10 * time.Second)
	}
}

// --- Extension studies ---

// BenchmarkThresholdSweep regenerates the Bhattacharyya-threshold
// calibration curve behind the prototype's Bhatt_threshold choice.
func BenchmarkThresholdSweep(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ThresholdSweep(31, []float64{0.1, 0.35, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		best = res.Best.F2
	}
	b.ReportMetric(best, "best-F2")
}

// BenchmarkBlobPipeline runs the pixels-only pipeline (truth-blind
// connected-components detector) end to end.
func BenchmarkBlobPipeline(b *testing.B) {
	var f2 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BlobPipeline(37)
		if err != nil {
			b.Fatal(err)
		}
		f2 = res.EventF2
	}
	b.ReportMetric(f2, "event-F2")
}
