// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5). Each experiment is a pure function returning a
// structured result; cmd/experiments renders them and bench_test.go at
// the module root regenerates them under `go test -bench`.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/feature"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/vision"
)

// Table1Row is one sub-task latency entry.
type Table1Row struct {
	SubTask string
	// Paper is the paper's measured RPi 3B+ latency.
	Paper time.Duration
	// Modeled is the latency the timing model charges (equal to Paper:
	// the profile is the model input).
	Modeled time.Duration
	// MeasuredHost is this implementation's wall-clock latency for the
	// same sub-task on the build machine, for reference. Zero when the
	// sub-task is hardware-bound and purely modeled (e.g. Fetch).
	MeasuredHost time.Duration
}

// Table1Result reproduces the paper's Table 1 latency summary plus the
// Section 5.2 throughput observation.
type Table1Result struct {
	Rows []Table1Row
	// PipelinedFPS is the modeled pipeline throughput with a 15 FPS
	// source (paper: 10.4).
	PipelinedFPS float64
	// SequentialFPS is the naive unpipelined rate (paper: ~5x slower).
	SequentialFPS float64
	// Speedup is PipelinedFPS / SequentialFPS.
	Speedup float64
	// BottleneckStage names the pipeline stage limiting throughput
	// (paper: Load).
	BottleneckStage string
}

// Table1 produces the latency summary. Host measurements exercise the
// real implementations of the portable sub-tasks over a synthetic
// 1280×1024-equivalent workload scaled to the simulator's frame size.
func Table1() (Table1Result, error) {
	profile := pipeline.PaperRPi3Profile()
	host, err := measureHostSubTasks()
	if err != nil {
		return Table1Result{}, err
	}

	rows := []Table1Row{
		{SubTask: "Fetch", Paper: profile.Fetch, Modeled: profile.Fetch},
		{SubTask: "Load", Paper: profile.Load, Modeled: profile.Load},
		{SubTask: "Resize", Paper: profile.Resize, Modeled: profile.Resize},
		{SubTask: "Inference", Paper: profile.Inference, Modeled: profile.Inference, MeasuredHost: host.inference},
		{SubTask: "Post-Inference", Paper: profile.PostInference, Modeled: profile.PostInference, MeasuredHost: host.postInference},
		{SubTask: "RPi1_To_RPi2", Paper: profile.RPi1ToRPi2, Modeled: profile.RPi1ToRPi2},
		{SubTask: "Track", Paper: profile.Track, Modeled: profile.Track, MeasuredHost: host.track},
		{SubTask: "Feature Extraction", Paper: profile.FeatureExtraction, Modeled: profile.FeatureExtraction, MeasuredHost: host.featureExtract},
		{SubTask: "Communication", Paper: profile.Communication, Modeled: profile.Communication},
		{SubTask: "Vehicle-Reid", Paper: profile.VehicleReid, Modeled: profile.VehicleReid, MeasuredHost: host.reidMatch},
		{SubTask: "Trajectory Storage", Paper: profile.TrajStoreVertex + profile.TrajStoreEdge, Modeled: profile.TrajStoreVertex + profile.TrajStoreEdge, MeasuredHost: host.trajStore},
		{SubTask: "Frame Storage", Paper: profile.FrameStorage, Modeled: profile.FrameStorage},
	}

	stages := profile.DualDeviceStages()
	res, err := pipeline.SimulateTandem(stages, time.Second/15, 2000)
	if err != nil {
		return Table1Result{}, err
	}
	seq := pipeline.SequentialThroughputFPS(stages)
	out := Table1Result{
		Rows:            rows,
		PipelinedFPS:    res.ThroughputFPS,
		SequentialFPS:   seq,
		BottleneckStage: stages[res.BottleneckStage].Name,
	}
	if seq > 0 {
		out.Speedup = res.ThroughputFPS / seq
	}
	return out, nil
}

// hostLatencies are wall-clock medians of the portable sub-task
// implementations.
type hostLatencies struct {
	inference      time.Duration
	postInference  time.Duration
	track          time.Duration
	featureExtract time.Duration
	reidMatch      time.Duration
	trajStore      time.Duration
}

// measureHostSubTasks times this repository's implementations of the
// sub-tasks that are pure software (the EdgeTPU inference is replaced by
// the simulated detector, so its host time reflects the noise model, not
// a CNN).
func measureHostSubTasks() (hostLatencies, error) {
	const iters = 50
	img := imaging.MustNewFrame(256, 192)
	img.FillTexturedBackground(imaging.Gray, 1)
	box := imaging.Rect{X: 100, Y: 80, W: 24, H: 14}
	img.FillRect(box, imaging.Red)
	frame := &vision.Frame{
		CameraID: "bench",
		Image:    img,
		Truth:    []vision.TruthObject{{ID: "v", Label: vision.LabelCar, Box: box}},
	}

	det, err := vision.NewSimDetector(vision.DefaultSimDetectorConfig(1))
	if err != nil {
		return hostLatencies{}, err
	}
	var out hostLatencies

	out.inference = timeIt(iters, func() error {
		_, err := det.Detect(frame)
		return err
	})

	dets, err := det.Detect(frame)
	if err != nil {
		return hostLatencies{}, err
	}
	coi, err := vision.RectCoI(256, 192, 0.05)
	if err != nil {
		return hostLatencies{}, err
	}
	out.postInference = timeIt(iters, func() error {
		vision.PostProcess(dets, vision.PostProcessConfig{MinConfidence: 0.2, CoI: coi})
		return nil
	})

	tk, err := tracker.New(tracker.DefaultConfig())
	if err != nil {
		return hostLatencies{}, err
	}
	seq := int64(0)
	out.track = timeIt(iters, func() error {
		_, err := tk.Update(seq, []vision.Detection{{Box: box, Label: vision.LabelCar, Confidence: 0.9}})
		seq++
		return err
	})

	out.featureExtract = timeIt(iters, func() error {
		_, err := feature.Extract(img, box)
		return err
	})

	hist, err := feature.Extract(img, box)
	if err != nil {
		return hostLatencies{}, err
	}
	pool := reid.NewPool(reid.DefaultPoolConfig())
	for i := 0; i < 16; i++ {
		pool.Add(reid.Entry{Event: sampleEvent(fmt.Sprintf("up#%d", i), hist)})
	}
	matcher, err := reid.NewMatcher(reid.DefaultMatcherConfig())
	if err != nil {
		return hostLatencies{}, err
	}
	out.reidMatch = timeIt(iters, func() error {
		matcher.Match(hist, pool)
		return nil
	})

	store := trajstore.NewMemStore()
	var lastID int64
	out.trajStore = timeIt(iters, func() error {
		id, err := store.AddVertex(sampleEvent(fmt.Sprintf("b#%d", lastID+1), hist))
		if err != nil {
			return err
		}
		if lastID != 0 {
			if err := store.AddEdge(lastID, id, 0.1); err != nil {
				return err
			}
		}
		lastID = id
		return nil
	})
	return out, nil
}

func sampleEvent(id string, hist feature.Histogram) protocol.DetectionEvent {
	return protocol.DetectionEvent{
		ID:        protocol.EventID(id),
		CameraID:  "bench",
		Histogram: hist,
	}
}

// timeIt returns the mean duration of fn over n runs (errors abort the
// timing and report zero).
func timeIt(n int, fn func() error) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0
		}
	}
	return time.Since(start) / time.Duration(n)
}
