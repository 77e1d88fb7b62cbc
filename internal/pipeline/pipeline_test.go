package pipeline

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestPaperProfileStageMapping(t *testing.T) {
	p := PaperRPi3Profile()
	rpi1 := p.RPi1Stages()
	if len(rpi1) != 3 {
		t.Fatalf("RPi1 stages = %d", len(rpi1))
	}
	// Load is the slowest stage on RPi 1 (94+2 = 96 ms), which the paper
	// identifies as the pipeline bottleneck.
	if rpi1[1].Service != 96*time.Millisecond {
		t.Errorf("load+resize = %v", rpi1[1].Service)
	}
	if rpi1[2].Service != 95*time.Millisecond {
		t.Errorf("inference stage = %v", rpi1[2].Service)
	}
	if len(p.RPi2Stages()) != 3 || len(p.DualDeviceStages()) != 6 {
		t.Error("stage counts wrong")
	}
	if p.CriticalPathTotal() < 300*time.Millisecond {
		t.Errorf("critical path = %v, expected > 300ms", p.CriticalPathTotal())
	}
}

func TestSimulateTandemValidation(t *testing.T) {
	if _, err := SimulateTandem(nil, time.Millisecond, 10); err == nil {
		t.Error("no stages accepted")
	}
	stages := []StageSpec{{Name: "a", Service: time.Millisecond}}
	if _, err := SimulateTandem(stages, 0, 10); err == nil {
		t.Error("zero interarrival accepted")
	}
	if _, err := SimulateTandem(stages, time.Millisecond, 0); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := SimulateTandem([]StageSpec{{Service: -1}}, time.Millisecond, 1); err == nil {
		t.Error("negative service accepted")
	}
}

func TestTandemThroughputBoundedBySlowestStage(t *testing.T) {
	// The paper: with Load (~96 ms) as the slowest stage and a 15 FPS
	// source, the pipeline sustains ~10.4 FPS.
	p := PaperRPi3Profile()
	res, err := SimulateTandem(p.DualDeviceStages(), time.Second/15, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputFPS < 10.0 || res.ThroughputFPS > 10.9 {
		t.Errorf("throughput = %.2f FPS, want ~10.4", res.ThroughputFPS)
	}
	// The bottleneck is one of the two Load stages.
	name := p.DualDeviceStages()[res.BottleneckStage].Name
	if name != "load+resize" && name != "load" {
		t.Errorf("bottleneck = %q", name)
	}
}

func TestTandemFastSourceDoesNotExceedArrivalRate(t *testing.T) {
	stages := []StageSpec{{Name: "s", Service: 10 * time.Millisecond}}
	res, err := SimulateTandem(stages, 100*time.Millisecond, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputFPS > 10.1 {
		t.Errorf("throughput %.2f exceeds arrival rate", res.ThroughputFPS)
	}
	// Underloaded: latency equals the service time.
	if res.MeanLatency != 10*time.Millisecond {
		t.Errorf("mean latency = %v", res.MeanLatency)
	}
}

func TestTandemSequentialComparison(t *testing.T) {
	p := PaperRPi3Profile()
	seq := SequentialThroughputFPS(p.DualDeviceStages())
	res, err := SimulateTandem(p.DualDeviceStages(), time.Second/15, 2000)
	if err != nil {
		t.Fatal(err)
	}
	speedup := res.ThroughputFPS / seq
	// The paper reports ~5x over naive sequential execution; the exact
	// factor depends on which sub-tasks are counted, so accept a band.
	if speedup < 2.5 || speedup > 6.5 {
		t.Errorf("pipelined speedup = %.2fx (pipelined %.2f, sequential %.2f)",
			speedup, res.ThroughputFPS, seq)
	}
}

func TestTandemUtilization(t *testing.T) {
	stages := []StageSpec{
		{Name: "fast", Service: 1 * time.Millisecond},
		{Name: "slow", Service: 10 * time.Millisecond},
	}
	res, err := SimulateTandem(stages, time.Millisecond, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.BottleneckStage != 1 {
		t.Errorf("bottleneck = %d", res.BottleneckStage)
	}
	if res.Utilization[1] < 0.95 {
		t.Errorf("slow stage utilization = %v", res.Utilization[1])
	}
	if res.Utilization[0] > 0.2 {
		t.Errorf("fast stage utilization = %v", res.Utilization[0])
	}
	if math.Abs(res.ThroughputFPS-100) > 5 {
		t.Errorf("throughput = %v, want ~100", res.ThroughputFPS)
	}
}

func TestSingleDeviceAblationBreaksLatencyBound(t *testing.T) {
	// Section 4.1.5: all sub-tasks on one RPi breaks the 100 ms bound
	// and roughly halves the frame rate versus the dual-device mapping.
	p := PaperRPi3Profile()
	single, err := SimulateTandem(p.SingleDeviceStages(), time.Second/15, 500)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := SimulateTandem(p.DualDeviceStages(), time.Second/15, 500)
	if err != nil {
		t.Fatal(err)
	}
	if single.ThroughputFPS >= dual.ThroughputFPS/2 {
		t.Errorf("single-device %.2f FPS vs dual %.2f FPS: ablation should show a big gap",
			single.ThroughputFPS, dual.ThroughputFPS)
	}
}

type job struct {
	id    int
	trace []string
	mu    sync.Mutex
}

func (j *job) visit(stage string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.trace = append(j.trace, stage)
}

func TestRunnerProcessesInOrder(t *testing.T) {
	var mu sync.Mutex
	var completed []int
	done := make(chan struct{})
	const n = 20
	r, err := NewRunner(RunnerConfig[*job]{},
		Stage[*job]{Name: "a", Proc: func(j *job) error { j.visit("a"); return nil }},
		Stage[*job]{Name: "b", Proc: func(j *job) error { j.visit("b"); return nil }},
		Stage[*job]{Name: "c", Proc: func(j *job) error { j.visit("c"); return nil }},
		Stage[*job]{Name: "done", Proc: func(j *job) error {
			mu.Lock()
			completed = append(completed, j.id)
			if len(completed) == n {
				close(done)
			}
			mu.Unlock()
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job, n)
	for i := 0; i < n; i++ {
		jobs[i] = &job{id: i}
		if !r.Submit(jobs[i]) {
			t.Fatal("submit rejected")
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline stalled")
	}
	r.Close()
	mu.Lock()
	defer mu.Unlock()
	for i, id := range completed {
		if id != i {
			t.Fatalf("completion order %v", completed)
		}
	}
	for _, j := range jobs {
		if len(j.trace) != 3 || j.trace[0] != "a" || j.trace[2] != "c" {
			t.Fatalf("job %d trace %v", j.id, j.trace)
		}
	}
}

func TestRunnerErrorDropsJob(t *testing.T) {
	var mu sync.Mutex
	var sunk, failures int
	r, err := NewRunner(RunnerConfig[*job]{
		OnError: func(stage string, err error) {
			mu.Lock()
			failures++
			mu.Unlock()
			if stage != "filter" {
				t.Errorf("error from stage %q", stage)
			}
		},
	},
		Stage[*job]{Name: "filter", Proc: func(j *job) error {
			if j.id%2 == 0 {
				return errors.New("rejected")
			}
			return nil
		}},
		Stage[*job]{Name: "sink", Proc: func(*job) error { mu.Lock(); sunk++; mu.Unlock(); return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Submit(&job{id: i})
	}
	r.Close()
	mu.Lock()
	defer mu.Unlock()
	if sunk != 5 || failures != 5 {
		t.Errorf("sunk=%d failures=%d", sunk, failures)
	}
}

func TestRunnerSubmitAfterClose(t *testing.T) {
	r, err := NewRunner(RunnerConfig[*job]{},
		Stage[*job]{Name: "a", Proc: func(*job) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if r.Submit(&job{}) {
		t.Error("submit after close accepted")
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(RunnerConfig[*job]{}); err == nil {
		t.Error("no stages accepted")
	}
	if _, err := NewRunner(RunnerConfig[*job]{}, Stage[*job]{Name: "nil"}); err == nil {
		t.Error("nil proc accepted")
	}
}
