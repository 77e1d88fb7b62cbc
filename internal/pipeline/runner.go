package pipeline

import (
	"fmt"
	"sync"
)

// Stage is one named processing step in a concurrent pipeline. The
// function mutates the job in place; returning an error drops the job
// after the error callback fires.
type Stage[T any] struct {
	Name string
	Proc func(T) error
}

// Runner executes stages concurrently, one goroutine per stage connected
// by channels — the shape of the paper's per-RPi pipelines where each
// stage is an independent thread. Jobs flow in submission order.
type Runner[T any] struct {
	in chan T
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// RunnerConfig configures a Runner.
type RunnerConfig[T any] struct {
	// Buffer is the channel capacity between stages. The paper's RPi
	// pipelines hold one frame per stage; the default of 1 mirrors that.
	Buffer int
	// OnError is invoked when a stage rejects a job. Optional.
	OnError func(stage string, err error)
}

// NewRunner starts the stage goroutines and returns the runner.
func NewRunner[T any](cfg RunnerConfig[T], stages ...Stage[T]) (*Runner[T], error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	for i, s := range stages {
		if s.Proc == nil {
			return nil, fmt.Errorf("pipeline: stage %d (%q) has nil proc", i, s.Name)
		}
	}
	buffer := cfg.Buffer
	if buffer < 1 {
		buffer = 1
	}
	r := &Runner[T]{in: make(chan T, buffer)}

	prev := r.in
	for _, st := range stages {
		out := make(chan T, buffer)
		inCh := prev
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer close(out)
			for job := range inCh {
				if err := st.Proc(job); err != nil {
					if cfg.OnError != nil {
						cfg.OnError(st.Name, err)
					}
					continue
				}
				out <- job
			}
		}()
		prev = out
	}
	final := prev
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for range final { // a job out of the last stage is done
		}
	}()
	return r, nil
}

// Submit enqueues a job, blocking if the first stage is busy (camera
// back-pressure). It reports false after Close.
func (r *Runner[T]) Submit(job T) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	// Hold the lock through the send so Close cannot close the channel
	// between the check and the send.
	defer r.mu.Unlock()
	r.in <- job
	return true
}

// Close drains the pipeline and waits for every stage to finish.
func (r *Runner[T]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.in)
	r.mu.Unlock()
	r.wg.Wait()
}
