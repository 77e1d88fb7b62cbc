package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// procDelta is what the process spent between startProcMeter and stop.
type procDelta struct {
	cpu            time.Duration // user + system, getrusage
	mallocs        uint64
	allocBytes     uint64
	gcPause        time.Duration
	peakRSSMB      float64 // lifetime peak of the process, not of the interval
	goroutinesPeak int
}

type procMeter struct {
	cpu0 time.Duration
	mem0 runtime.MemStats
	halt chan struct{}
	wg   sync.WaitGroup
	peak int
}

func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

// startProcMeter snapshots CPU and allocator counters. With sample set
// (traced pass) it also polls the goroutine count.
func startProcMeter(sample bool) *procMeter {
	m := &procMeter{halt: make(chan struct{})}
	runtime.ReadMemStats(&m.mem0)
	m.cpu0, _ = rusage()
	if sample {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				m.peak = max(m.peak, runtime.NumGoroutine())
				select {
				case <-t.C:
				case <-m.halt:
					return
				}
			}
		}()
	}
	return m
}

func (m *procMeter) stop() procDelta {
	close(m.halt)
	m.wg.Wait()
	cpu1, rssKB := rusage()
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	return procDelta{
		cpu:            cpu1 - m.cpu0,
		mallocs:        mem1.Mallocs - m.mem0.Mallocs,
		allocBytes:     mem1.TotalAlloc - m.mem0.TotalAlloc,
		gcPause:        time.Duration(mem1.PauseTotalNs - m.mem0.PauseTotalNs),
		peakRSSMB:      float64(rssKB) / 1024,
		goroutinesPeak: m.peak,
	}
}

// checkFreeDisk refuses to start when dir's filesystem has less than
// need bytes free.
func checkFreeDisk(dir string, need uint64) error {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	if free := st.Bavail * uint64(st.Bsize); free < need {
		return fmt.Errorf("%s has %.1f GiB free, need %.1f GiB", dir, float64(free)/(1<<30), float64(need)/(1<<30))
	}
	return nil
}
