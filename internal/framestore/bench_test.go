package framestore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/protocol"
)

// BenchmarkFramestore measures the read path under write pressure — the
// deployment steady state, where trajectory verification fetches
// evidence frames while cameras keep streaming new ones.
//
// segmented is the shipped engine: Get resolves the index and pins a
// refcounted segment handle under the store mutex, then does its disk
// read outside every lock. serialized-baseline emulates the seed
// engine, which held one store-wide mutex across the whole operation —
// every disk write stalled every read, so the delta isolates the
// locking change.
func BenchmarkFramestore(b *testing.B) {
	b.Run("read-while-write/serialized-baseline", func(b *testing.B) {
		benchReadsUnderWrites(b, Config{}, true)
	})
	b.Run("read-while-write/segmented", func(b *testing.B) {
		benchReadsUnderWrites(b, Config{}, false)
	})
	b.Run("write/retention-off", func(b *testing.B) {
		benchWrites(b, Config{SegmentBytes: 1 << 20})
	})
	b.Run("write/retention-on", func(b *testing.B) {
		benchWrites(b, Config{SegmentBytes: 1 << 20, RetainBytes: 8 << 20})
	})
}

const benchPreload = 512

func benchReadsUnderWrites(b *testing.B, cfg Config, serialized bool) {
	s, err := OpenStoreConfig(b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	// A single mutex wrapping both paths reproduces the seed's locking:
	// reads and writes serialize against each other, disk IO included.
	var mu sync.Mutex
	get := s.Get
	put := s.Put
	if serialized {
		get = func(camera string, seq int64) (protocol.FrameRecord, error) {
			mu.Lock()
			defer mu.Unlock()
			return s.Get(camera, seq)
		}
		put = func(rec protocol.FrameRecord) error {
			mu.Lock()
			defer mu.Unlock()
			return s.Put(rec)
		}
	}

	for seq := int64(1); seq <= benchPreload; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			b.Fatal(err)
		}
	}

	// The writer streams frames for the benchmark's whole duration,
	// pacing itself so every run sees comparable write pressure
	// regardless of reader count.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		seq := int64(benchPreload)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			if err := put(record("cam1", seq)); err != nil {
				b.Errorf("writer: %v", err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var n atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			seq := n.Add(1)%benchPreload + 1
			if _, err := get("cam1", seq); err != nil {
				b.Errorf("get %d: %v", seq, err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

func benchWrites(b *testing.B, cfg Config) {
	s, err := OpenStoreConfig(b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(record("cam1", int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cfg.RetainBytes > 0 {
		b.ReportMetric(float64(s.DiskBytes()), "disk-bytes")
	}
}

// BenchmarkReopenSegments is a store's recovery time: OpenStore of a
// directory holding 4 cameras × 4 segments of 147 456-byte frames (7 to a
// 1 MiB segment), every segment read and indexed by the record-log reader.
func BenchmarkReopenSegments(b *testing.B) {
	const cameras, frames = 4, 28
	cfg := Config{SegmentBytes: 1 << 20}
	dir := b.TempDir()
	s, err := OpenStoreConfig(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < cameras; c++ {
		for seq := int64(1); seq <= frames; seq++ {
			if err := s.Put(patterned(fmt.Sprintf("cam%d", c), seq, 256, 192)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := OpenStoreConfig(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if st := re.ReloadStats(); st.Frames != cameras*frames || st.Segments != cameras*4 {
			b.Fatalf("reopened %+v, want %d frames in %d segments", st, cameras*frames, cameras*4)
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
