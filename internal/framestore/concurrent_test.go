package framestore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestConcurrentReadersDuringWrites exercises the lock-free read path:
// readers serve Get/Range against pinned segment handles while a writer
// appends and rolls segments. Run under -race (make race-stress) this
// catches index-publish and segment-handle races.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreConfig(dir, Config{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	const total = 300
	var published atomic.Int64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := int64(1); seq <= total; seq++ {
			if err := s.Put(record("cam1", seq)); err != nil {
				t.Errorf("put %d: %v", seq, err)
				return
			}
			published.Store(seq)
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				hi := published.Load()
				if hi == 0 {
					continue
				}
				seq := hi - int64(i)%hi
				rec, err := s.Get("cam1", seq)
				if err != nil {
					t.Errorf("reader %d: get %d (published %d): %v", r, seq, hi, err)
					return
				}
				if rec.Seq != seq {
					t.Errorf("reader %d: got seq %d, want %d", r, rec.Seq, seq)
					return
				}
				if i%16 == 0 {
					recs, err := s.Range("cam1", 1, hi)
					if err != nil {
						t.Errorf("reader %d: range: %v", r, err)
						return
					}
					if int64(len(recs)) < hi {
						t.Errorf("reader %d: range to %d returned %d records", r, hi, len(recs))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if got := s.Count("cam1"); got != total {
		t.Errorf("Count = %d, want %d", got, total)
	}
}

// TestConcurrentStressWithGC adds retention to the reader/writer mix:
// segments are collected underneath in-flight reads, which must either
// finish against their pinned handle or miss cleanly — never crash or
// return a wrong record.
func TestConcurrentStressWithGC(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreConfig(dir, Config{
		SegmentBytes: 2048,
		RetainBytes:  10 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	const total = 400
	var published atomic.Int64
	var wg sync.WaitGroup

	for w, cam := range []string{"cam1", "cam2"} {
		wg.Add(1)
		go func(w int, cam string) {
			defer wg.Done()
			for seq := int64(1); seq <= total; seq++ {
				if err := s.Put(record(cam, seq)); err != nil {
					t.Errorf("writer %s: put %d: %v", cam, seq, err)
					return
				}
				if w == 0 {
					published.Store(seq)
				}
			}
		}(w, cam)
	}

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				hi := published.Load()
				if hi == 0 {
					continue
				}
				seq := hi - int64(i)%hi
				rec, err := s.Get("cam1", seq)
				if err != nil {
					// GC may have collected it; a clean miss is correct.
					if errors.Is(err, ErrNotFound) {
						continue
					}
					t.Errorf("reader %d: get %d: %v", r, seq, err)
					return
				}
				if rec.Seq != seq {
					t.Errorf("reader %d: got seq %d, want %d", r, rec.Seq, seq)
					return
				}
			}
		}(r)
	}

	// A GC goroutine hammers retention alongside the after-roll hooks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := s.GC(); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Whatever survived is internally consistent.
	for _, cam := range []string{"cam1", "cam2"} {
		recs, err := s.Range(cam, 1, total)
		if err != nil {
			t.Fatalf("final range %s: %v", cam, err)
		}
		if len(recs) != s.Count(cam) {
			t.Errorf("%s: Range %d records vs Count %d", cam, len(recs), s.Count(cam))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Errorf("%s: Range out of order at %d", cam, i)
				break
			}
		}
	}
}

func TestMemBytesMetricMatchesDisk(t *testing.T) {
	// Satellite fix: identical traffic must charge identical bytes on
	// memory- and disk-backed stores.
	mem, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mem.Close() }()
	dsk, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dsk.Close() }()

	memReg, dskReg := obs.NewRegistry(), obs.NewRegistry()
	mem.Instrument(memReg, nil)
	dsk.Instrument(dskReg, nil)
	for seq := int64(1); seq <= 5; seq++ {
		if err := mem.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
		if err := dsk.Put(record("cam1", seq)); err != nil {
			t.Fatal(err)
		}
	}
	mb := memReg.Counter("coralpie_framestore_bytes_total", "").Value()
	db := dskReg.Counter("coralpie_framestore_bytes_total", "").Value()
	if mb == 0 || mb != db {
		t.Errorf("bytes_total diverges: mem=%d disk=%d", mb, db)
	}
}
