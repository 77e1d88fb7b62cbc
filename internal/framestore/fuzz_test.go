package framestore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzOpenFrameStore opens a store directory holding arbitrary bytes as
// camera cam1's manifest (none when empty) and as its segment 0. Opening
// may refuse the directory (ErrPreFloorFormat for a JSON record among
// others) but must not panic, and every seq a store it opens has indexed
// must read back through Get and Range.
func FuzzOpenFrameStore(f *testing.F) {
	dir := f.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := s.Put(record("cam1", seq)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "cam1"+manifestSuffix))
	if err != nil {
		f.Fatal(err)
	}
	segment, err := os.ReadFile(segPath(dir, "cam1", 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest, segment)
	f.Add([]byte(nil), segment)                                         // adopted without a manifest
	f.Add(manifest, segment[:len(segment)-7])                           // torn tail
	f.Add(manifest, flipLengthBit(f, segment, 1, 0, 0x01))              // record 2's length past the end
	f.Add(manifest, flipLengthBit(f, segment, 1, 3, 0x01))              // record 2's length off by one
	f.Add([]byte(`{"version":1,"segments":[0,0,2],"next":1}`), segment) // listed twice, listed but missing
	f.Add([]byte(`{"version":1,"segments":[1],"next":2}`), segment)     // segment 0 a stray

	// A JSON record, which versions before the binary record wrote.
	f.Add(manifest, append(binary.BigEndian.AppendUint32(slices.Clone(segment), 2), "{}"...))
	f.Fuzz(func(t *testing.T, manifest, segment []byte) {
		dir := t.TempDir()
		if len(manifest) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "cam1"+manifestSuffix), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(segPath(dir, "cam1", 0), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir)
		if err != nil {
			return
		}
		defer func() { _ = s.Close() }()
		for _, camera := range s.Cameras() {
			s.mu.Lock()
			seqs := slices.Clone(s.logs[camera].seqs)
			s.mu.Unlock()
			for _, seq := range seqs {
				if _, err := s.Get(camera, seq); err != nil {
					t.Fatalf("indexed %s/%d: Get: %v", camera, seq, err)
				}
			}
			if len(seqs) == 0 {
				continue
			}
			recs, err := s.Range(camera, seqs[0], seqs[len(seqs)-1])
			if err != nil || len(recs) != len(seqs) {
				t.Fatalf("Range over the %d indexed seqs of %s: %d records, err %v", len(seqs), camera, len(recs), err)
			}
		}
	})
}
