package framestore

import (
	"fmt"
	"os"
	"slices"
)

// Retention GC reclaims whole sealed segments, never individual records:
// deletion is a manifest rewrite plus an unlink, with no copying. Two
// policies compose:
//
//   - age (Config.RetainAge): a sealed segment whose newest record
//     timestamp is older than now-RetainAge is dropped;
//   - size (Config.RetainBytes): while the store's total on-disk bytes
//     exceed the bound, the globally oldest sealed segment is dropped.
//
// The active segment is never deleted (it would race the writer), so an
// idle camera's stale active segment is sealed first and collected on
// the next pass. GC runs automatically after every segment roll when
// retention is configured, and on demand via GC() (framestore-server
// drives it on a timer so idle stores still age out).
//
// Locking: age retention for a camera runs under that camera's wmu; the
// cross-camera size pass never holds more than one wmu at a time, so
// two cameras rolling (and GC-ing) concurrently cannot deadlock.

// GC runs one retention pass over every camera and returns what it
// reclaimed. A no-op (and zero-stats) for in-memory stores or when no
// retention policy is configured.
func (s *Store) GC() (GCStats, error) {
	if s.dir == "" || !s.cfg.retentionEnabled() {
		return GCStats{}, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return GCStats{}, ErrClosed
	}
	names := sortedKeys(s.logs)
	s.mu.Unlock()

	var total GCStats
	for _, camera := range names {
		s.mu.Lock()
		cl := s.logs[camera]
		s.mu.Unlock()
		if cl == nil || cl.mem != nil {
			continue
		}
		cl.wmu.Lock()
		// Seal a stale idle active segment so age retention can reach it
		// (a fresh one is created lazily by the next Put).
		if s.cfg.RetainAge > 0 {
			cutoff := s.now().Add(-s.cfg.RetainAge)
			s.mu.Lock()
			seg := cl.active()
			stale := seg != nil && seg.frames > 0 && seg.newest.Before(cutoff)
			s.mu.Unlock()
			if stale {
				if err := s.sealActive(cl); err != nil {
					cl.wmu.Unlock()
					return total, err
				}
			}
		}
		st, err := s.gcCamera(cl)
		cl.wmu.Unlock()
		total = total.plus(st)
		if err != nil {
			return total, err
		}
	}
	st, err := s.gcBySize()
	total = total.plus(st)
	s.recordGC(total)
	return total, err
}

func (a GCStats) plus(b GCStats) GCStats {
	return GCStats{
		Segments: a.Segments + b.Segments,
		Frames:   a.Frames + b.Frames,
		Bytes:    a.Bytes + b.Bytes,
	}
}

// gcCamera applies age retention to one camera's sealed segments.
// Caller holds cl.wmu.
func (s *Store) gcCamera(cl *cameraLog) (GCStats, error) {
	var st GCStats
	if s.cfg.RetainAge <= 0 {
		return st, nil
	}
	cutoff := s.now().Add(-s.cfg.RetainAge)
	for {
		s.mu.Lock()
		var victim *segment
		// Oldest first; stop at the first keeper so retention cannot
		// punch holes in the middle of the chain.
		if len(cl.segs) > 0 {
			seg := cl.segs[0]
			if seg.w == nil && seg.newest.Before(cutoff) {
				victim = seg
			}
		}
		s.mu.Unlock()
		if victim == nil {
			return st, nil
		}
		n, err := s.deleteSegment(cl, victim)
		st = st.plus(n)
		if err != nil {
			return st, err
		}
	}
}

// gcBySize enforces Config.RetainBytes across all cameras, deleting the
// globally oldest sealed segment until under the bound. Caller must NOT
// hold any camera's wmu: each victim's wmu is taken (one at a time)
// here.
func (s *Store) gcBySize() (GCStats, error) {
	var st GCStats
	if s.cfg.RetainBytes <= 0 {
		return st, nil
	}
	for {
		s.mu.Lock()
		if s.disk <= s.cfg.RetainBytes {
			s.mu.Unlock()
			return st, nil
		}
		// Victim: the sealed head segment with the oldest newest-record
		// timestamp (ties broken by camera name for determinism).
		var (
			victimLog *cameraLog
			victim    *segment
		)
		for _, c := range sortedKeys(s.logs) {
			cl := s.logs[c]
			if cl.mem != nil || len(cl.segs) == 0 {
				continue
			}
			seg := cl.segs[0]
			if seg.w != nil {
				continue // active: never deleted
			}
			if victim == nil || seg.newest.Before(victim.newest) {
				victimLog, victim = cl, seg
			}
		}
		s.mu.Unlock()
		if victim == nil {
			return st, nil // only active segments left; bound is best-effort
		}
		victimLog.wmu.Lock()
		// Re-verify under the write lock: a concurrent GC may have
		// already removed the victim.
		s.mu.Lock()
		still := len(victimLog.segs) > 0 && victimLog.segs[0] == victim && victim.w == nil
		s.mu.Unlock()
		var err error
		if still {
			var n GCStats
			n, err = s.deleteSegment(victimLog, victim)
			st = st.plus(n)
		}
		victimLog.wmu.Unlock()
		if err != nil {
			return st, err
		}
		if !still {
			return st, nil
		}
	}
}

// deleteSegment removes one sealed segment: index entries out, manifest
// rewritten without it, file unlinked, handle closed when the last
// pinned reader releases it. Caller holds cl.wmu.
func (s *Store) deleteSegment(cl *cameraLog, seg *segment) (GCStats, error) {
	st := GCStats{Segments: 1}
	s.mu.Lock()
	cl.segs = slices.DeleteFunc(cl.segs, func(sg *segment) bool { return sg == seg })
	kept := cl.seqs[:0]
	for _, seq := range cl.seqs {
		if ref, ok := cl.index[seq]; ok && ref.seg == seg {
			delete(cl.index, seq)
			st.Frames++
			continue
		}
		kept = append(kept, seq)
	}
	cl.seqs = kept
	st.Bytes = seg.size
	s.disk -= seg.size
	s.m.diskBytes.Set(s.disk)
	seg.dead = true
	_ = s.releaseLocked(seg) // drop the store's own pin
	s.mu.Unlock()

	// Manifest before unlink: a crash in between leaves a stray file
	// that open deletes, never a phantom resurrection.
	if err := s.writeManifest(cl); err != nil {
		return st, err
	}
	if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
		return st, fmt.Errorf("framestore: unlink segment: %w", err)
	}
	return st, nil
}

// recordGC folds one pass into the gc metrics and emits a "gc" span.
func (s *Store) recordGC(st GCStats) {
	s.mu.Lock()
	m := s.m
	tracer := s.tracer
	s.gcSeq++
	seq := s.gcSeq
	clk := s.clk
	disk := s.disk
	s.mu.Unlock()
	m.gcRuns.Inc()
	m.gcSegments.Add(st.Segments)
	m.gcFrames.Add(st.Frames)
	m.gcBytes.Add(st.Bytes)
	if tracer != nil {
		now := clk.Now()
		tracer.RecordRoot(fmt.Sprintf("framestore-gc-%d", seq), "gc", now, now,
			"segments", fmt.Sprint(st.Segments),
			"frames", fmt.Sprint(st.Frames),
			"reclaimedBytes", fmt.Sprint(st.Bytes),
			"diskBytes", fmt.Sprint(disk))
	}
}
