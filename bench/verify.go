package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/framestore"
	"repro/internal/trajstore"
)

// Output verification. Every check reads what the system stored or
// counted, not what the benchmark believes it sent; any miss fails the
// run.

// verifyGraph walks the final trajectory graph once: it rejects duplicate
// (from,to) edges and returns, per ground-truth handoff, how many
// committed edges join two sightings of that vehicle at those cameras.
func verifyGraph(snap *trajstore.Snapshot, cameras []string) (map[handoff]int, error) {
	isCamera := make(map[string]bool, len(cameras))
	for _, id := range cameras {
		isCamera[id] = true
	}
	committed := make(map[handoff]int)
	for id := int64(1); id <= snap.MaxVertexID(); id++ {
		from, err := snap.Vertex(id)
		if err != nil {
			continue
		}
		edges, _ := snap.OutEdges(id)
		seen := make(map[int64]bool, len(edges))
		for _, e := range edges {
			if seen[e.To] {
				return nil, fmt.Errorf("duplicate edge %d->%d in the trajectory graph", e.From, e.To)
			}
			seen[e.To] = true
			if !isCamera[from.Event.CameraID] {
				continue
			}
			to, err := snap.Vertex(e.To)
			if err != nil {
				return nil, fmt.Errorf("edge %d->%d points at a missing vertex", e.From, e.To)
			}
			if from.Event.TruthID != "" && from.Event.TruthID == to.Event.TruthID {
				committed[handoff{from.Event.TruthID, from.Event.CameraID, to.Event.CameraID}]++
			}
		}
	}
	return committed, nil
}

// handoffCommitRatio is the share of ground-truth handoffs that have a
// committed edge.
func handoffCommitRatio(truth, committed map[handoff]int) (ratio float64, total int) {
	matched := 0
	for h, n := range truth {
		total += n
		matched += min(n, committed[h])
	}
	if total == 0 {
		return 0, 0
	}
	return float64(matched) / float64(total), total
}

// verifyNodes checks each node's own accounting against the benchmark's:
// every re-identification ended as an inserted edge or a counted edge
// error, and the node's capture→commit histogram holds exactly the
// commits the benchmark timed.
func verifyNodes(d *deployment) error {
	var histCount, samples uint64
	for _, n := range d.nodes {
		st := n.node.Stats()
		p := n.sw.probe
		p.mu.Lock()
		edgeErrs, mine := p.edgeErrs, uint64(len(p.commitMs))
		p.mu.Unlock()
		if st.ReidMatches != st.EdgesInserted+edgeErrs {
			return fmt.Errorf("%s: %d re-id matches != %d edges inserted + %d edge errors",
				n.id, st.ReidMatches, st.EdgesInserted, edgeErrs)
		}
		histCount += n.reg.Histogram("coralpie_e2e_track_commit_seconds", "", nil, "camera", n.id).Count()
		samples += mine
	}
	if histCount != samples {
		return fmt.Errorf("coralpie_e2e_track_commit_seconds counts %d commits, the benchmark timed %d", histCount, samples)
	}
	return nil
}

// verifyFrames reads the sampled frames back from every replica's store
// and compares pixel checksums. A sampled frame may be gone only from a
// replica whose retention GC has dropped frames.
func verifyFrames(d *deployment) (verified int, err error) {
	d.frames.mu.Lock()
	sums := make(map[frameKey]uint32, len(d.frames.sums))
	for k, v := range d.frames.sums {
		sums[k] = v
	}
	d.frames.mu.Unlock()
	for i, r := range d.replicas {
		dropped := r.reg.Counter("coralpie_framestore_gc_frames_total", "").Value()
		for k, want := range sums {
			rec, err := r.store.Get(k.camera, k.seq)
			if errors.Is(err, framestore.ErrNotFound) && dropped > 0 {
				continue
			}
			if err != nil {
				return 0, fmt.Errorf("replica %d: read back %s/%d: %w", i, k.camera, k.seq, err)
			}
			if got := crc32.ChecksumIEEE(rec.Pixels); got != want {
				return 0, fmt.Errorf("replica %d: %s/%d pixels checksum %08x, sent %08x", i, k.camera, k.seq, got, want)
			}
			verified++
		}
	}
	if len(sums) > 0 && verified == 0 {
		return 0, errors.New("no sampled frame could be read back from any replica")
	}
	return verified, nil
}

// verifyQueries recomputes each sampled remote answer with the local
// engine on the final snapshot and requires byte equality. An answer that
// touches a track the writer extended during the run is skipped: the
// remote saw an earlier version of exactly those tracks and no other.
func verifyQueries(snap *trajstore.Snapshot, g *queryGraph, run *queryRun) (verified int, err error) {
	preloaded := int64(g.vehicles * g.hops)
	moved := func(vertex int64) bool {
		return vertex > preloaded || run.extended[int((vertex-1)/int64(g.hops))]
	}
	for _, s := range run.samples {
		local, err := localQuery(snap, s.key)
		if err != nil {
			return 0, fmt.Errorf("local %s for vehicle %d: %w", s.key.op, s.key.vehicle, err)
		}
		if answerTouches(local, moved) {
			continue
		}
		want, err := json.Marshal(local)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(s.answer, want) {
			return 0, fmt.Errorf("remote %s for vehicle %d hop %d differs from the local engine:\nremote %s\nlocal  %s",
				s.key.op, s.key.vehicle, s.key.hop, s.answer, want)
		}
		verified++
	}
	return verified, nil
}

func answerTouches(answer any, moved func(int64) bool) bool {
	var hops []trajstore.Hop
	switch a := answer.(type) {
	case trajstore.Track:
		hops = a.Hops
	case []trajstore.Track:
		for _, t := range a {
			hops = append(hops, t.Hops...)
		}
	case []trajstore.Hop:
		hops = a
	}
	for _, h := range hops {
		if moved(h.VertexID) {
			return true
		}
	}
	return false
}
