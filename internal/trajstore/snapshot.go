package trajstore

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/protocol"
)

// Snapshot is an immutable view of the trajectory graph as of one commit
// sequence number. It is a watermark over the store's append-only
// structures, not a copy: the vertex slice header as it was (so its
// length is the highest vertex ID in view), the sequence number of the
// last record included, and the counts at that point. Every accessor
// filters by the watermark — a vertex above the slice length does not
// exist, an edge stamped above the sequence number is skipped — so later
// writes never show through, and a walk takes no lock.
//
// Watermarks are built only at the end of a write's apply and published
// only once that write is committed, so a snapshot contains whole batches
// of committed writes: all of a batch's accepted records or none of them,
// and never a write whose WAL commit failed or is still pending.
type Snapshot struct {
	store   *Store
	verts   []*vnode
	version uint64
	nVerts  int
	nEdges  int
}

// Snapshot returns the newest committed view of the graph: one atomic
// load, whatever the graph's size. While no write commits, repeated calls
// return the same snapshot.
func (s *Store) Snapshot() *Snapshot { return s.published.Load() }

// Version is the commit sequence number of the last record in view; it
// grows with every committed vertex or edge.
func (sn *Snapshot) Version() uint64 { return sn.version }

// NumVertices returns the vertex count at snapshot time.
func (sn *Snapshot) NumVertices() int { return sn.nVerts }

// NumEdges returns the edge count at snapshot time.
func (sn *Snapshot) NumEdges() int { return sn.nEdges }

// MaxVertexID is the highest vertex ID allocated at snapshot time (a log
// written by an older version may have left gaps below it).
func (sn *Snapshot) MaxVertexID() int64 { return int64(len(sn.verts)) }

// Vertex returns a vertex by ID.
func (sn *Snapshot) Vertex(id int64) (Vertex, error) {
	n := nodeAt(sn.verts, id)
	if n == nil {
		return Vertex{}, fmt.Errorf("%w: %d", ErrVertexNotFound, id)
	}
	return n.v, nil
}

// FindByEventID returns the vertex whose event carries the given ID, by
// index. Should several vertices carry it (a client retry can insert one
// event twice), the lowest vertex ID answers, on every call.
func (sn *Snapshot) FindByEventID(id protocol.EventID) (Vertex, error) {
	sn.store.mu.RLock()
	vid := sn.store.byEvent[id]
	sn.store.mu.RUnlock()
	if n := nodeAt(sn.verts, vid); n != nil {
		return n.v, nil
	}
	return Vertex{}, fmt.Errorf("%w: event %q", ErrVertexNotFound, id)
}

// truthIDs returns the ascending IDs of the vertices whose ground truth is
// the vehicle, up to maxID (<= 0 or beyond the view: the whole view).
func (sn *Snapshot) truthIDs(vehicleID string, maxID int64) []int64 {
	if maxID <= 0 || maxID > sn.MaxVertexID() {
		maxID = sn.MaxVertexID()
	}
	sn.store.mu.RLock()
	ids := sn.store.byTruth[vehicleID] // append-only: elements below len never change
	sn.store.mu.RUnlock()
	n, _ := slices.BinarySearch(ids, maxID+1)
	return ids[:n]
}

// edges returns a copy of the vertex's outgoing (or incoming) edges in
// view, sorted by the far endpoint.
func (sn *Snapshot) edges(id int64, out bool) []Edge {
	n := nodeAt(sn.verts, id)
	if n == nil {
		return nil
	}
	p := n.in.Load()
	if out {
		p = n.out.Load()
	}
	if p == nil {
		return nil
	}
	es := make([]Edge, 0, len(*p))
	for _, e := range *p {
		if e.seq > sn.version {
			break // stamps ascend along a list
		}
		es = append(es, e.Edge)
	}
	slices.SortFunc(es, func(a, b Edge) int {
		if out {
			return cmp.Compare(a.To, b.To)
		}
		return cmp.Compare(a.From, b.From)
	})
	return es
}

// OutEdges returns a vertex's outgoing edges, sorted by target. The
// error return is always nil.
func (sn *Snapshot) OutEdges(id int64) ([]Edge, error) { return sn.edges(id, true), nil }

// InEdges returns a vertex's incoming edges, sorted by source.
func (sn *Snapshot) InEdges(id int64) ([]Edge, error) { return sn.edges(id, false), nil }

// TraceForward enumerates the maximal forward paths from start: every
// path follows outgoing edges until it reaches a vertex with no outgoing
// edge (or a limit). The result is a collection of candidate onward
// trajectories, possibly containing false positives for a human or an
// analytics layer to prune (paper Section 4.2.1).
func (sn *Snapshot) TraceForward(start int64, limits TraceLimits) ([][]int64, error) {
	return sn.trace(start, limits, true)
}

// TraceBackward enumerates the maximal backward paths into start.
func (sn *Snapshot) TraceBackward(start int64, limits TraceLimits) ([][]int64, error) {
	return sn.trace(start, limits, false)
}

// trace is the one traversal: the maximal cycle-free paths from start,
// depth-first over edges in sorted order, within the limits.
func (sn *Snapshot) trace(start int64, limits TraceLimits, forward bool) ([][]int64, error) {
	if nodeAt(sn.verts, start) == nil {
		return nil, fmt.Errorf("%w: %d", ErrVertexNotFound, start)
	}
	limits = limits.sanitized()
	var paths [][]int64
	onPath := map[int64]bool{start: true}
	var dfs func(path []int64)
	dfs = func(path []int64) {
		if len(paths) >= limits.MaxPaths {
			return
		}
		extended := false
		if len(path) < limits.MaxDepth {
			for _, e := range sn.edges(path[len(path)-1], forward) {
				next := e.To
				if !forward {
					next = e.From
				}
				if onPath[next] {
					continue // cycle guard
				}
				onPath[next] = true
				extended = true
				dfs(append(path, next))
				delete(onPath, next)
			}
		}
		if !extended {
			paths = append(paths, append([]int64(nil), path...))
		}
	}
	dfs([]int64{start})
	return paths, nil
}

// Trajectory returns the full candidate space-time tracks through start:
// each path runs from a possible origin through start to a possible end,
// as vertex IDs in time order. Both halves walk the same view, so the
// result is consistent however many writes land meanwhile.
func (sn *Snapshot) Trajectory(start int64, limits TraceLimits) ([][]int64, error) {
	back, err := sn.trace(start, limits, false)
	if err != nil {
		return nil, err
	}
	fwd, _ := sn.trace(start, limits, true)
	// Splice each backward path (start -> origin), reversed into time
	// order, with each forward path (start -> end).
	maxPaths := limits.sanitized().MaxPaths
	var out [][]int64
	for _, b := range back {
		for _, f := range fwd {
			if len(out) >= maxPaths {
				return out, nil
			}
			path := make([]int64, 0, len(b)+len(f)-1)
			for i := len(b) - 1; i >= 0; i-- {
				path = append(path, b[i])
			}
			out = append(out, append(path, f[1:]...)) // skip duplicated start
		}
	}
	return out, nil
}
