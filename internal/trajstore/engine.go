// Server-side trajectory query engine. The paper's end product is the
// space-time query ("where did this vehicle go?"), and executing the
// reconstruction where the data lives — one RPC in, whole ranked tracks
// out — is what keeps the read path off the WAN. The walk is written
// once, over a Snapshot, so the server and local callers run
// byte-identical reconstruction logic.

package trajstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// ErrNoTracks is returned by BestTrack when a sighting exists but no
// track passes through it (cannot happen on a well-formed graph: every
// vertex yields at least its own single-hop track).
var ErrNoTracks = errors.New("trajstore: no tracks")

// Hop is one sighting on a reconstructed track.
type Hop struct {
	VertexID int64     `json:"vertexId"`
	Camera   string    `json:"camera"`
	Time     time.Time `json:"time"`
	// LinkWeight is the Bhattacharyya distance of the edge arriving at
	// this hop (0 for the first hop).
	LinkWeight float64 `json:"linkWeight"`
}

// Track is one candidate space-time trajectory.
type Track struct {
	Hops []Hop `json:"hops"`
	// TotalWeight sums the link weights; lower = more confident.
	TotalWeight float64 `json:"totalWeight"`
	// MeanWeight is TotalWeight over the number of links (0 for a
	// single-sighting track).
	MeanWeight float64 `json:"meanWeight"`
	// Duration spans the first to the last sighting.
	Duration time.Duration `json:"duration"`
}

// Cameras returns the camera sequence of the track.
func (t Track) Cameras() []string {
	out := make([]string, len(t.Hops))
	for i, h := range t.Hops {
		out[i] = h.Camera
	}
	return out
}

// FindTracks returns every candidate track through the sighting with
// the given event ID, ranked: longer tracks first (more of the
// vehicle's journey explained), then lower mean link weight (higher
// confidence).
func FindTracks(sn *Snapshot, eventID protocol.EventID, limits TraceLimits) ([]Track, error) {
	if sn == nil {
		return nil, errors.New("trajstore: nil snapshot")
	}
	start, err := sn.FindByEventID(eventID)
	if err != nil {
		return nil, err
	}
	return ReconstructTracks(sn, start.ID, limits)
}

// ReconstructTracks is FindTracks keyed by vertex ID.
func ReconstructTracks(sn *Snapshot, vertexID int64, limits TraceLimits) ([]Track, error) {
	if sn == nil {
		return nil, errors.New("trajstore: nil snapshot")
	}
	paths, err := sn.Trajectory(vertexID, limits)
	if err != nil {
		return nil, err
	}
	tracks := make([]Track, 0, len(paths))
	for _, path := range paths {
		track, err := buildTrack(sn, path)
		if err != nil {
			return nil, err
		}
		tracks = append(tracks, track)
	}
	sort.SliceStable(tracks, func(i, j int) bool {
		if len(tracks[i].Hops) != len(tracks[j].Hops) {
			return len(tracks[i].Hops) > len(tracks[j].Hops)
		}
		return tracks[i].MeanWeight < tracks[j].MeanWeight
	})
	return tracks, nil
}

// BestTrack returns the top-ranked track through a sighting.
func BestTrack(sn *Snapshot, eventID protocol.EventID, limits TraceLimits) (Track, error) {
	tracks, err := FindTracks(sn, eventID, limits)
	if err != nil {
		return Track{}, err
	}
	if len(tracks) == 0 {
		return Track{}, fmt.Errorf("%w through %q", ErrNoTracks, eventID)
	}
	return tracks[0], nil
}

// SightingsOf lists every sighting whose simulation ground truth
// matches the vehicle ID, in time order (ties in vertex-ID order) — an
// evaluation convenience for comparing reconstructed tracks with what
// actually happened. It probes IDs 1..maxVertexID one by one: the
// reference scan that the index answer (Snapshot.Sightings, which the
// server's sightings op runs) is held equal to in tests.
func SightingsOf(sn *Snapshot, maxVertexID int64, vehicleID string) ([]Hop, error) {
	if sn == nil {
		return nil, errors.New("trajstore: nil snapshot")
	}
	var out []Hop
	for vid := int64(1); vid <= maxVertexID; vid++ {
		if v, err := sn.Vertex(vid); err == nil && v.Event.TruthID == vehicleID {
			out = append(out, sighting(v))
		}
	}
	return sortSightings(out), nil
}

// Sightings is SightingsOf answered from the vehicle index: the cost is
// the vehicle's own sightings, not the graph's size. maxVertexID <= 0
// means the whole view.
func (sn *Snapshot) Sightings(vehicleID string, maxVertexID int64) []Hop {
	var out []Hop
	for _, vid := range sn.truthIDs(vehicleID, maxVertexID) {
		out = append(out, sighting(sn.verts[vid-1].v))
	}
	return sortSightings(out)
}

func sighting(v Vertex) Hop {
	return Hop{VertexID: v.ID, Camera: v.Event.CameraID, Time: v.Event.Timestamp}
}

// sortSightings orders hops by time; the sort is stable over its
// ascending-vertex-ID input, so equal timestamps keep ID order.
func sortSightings(hops []Hop) []Hop {
	sort.SliceStable(hops, func(i, j int) bool { return hops[i].Time.Before(hops[j].Time) })
	return hops
}

func buildTrack(sn *Snapshot, path []int64) (Track, error) {
	if len(path) == 0 {
		return Track{}, errors.New("trajstore: empty path")
	}
	track := Track{Hops: make([]Hop, 0, len(path))}
	for i, vid := range path {
		v, err := sn.Vertex(vid)
		if err != nil {
			return Track{}, err
		}
		hop := sighting(v)
		if i > 0 {
			w, err := edgeWeight(sn, path[i-1], vid)
			if err != nil {
				return Track{}, err
			}
			hop.LinkWeight = w
			track.TotalWeight += w
		}
		track.Hops = append(track.Hops, hop)
	}
	if n := len(track.Hops) - 1; n > 0 {
		track.MeanWeight = track.TotalWeight / float64(n)
	}
	track.Duration = track.Hops[len(track.Hops)-1].Time.Sub(track.Hops[0].Time)
	return track, nil
}

func edgeWeight(sn *Snapshot, from, to int64) (float64, error) {
	edges, err := sn.OutEdges(from)
	if err != nil {
		return 0, err
	}
	for _, e := range edges {
		if e.To == to {
			return e.Weight, nil
		}
	}
	return 0, fmt.Errorf("trajstore: missing edge %d->%d", from, to)
}

// --- Server-side engine: snapshot execution, result cache, telemetry ---

// queryMetrics are the engine's pre-resolved coralpie_query_* handles.
type queryMetrics struct {
	hits     *obs.Counter
	misses   *obs.Counter
	latency  *obs.Histogram
	inflight *obs.Gauge
}

func newQueryMetrics(reg *obs.Registry) queryMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return queryMetrics{
		hits: reg.Counter("coralpie_query_cache_hits_total",
			"server-side query results served from the result cache"),
		misses: reg.Counter("coralpie_query_cache_misses_total",
			"server-side queries executed against a graph snapshot"),
		latency: reg.Histogram("coralpie_query_latency_seconds",
			"server-side query execution latency (cache hits included)", nil),
		inflight: reg.Gauge("coralpie_query_inflight",
			"server-side queries currently executing"),
	}
}

// queryKey identifies one server-side query result: the op plus every
// request parameter that shapes the answer. A request carries one, the
// fields its op does not read left zero.
type queryKey struct {
	op        byte
	eventID   protocol.EventID
	vertexID  int64
	vehicleID string
	maxVertex int64
	limits    TraceLimits
}

// query answers the reconstruct, best or sightings op k names over snap.
// A sightings maxVertex <= 0 means "the whole graph", resolved against
// snap (0 stays in the cache key; the version tag invalidates the entry
// when the graph grows).
func (k *queryKey) query(snap *Snapshot) (any, error) {
	a := reply{kind: ops[k.op].answer}
	var err error
	switch k.op {
	case opReconstruct:
		if k.eventID != "" {
			a.tracks, err = FindTracks(snap, k.eventID, k.limits)
		} else {
			a.tracks, err = ReconstructTracks(snap, k.vertexID, k.limits)
		}
	case opBest:
		a.tracks = make([]Track, 1)
		a.tracks[0], err = BestTrack(snap, k.eventID, k.limits)
	case opSightings:
		a.hops = snap.Sightings(k.vehicleID, k.maxVertex)
	}
	return a, err
}

// queryEngine executes the reconstruct/best/sightings ops against a
// store snapshot, memoizing whole results in a bounded LRU cache. An
// entry is tagged with the snapshot version it was computed at and
// checked on every lookup, so an answer older than the newest committed
// write is never served; the LRU bound caps what stale entries can hold.
type queryEngine struct {
	store *Store
	cache *queryCache // nil disables caching
	m     queryMetrics
}

// DefaultQueryCacheSize bounds the server-side result cache when the
// server options leave it unset.
const DefaultQueryCacheSize = 256

func newQueryEngine(store *Store, cacheSize int, reg *obs.Registry) *queryEngine {
	e := &queryEngine{store: store, m: newQueryMetrics(reg)}
	if cacheSize == 0 {
		cacheSize = DefaultQueryCacheSize
	}
	if cacheSize > 0 {
		e.cache = newQueryCache(cacheSize)
	}
	return e
}

// do runs one query: load the newest snapshot, consult the result cache,
// compute on miss, and record metrics plus a "query" child span when the
// request carried a sampled trace context.
func (e *queryEngine) do(ctx context.Context, key queryKey, compute func(*Snapshot) (any, error)) (any, error) {
	tr, clk := e.store.tracerClock()
	e.m.inflight.Inc()
	defer e.m.inflight.Dec()
	start := clk.Now()
	snap := e.store.Snapshot()
	var (
		val any
		err error
		hit bool
	)
	if e.cache != nil {
		val, hit = e.cache.get(key, snap.version)
	}
	if hit {
		e.m.hits.Inc()
	} else {
		e.m.misses.Inc()
		val, err = compute(snap)
		if err == nil && e.cache != nil {
			e.cache.put(key, snap.version, val)
		}
	}
	end := clk.Now()
	e.m.latency.Observe(end.Sub(start).Seconds())
	if tr != nil {
		if sc, ok := obs.SpanFromContext(ctx); ok && sc.Sampled {
			outcome, cached := "ok", "miss"
			if err != nil {
				outcome = "error"
			}
			if hit {
				cached = "hit"
			}
			tr.RecordChild(sc, "query", start, end,
				"op", ops[key.op].name, "cache", cached, "outcome", outcome)
		}
	}
	return val, err
}
