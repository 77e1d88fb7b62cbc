package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/feature"
	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/trajstore"
	"repro/internal/vision"
)

// scale sizes a run. fullScale is what BENCHMARK.json measures; tinyScale
// is the same code on a world small enough for `go test`.
type scale struct {
	gridRows, gridCols int
	gridSpacingM       float64
	vehicles           int
	routeLegs          int
	departEvery        time.Duration // virtual
	// compression is handoff_stream's replay speed over real time. Not a
	// round 8: a 1/15 s tick replayed 8x is exactly a sixth of the
	// BatchWriter's 50 ms flush period, so every edge of a run would meet
	// the flush timer at one of six fixed phases and the commit latency
	// would depend on where each node's timer happened to start.
	compression float64
	// maxLateTicks invalidates an open-loop run in which a quarter of the
	// ticks started later than this many ticks: a generator that cannot
	// hold the rate falls ever further behind, so most of its ticks are
	// late. A quiet host runs 0.15 ticks late at p95 (timer slack, and GC
	// cycles of the heap the deployment shares with the generator). The
	// guard reads p75, not p95, because this VM is at times paused for a
	// second or two: the catch-up makes 5-10 % of a run's ticks late, and
	// commit latency, timed from the hand-in, is off only for the few
	// commits that straddle the pause. The tiny scale has no such guard:
	// it must also pass under the race detector, where the generator
	// cannot hold the rate at all.
	maxLateTicks float64

	queryVehicles int
	queryHops     int
	// query_under_ingest offers writes and queries at this same fixed
	// rate, so every query finds exactly one handoff written since the
	// previous one. Not a divisor of the 50 ms flush period, for the
	// reason above.
	ingestOpsPerSec float64

	setups      int // set-ups timed per untraced run; setup_s is their median
	probeRounds int // repetitions of each post-run probe

	segmentBytes, retainBytes int64
	frameSampleEvery          uint32 // one shipped frame in this many is read back and checksummed
	minFreeDisk               uint64
}

func fullScale() scale {
	return scale{
		gridRows: 2, gridCols: 3, gridSpacingM: 150, vehicles: 120, routeLegs: 6,
		departEvery: 1500 * time.Millisecond, compression: 7.9, maxLateTicks: 2,
		queryVehicles: 2000, queryHops: 5, ingestOpsPerSec: 47,
		setups: 5, probeRounds: 200,
		segmentBytes: 16 << 20, retainBytes: 256 << 20, frameSampleEvery: 50,
		minFreeDisk: 6 << 30,
	}
}

func tinyScale() scale {
	return scale{
		// 40 m blocks, so a vehicle reaches its next camera within the
		// 8 virtual seconds a one-second window replays.
		gridRows: 2, gridCols: 2, gridSpacingM: 40, vehicles: 8, routeLegs: 4,
		departEvery: 300 * time.Millisecond, compression: 7.9, maxLateTicks: math.Inf(1),
		queryVehicles: 400, queryHops: 5, ingestOpsPerSec: 47,
		setups: 1, probeRounds: 10,
		// ~80 of a one-second run's ~230 frames survive retention GC.
		segmentBytes: 1 << 20, retainBytes: 16 << 20, frameSampleEvery: 5,
	}
}

const cameraFPS = 15

var worldOrigin = geo.Point{Lat: 33.7756, Lon: -84.3963}

// ingestWorld is the shared traffic the camera nodes watch. Virtual time
// only selects what Camera.Render draws; the nodes run on the real clock.
type ingestWorld struct {
	graph   *roadnet.Graph
	world   *sim.World
	cameras []*sim.Camera // index-aligned with camIDs
	camIDs  []string
	camPos  []geo.Point
}

func camID(i int) string { return fmt.Sprintf("cam%d", i) }

// newIngestWorld derives graph, camera sites, routes, speeds and colours
// from seed. The topology server gets its own copy of the graph (it
// places cameras in it), so the world's copy stays untouched.
func newIngestWorld(sc scale, seed int64) (*ingestWorld, error) {
	graph, nodes, err := roadnet.Grid(sc.gridRows, sc.gridCols, sc.gridSpacingM, worldOrigin)
	if err != nil {
		return nil, err
	}
	world, err := sim.NewWorld(sim.WorldConfig{Sim: des.New(time.Unix(0, 0).UTC()), Graph: graph})
	if err != nil {
		return nil, err
	}
	w := &ingestWorld{graph: graph, world: world}
	for i, nid := range nodes {
		node, err := graph.Node(nid)
		if err != nil {
			return nil, err
		}
		cam, err := world.AddCamera(sim.DefaultCameraSpec(camID(i), node.Pos, 0), func(*vision.Frame) {})
		if err != nil {
			return nil, err
		}
		w.cameras = append(w.cameras, cam)
		w.camIDs = append(w.camIDs, camID(i))
		w.camPos = append(w.camPos, node.Pos)
	}
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < sc.vehicles; v++ {
		route, err := sim.RandomRoute(graph, rng, nodes[rng.Intn(len(nodes))], sc.routeLegs)
		if err != nil {
			return nil, err
		}
		err = world.AddVehicle(sim.VehicleSpec{
			ID:       fmt.Sprintf("veh-%03d", v),
			Color:    sim.PaletteColor(v),
			SpeedMPS: 12 + rng.Float64()*6,
			Route:    route,
			Depart:   time.Duration(v) * sc.departEvery,
		})
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// handoff is one ground-truth camera-to-camera transition of a vehicle.
type handoff struct{ vehicle, from, to string }

// truthHandoffs lists, from what the cameras actually drew, every
// consecutive pair of visits of one vehicle at two different cameras.
func (w *ingestWorld) truthHandoffs() map[handoff]int {
	type stop struct {
		cam   string
		enter time.Duration
	}
	byVehicle := make(map[string][]stop)
	for i, cam := range w.cameras {
		for _, v := range cam.Visits() {
			byVehicle[v.VehicleID] = append(byVehicle[v.VehicleID], stop{w.camIDs[i], v.Enter})
		}
	}
	out := make(map[handoff]int)
	for veh, stops := range byVehicle {
		sort.Slice(stops, func(i, j int) bool { return stops[i].enter < stops[j].enter })
		for i := 1; i < len(stops); i++ {
			if stops[i].cam != stops[i-1].cam {
				out[handoff{veh, stops[i-1].cam, stops[i].cam}]++
			}
		}
	}
	return out
}

// queryGraph describes the preloaded trajectory graph the query workloads
// read: queryVehicles tracks of queryHops sightings each, a seeded tenth
// of the hops with a second, weaker candidate edge into another track, so
// reconstruction has alternatives to rank.
type queryGraph struct {
	vehicles int
	hops     int
	// last[v] is the vertex ID of vehicle v's newest sighting, where the
	// query_under_ingest writer appends.
	last []int64
}

func queryVehicleID(v int) string { return fmt.Sprintf("qv-%05d", v) }
func queryCamID(hop int) string   { return fmt.Sprintf("qcam%d", hop) }
func queryEventID(v, hop int) protocol.EventID {
	return protocol.NewEventID(queryCamID(hop), int64(v))
}

var queryEpoch = time.Unix(1_600_000_000, 0).UTC()

func sparseHistogram(rng *rand.Rand) feature.Histogram {
	bins := make([]float64, feature.HistogramSize)
	for i := 0; i < 6; i++ {
		bins[rng.Intn(len(bins))] += 1.0 / 6
	}
	return feature.Histogram{Bins: bins}
}

// preloadQueryGraph writes the graph through the store's own batch path
// (WAL included), as a bulk import into a live store would.
func preloadQueryGraph(store *trajstore.Store, sc scale, seed int64) (*queryGraph, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x71756572)) // decorrelate from the traffic stream
	g := &queryGraph{vehicles: sc.queryVehicles, hops: sc.queryHops, last: make([]int64, sc.queryVehicles)}
	first := int64(store.NumVertices()) + 1
	vertexOf := func(v, hop int) int64 { return first + int64(v*sc.queryHops+hop) }

	batch := make([]protocol.TrajWrite, 0, 600)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		_, errs, err := store.ApplyBatch(batch)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for _, e := range errs {
			if e != nil {
				return fmt.Errorf("preload: %w", e)
			}
		}
		batch = batch[:0]
		return nil
	}
	for v := 0; v < sc.queryVehicles; v++ {
		hist := sparseHistogram(rng)
		for hop := 0; hop < sc.queryHops; hop++ {
			batch = append(batch, protocol.VertexWrite(protocol.DetectionEvent{
				ID:        queryEventID(v, hop),
				CameraID:  queryCamID(hop),
				Timestamp: queryEpoch.Add(time.Duration(v*sc.queryHops+hop) * time.Second),
				Histogram: hist,
				TrackID:   int64(v),
				TruthID:   queryVehicleID(v),
			}))
			if hop > 0 {
				batch = append(batch, protocol.EdgeWrite(vertexOf(v, hop-1), vertexOf(v, hop), 0.05+0.1*rng.Float64()))
				// The weaker alternative points back into an earlier
				// track, whose vertices already exist.
				if v > 0 && rng.Intn(10) == 0 {
					batch = append(batch, protocol.EdgeWrite(vertexOf(rng.Intn(v), hop-1), vertexOf(v, hop), 0.2+0.1*rng.Float64()))
				}
			}
		}
		g.last[v] = vertexOf(v, sc.queryHops-1)
		if len(batch) >= 512 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if got := first + int64(sc.queryVehicles*sc.queryHops) - 1; store.NumVertices() != int(got) {
		return nil, fmt.Errorf("preload: store has %d vertices, want %d", store.NumVertices(), got)
	}
	return g, nil
}
