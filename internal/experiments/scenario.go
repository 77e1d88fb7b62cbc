package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/camnode"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/tracker"
	"repro/internal/vision"
)

// CorridorConfig parameterizes the shared evaluation scenario: a main
// east-west road crossed by side streets, cameras along the main road,
// vehicles that either drive through or turn off at camera-free
// intersections — the synthetic stand-in for the paper's five campus
// cameras.
type CorridorConfig struct {
	// Cameras is the number of cameras along the corridor (paper: 5).
	Cameras int
	// InactiveCameras lists camera indices (1-based) that are installed
	// in the scenario definition but not deployed, for the Figure 12(b)
	// density study.
	InactiveCameras []int
	// Vehicles is the number of simulated vehicles.
	Vehicles int
	// TurnProb is the probability a vehicle turns off the corridor at
	// each camera-free intersection.
	TurnProb float64
	// DepartEvery spaces vehicle departures.
	DepartEvery time.Duration
	// TrafficLightAfterCamera adds a light at the given camera's
	// intersection (1-based; 0 = none), producing the stepped arrivals in
	// Figure 10(a).
	TrafficLightAfterCamera int
	// Broadcast overrides every camera's MDCS to all other cameras (the
	// flooding baseline the paper compares against).
	Broadcast bool
	// PerfectDetector disables the detection noise model.
	PerfectDetector bool
	// BlobDetector runs the truth-blind pixel detector (connected
	// components over a background model) instead of the ground-truth-
	// driven noise model: the full pipeline on pixels alone.
	BlobDetector bool
	// DetectInterval runs the detector only on every Nth frame (0 or 1 =
	// every frame), modeling the rejected detect-and-track design of
	// Section 4.1.5 where the tracker must coast between detections.
	DetectInterval int
	// Seed drives vehicle colors, routes, and detector noise.
	Seed int64
	// ColorPoolSize limits vehicles to the first N palette colors (0 =
	// every vehicle distinct). Small pools model real traffic's repeated
	// paint colors, which is what makes color-histogram
	// re-identification hard (paper Section 4.1.2).
	ColorPoolSize int
	// BrightnessJitter gives each camera a per-camera exposure offset
	// (see core.Config.BrightnessJitter).
	BrightnessJitter int
	// MatcherThreshold overrides the re-identification Bhattacharyya
	// threshold (0 uses the prototype default).
	MatcherThreshold float64
}

// slackAfterLastVehicle extends a corridor run beyond the last vehicle's
// route completion.
const slackAfterLastVehicle = 20 * time.Second

// DefaultCorridorConfig mirrors the paper's five-camera deployment.
func DefaultCorridorConfig(seed int64) CorridorConfig {
	return CorridorConfig{
		Cameras:     5,
		Vehicles:    20,
		TurnProb:    0.15,
		DepartEvery: 4 * time.Second,
		Seed:        seed,
	}
}

// EventRecord is one generated detection event with its sim-relative time
// and re-identification outcome.
type EventRecord struct {
	Event   protocol.DetectionEvent
	At      time.Duration
	Matched bool
	Dist    float64
}

// InformRecord is one informing message received by a camera.
type InformRecord struct {
	Event protocol.DetectionEvent
	At    time.Duration
}

// CorridorRun holds the collected observables of one scenario run.
type CorridorRun struct {
	Sys       *core.System
	CameraIDs []string // active cameras, west to east
	// Events, Informs, FirstSeen are keyed by camera ID.
	Events    map[string][]EventRecord
	Informs   map[string][]InformRecord
	FirstSeen map[string]map[string]time.Duration // camera -> vehicle -> time
	// CorridorLength is the number of corridor intersections.
	spacing float64
}

// CameraName returns the 1-based camera name used by the scenario.
func CameraName(i int) string { return fmt.Sprintf("cam%d", i) }

// buildCorridorGraph constructs the corridor topology: 2C+1 two-way
// corridor intersections plus one-way dead-end exit stubs at the even
// interior columns. Corridor node c has ID c; the stub off column c has
// ID 2C+1+c.
func buildCorridorGraph(cameras int, spacingMeters float64) (*roadnet.Graph, []roadnet.NodeID, error) {
	cols := 2*cameras + 1
	origin := geo.Point{Lat: 33.7756, Lon: -84.3963}
	g := roadnet.NewGraph()
	corridor := make([]roadnet.NodeID, cols)
	for c := 0; c < cols; c++ {
		id := roadnet.NodeID(c)
		pos := geo.Point{
			Lat: origin.Lat,
			Lon: origin.Lon + float64(c)*spacingMeters/(111194.0*0.8317), // cos(33.77 deg)
		}
		if err := g.AddNode(id, pos); err != nil {
			return nil, nil, err
		}
		corridor[c] = id
	}
	for c := 0; c+1 < cols; c++ {
		if err := g.AddRoad(corridor[c], corridor[c+1]); err != nil {
			return nil, nil, err
		}
	}
	for c := 2; c < cols-1; c += 2 {
		stub := roadnet.NodeID(cols + c)
		node, err := g.Node(corridor[c])
		if err != nil {
			return nil, nil, err
		}
		pos := geo.Point{Lat: node.Pos.Lat + spacingMeters/111194.0, Lon: node.Pos.Lon}
		if err := g.AddNode(stub, pos); err != nil {
			return nil, nil, err
		}
		// One-way exit: vehicles can leave but the DFS cannot route
		// around the corridor through the stub.
		if err := g.AddEdge(corridor[c], stub); err != nil {
			return nil, nil, err
		}
	}
	return g, corridor, nil
}

// RunCorridor executes the scenario and returns the collected run.
func RunCorridor(cfg CorridorConfig) (*CorridorRun, error) {
	if cfg.Cameras < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 cameras, have %d", cfg.Cameras)
	}
	if cfg.Vehicles < 1 {
		return nil, fmt.Errorf("experiments: need >= 1 vehicle")
	}
	if cfg.DepartEvery <= 0 {
		cfg.DepartEvery = 4 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Topology: an east-west corridor of 2C+1 intersections with cameras
	// at odd columns (1, 3, 5, ...). Every even interior column is a
	// camera-free intersection with a one-way exit stub heading north —
	// vehicles that turn there leave the camera network, like side
	// streets off the paper's campus corridor.
	cols := 2*cfg.Cameras + 1
	const spacing = 100.0
	graph, corridor, err := buildCorridorGraph(cfg.Cameras, spacing)
	if err != nil {
		return nil, err
	}
	middle := func(c int) roadnet.NodeID { return corridor[c] }
	north := func(c int) roadnet.NodeID { return roadnet.NodeID(cols + c) }

	inactive := make(map[int]bool)
	for _, i := range cfg.InactiveCameras {
		inactive[i] = true
	}

	sysCfg := core.Config{
		Graph: graph,
		Seed:  cfg.Seed,
		// Keep experiment frames small so 2000-frame sweeps stay fast,
		// but scale vehicles up to ~18x9 px so detector box jitter does
		// not fragment tracks.
		CameraWidth:      192,
		CameraHeight:     144,
		PxPerMeter:       4,
		BrightnessJitter: cfg.BrightnessJitter,
		// Reference-SORT min_hits suppresses one-frame false-positive
		// tracks, matching the paper's high event precision.
		Tracker: tracker.Config{MaxAge: 3, MinHits: 3, IoUThreshold: 0.25},
	}
	if cfg.MatcherThreshold > 0 {
		sysCfg.Matcher = reid.MatcherConfig{BhattThreshold: cfg.MatcherThreshold}
	}
	if cfg.PerfectDetector {
		sysCfg.DetectorFactory = func(string) (vision.Detector, error) {
			return vision.PerfectDetector{}, nil
		}
	}
	if cfg.BlobDetector {
		if cfg.BrightnessJitter > 0 {
			return nil, fmt.Errorf("experiments: blob detector needs a stable background model; disable brightness jitter")
		}
		sysCfg.DetectorFactory = func(string) (vision.Detector, error) {
			blob, err := vision.NewBlobDetector(vision.DefaultBlobDetectorConfig())
			if err != nil {
				return nil, err
			}
			return &vision.TruthAttributingDetector{Inner: blob}, nil
		}
	}
	if cfg.DetectInterval > 1 {
		// Detect-and-track: a KCF-style tracker coasts between
		// detections, modeled as the Kalman filter predicting through
		// the gaps — so max_age must span several detection intervals
		// for tracks to survive at all.
		sysCfg.Tracker.MaxAge = cfg.DetectInterval * 3
		inner := sysCfg.DetectorFactory
		sysCfg.DetectorFactory = func(id string) (vision.Detector, error) {
			var base vision.Detector
			if inner != nil {
				d, err := inner(id)
				if err != nil {
					return nil, err
				}
				base = d
			} else {
				d, err := vision.NewSimDetector(vision.DefaultSimDetectorConfig(cfg.Seed))
				if err != nil {
					return nil, err
				}
				base = d
			}
			return &intervalDetector{
				inner: base,
				every: cfg.DetectInterval,
				rng:   rand.New(rand.NewSource(cfg.Seed)),
				lost:  make(map[string]bool),
			}, nil
		}
	}
	sys, err := core.NewSystem(sysCfg)
	if err != nil {
		return nil, err
	}

	run := &CorridorRun{
		Sys:       sys,
		Events:    make(map[string][]EventRecord),
		Informs:   make(map[string][]InformRecord),
		FirstSeen: make(map[string]map[string]time.Duration),
		spacing:   spacing,
	}
	epoch := sys.Sim().Epoch()

	for i := 1; i <= cfg.Cameras; i++ {
		if inactive[i] {
			continue
		}
		name := CameraName(i)
		col := 2*i - 1
		if err := sys.AddCameraAt(name, middle(col), 0); err != nil {
			return nil, err
		}
		run.CameraIDs = append(run.CameraIDs, name)
		run.FirstSeen[name] = make(map[string]time.Duration)
		node, err := sys.Node(name)
		if err != nil {
			return nil, err
		}
		node.SetHooks(camnode.Hooks{
			OnEvent: func(e protocol.DetectionEvent, matched bool, _ protocol.EventID, dist float64) {
				run.Events[name] = append(run.Events[name], EventRecord{
					Event: e, At: e.Timestamp.Sub(epoch), Matched: matched, Dist: dist,
				})
			},
			OnInformReceived: func(e protocol.DetectionEvent, at time.Time) {
				run.Informs[name] = append(run.Informs[name], InformRecord{Event: e, At: at.Sub(epoch)})
			},
			OnFirstSeen: func(truthID string, at time.Time) {
				if _, ok := run.FirstSeen[name][truthID]; !ok {
					run.FirstSeen[name][truthID] = at.Sub(epoch)
				}
			},
		})
	}

	if cfg.TrafficLightAfterCamera > 0 {
		col := 2*cfg.TrafficLightAfterCamera - 1
		err := sys.World().AddTrafficLight(sim.TrafficLight{
			Node:      middle(col),
			Period:    40 * time.Second,
			GreenFrac: 0.35,
		})
		if err != nil {
			return nil, err
		}
	}

	// Vehicles: enter at the west end of the corridor; at each even
	// interior column they may turn north and leave the network.
	for v := 0; v < cfg.Vehicles; v++ {
		route := []roadnet.NodeID{middle(0)}
		for c := 1; c < cols; c++ {
			route = append(route, middle(c))
			// Vehicles may turn off at camera-free intersections, except
			// the one between the last two cameras: in the fully
			// deployed configuration every inform from the penultimate
			// camera is then matched, mirroring the paper's 0% baseline
			// in Figure 12(b).
			if c%2 == 0 && c < cols-3 && rng.Float64() < cfg.TurnProb {
				route = append(route, north(c))
				break
			}
		}
		colorIdx := v
		if cfg.ColorPoolSize > 0 {
			colorIdx = v % cfg.ColorPoolSize
		}
		// Single-lane traffic: a uniform cruising speed keeps vehicles
		// from overtaking (and fully occluding) each other mid-corridor.
		spec := sim.VehicleSpec{
			ID:       fmt.Sprintf("veh-%02d", v),
			Color:    sim.PaletteColor(colorIdx),
			SpeedMPS: 15,
			Route:    route,
			Depart:   time.Duration(v) * cfg.DepartEvery,
		}
		if err := sys.World().AddVehicle(spec); err != nil {
			return nil, err
		}
	}

	sys.Start(context.Background())
	if cfg.Broadcast {
		// Give registration a moment, then override every camera's MDCS
		// with the full camera set (flooding baseline).
		sys.Sim().Schedule(2*time.Second, func() {
			refs := make([]protocol.CameraRef, 0, len(run.CameraIDs))
			for _, id := range run.CameraIDs {
				refs = append(refs, protocol.CameraRef{ID: id, Addr: id})
			}
			for _, id := range run.CameraIDs {
				node, err := sys.Node(id)
				if err != nil {
					continue
				}
				table := make(map[geo.Direction][]protocol.CameraRef)
				for _, d := range geo.AllDirections() {
					var others []protocol.CameraRef
					for _, r := range refs {
						if r.ID != id {
							others = append(others, r)
						}
					}
					table[d] = others
				}
				node.Topology().ApplyUpdate(protocol.TopologyUpdate{
					CameraID: id,
					Version:  1 << 40,
					MDCS:     table,
				})
			}
		})
	}

	horizon := sys.World().LastVehicleDone() + slackAfterLastVehicle
	sys.Run(horizon)
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		return nil, err
	}
	return run, nil
}

// VisitsOf returns the ground-truth visits for a camera as metric
// intervals.
func (r *CorridorRun) VisitsOf(camera string) ([]metrics.Interval, error) {
	visits, err := r.Sys.World().Visits(camera)
	if err != nil {
		return nil, err
	}
	out := make([]metrics.Interval, 0, len(visits))
	for _, v := range visits {
		out = append(out, metrics.Interval{ID: v.VehicleID, Enter: v.Enter, Exit: v.Exit})
	}
	return out, nil
}

// ScoredEventsOf reduces a camera's generated events for scoring.
func (r *CorridorRun) ScoredEventsOf(camera string) []metrics.ScoredEvent {
	events := r.Events[camera]
	out := make([]metrics.ScoredEvent, 0, len(events))
	for _, e := range events {
		out = append(out, metrics.ScoredEvent{TruthID: e.Event.TruthID, At: e.At})
	}
	return out
}

// TruthTransitions derives the ground-truth camera-to-camera transitions
// from the recorded visits: for each vehicle, its camera visits in time
// order, pairwise.
func (r *CorridorRun) TruthTransitions() ([]metrics.Transition, error) {
	type stamped struct {
		camera string
		at     time.Duration
	}
	byVehicle := make(map[string][]stamped)
	for _, cam := range r.CameraIDs {
		visits, err := r.Sys.World().Visits(cam)
		if err != nil {
			return nil, err
		}
		for _, v := range visits {
			byVehicle[v.VehicleID] = append(byVehicle[v.VehicleID], stamped{camera: cam, at: v.Enter})
		}
	}
	var out []metrics.Transition
	for vid, stamps := range byVehicle {
		sort.Slice(stamps, func(i, j int) bool { return stamps[i].at < stamps[j].at })
		for i := 0; i+1 < len(stamps); i++ {
			out = append(out, metrics.Transition{
				VehicleID: vid,
				FromCam:   stamps[i].camera,
				ToCam:     stamps[i+1].camera,
			})
		}
	}
	return out, nil
}

// MatchedEdges reduces the trajectory graph's edges for transition
// scoring.
func (r *CorridorRun) MatchedEdges() ([]metrics.MatchedEdge, error) {
	store := r.Sys.TrajStore()
	var out []metrics.MatchedEdge
	for vid := int64(1); vid <= int64(store.NumVertices()); vid++ {
		from, err := store.Vertex(vid)
		if err != nil {
			continue
		}
		for _, e := range store.OutEdges(vid) {
			to, err := store.Vertex(e.To)
			if err != nil {
				continue
			}
			out = append(out, metrics.MatchedEdge{
				FromCam:   from.Event.CameraID,
				ToCam:     to.Event.CameraID,
				FromTruth: from.Event.TruthID,
				ToTruth:   to.Event.TruthID,
			})
		}
	}
	return out, nil
}

// RedundancyOf returns the fraction of informing messages a camera
// received that it never re-identified itself (the paper's
// "spurious/redundant events" — entries that sat in the candidate pool
// without this camera confirming the vehicle).
func (r *CorridorRun) RedundancyOf(camera string) (float64, error) {
	node, err := r.Sys.Node(camera)
	if err != nil {
		return 0, err
	}
	stats := node.Stats()
	if stats.InformsReceived == 0 {
		return 0, nil
	}
	redundant := stats.InformsReceived - stats.ReidMatches
	if redundant < 0 {
		redundant = 0
	}
	return float64(redundant) / float64(stats.InformsReceived), nil
}
