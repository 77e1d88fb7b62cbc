// Package sim is the world simulator standing in for the paper's live
// campus cameras: vehicles with distinct colors move over a road network
// (waiting at traffic lights), and each simulated camera renders raster
// frames of its field of view with ground-truth annotations. Downstream
// components consume real pixels and real bounding boxes, so the vision,
// tracking, and re-identification code paths run unchanged. A camera
// draws every frame into its one pixel buffer, redrawn at its next frame.
package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/roadnet"
	"repro/internal/vision"
)

// VehicleSpec describes one simulated vehicle.
type VehicleSpec struct {
	ID    string
	Color imaging.Color
	// SpeedMPS is the cruising speed in meters per second.
	SpeedMPS float64
	// Route is the sequence of intersections the vehicle drives through.
	// Every consecutive pair must be joined by a directed lane.
	Route []roadnet.NodeID
	// Depart is when the vehicle starts from Route[0].
	Depart time.Duration
}

// TrafficLight gates entry onto the lanes leaving a node: a vehicle
// arriving while the light is red waits for the next green.
type TrafficLight struct {
	Node roadnet.NodeID
	// Period is the full red+green cycle length.
	Period time.Duration
	// GreenFrac is the fraction of the cycle that is green, in (0, 1).
	GreenFrac float64
	// Phase offsets the cycle start.
	Phase time.Duration
}

// greenAt reports whether the light is green at t, and if not, when the
// next green phase begins.
func (l TrafficLight) greenAt(t time.Duration) (bool, time.Duration) {
	cyclePos := (t + l.Phase) % l.Period
	if cyclePos < 0 {
		cyclePos += l.Period
	}
	green := time.Duration(float64(l.Period) * l.GreenFrac)
	if cyclePos < green {
		return true, t
	}
	return false, t + (l.Period - cyclePos)
}

// segment is one piece of a vehicle's piecewise-linear motion schedule.
type segment struct {
	t0, t1   time.Duration
	from, to roadnet.NodeID
	waiting  bool // holding position at 'from'
}

// vehicle is a scheduled vehicle instance.
type vehicle struct {
	spec     VehicleSpec
	segments []segment
	done     time.Duration // time the route completes
}

// position returns the vehicle's location at time t; ok is false before
// departure and after route completion.
func (v *vehicle) position(g *roadnet.Graph, t time.Duration) (geo.Point, bool) {
	if t < v.spec.Depart || t >= v.done || len(v.segments) == 0 {
		return geo.Point{}, false
	}
	idx := sort.Search(len(v.segments), func(i int) bool { return v.segments[i].t1 > t })
	if idx >= len(v.segments) {
		return geo.Point{}, false
	}
	seg := v.segments[idx]
	fromNode, err := g.Node(seg.from)
	if err != nil {
		return geo.Point{}, false
	}
	if seg.waiting || seg.t1 == seg.t0 {
		return fromNode.Pos, true
	}
	toNode, err := g.Node(seg.to)
	if err != nil {
		return geo.Point{}, false
	}
	frac := float64(t-seg.t0) / float64(seg.t1-seg.t0)
	return fromNode.Pos.Lerp(toNode.Pos, frac), true
}

// WorldConfig assembles a world.
type WorldConfig struct {
	Sim   *des.Simulator
	Graph *roadnet.Graph
}

// World holds the simulated road network, vehicles, lights, and cameras.
// It is single-threaded: all mutation happens on the simulator goroutine.
type World struct {
	sim    *des.Simulator
	graph  *roadnet.Graph
	lights map[roadnet.NodeID]TrafficLight

	vehicles map[string]*vehicle
	// byID holds the vehicles sorted by ID, the order cameras draw them
	// in. Vehicles are never removed, so AddVehicle keeps it sorted.
	byID    []*vehicle
	cameras map[string]*Camera
	// lightRelease tracks the last discharge instant per signalized
	// intersection so queued vehicles release one headway apart instead
	// of as one overlapping clump.
	lightRelease map[roadnet.NodeID]time.Duration
}

// lightHeadwaySeconds is the discharge headway at a green light: the
// spacing between consecutive queued vehicles entering the intersection.
const lightHeadway = 1200 * time.Millisecond

// NewWorld validates the config and returns an empty world.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.Sim == nil || cfg.Graph == nil {
		return nil, errors.New("sim: simulator and graph required")
	}
	return &World{
		sim:          cfg.Sim,
		graph:        cfg.Graph,
		lights:       make(map[roadnet.NodeID]TrafficLight),
		vehicles:     make(map[string]*vehicle),
		cameras:      make(map[string]*Camera),
		lightRelease: make(map[roadnet.NodeID]time.Duration),
	}, nil
}

// Graph exposes the underlying road network.
func (w *World) Graph() *roadnet.Graph { return w.graph }

// Sim exposes the discrete-event simulator driving the world.
func (w *World) Sim() *des.Simulator { return w.sim }

// AddTrafficLight installs a light at a node. Lights must be added before
// the vehicles whose schedules they affect.
func (w *World) AddTrafficLight(l TrafficLight) error {
	if _, err := w.graph.Node(l.Node); err != nil {
		return err
	}
	if l.Period <= 0 {
		return fmt.Errorf("sim: light period %v must be positive", l.Period)
	}
	if l.GreenFrac <= 0 || l.GreenFrac >= 1 {
		return fmt.Errorf("sim: green fraction %v out of (0,1)", l.GreenFrac)
	}
	w.lights[l.Node] = l
	return nil
}

// AddVehicle schedules a vehicle. The schedule is computed eagerly:
// travel each lane at cruising speed, waiting at red lights.
func (w *World) AddVehicle(spec VehicleSpec) error {
	if spec.ID == "" {
		return errors.New("sim: vehicle id required")
	}
	if _, ok := w.vehicles[spec.ID]; ok {
		return fmt.Errorf("sim: vehicle %q already exists", spec.ID)
	}
	if spec.SpeedMPS <= 0 {
		return fmt.Errorf("sim: vehicle %q speed %v must be positive", spec.ID, spec.SpeedMPS)
	}
	if len(spec.Route) < 2 {
		return fmt.Errorf("sim: vehicle %q route needs >= 2 nodes", spec.ID)
	}
	v := &vehicle{spec: spec}
	t := spec.Depart
	for i := 0; i+1 < len(spec.Route); i++ {
		from, to := spec.Route[i], spec.Route[i+1]
		length, err := w.graph.EdgeLengthMeters(from, to)
		if err != nil {
			return fmt.Errorf("sim: vehicle %q leg %d: %w", spec.ID, i, err)
		}
		// Intermediate intersections with lights gate entry to the next
		// lane (the first node has no queue to model).
		if i > 0 {
			if light, ok := w.lights[from]; ok {
				release := w.lightReleaseTime(light, t)
				if release > t {
					v.segments = append(v.segments, segment{t0: t, t1: release, from: from, to: from, waiting: true})
					t = release
				}
				w.lightRelease[from] = release
			}
		}
		travel := time.Duration(float64(time.Second) * length / spec.SpeedMPS)
		v.segments = append(v.segments, segment{t0: t, t1: t + travel, from: from, to: to})
		t += travel
	}
	v.done = t
	w.vehicles[spec.ID] = v
	i := sort.Search(len(w.byID), func(i int) bool { return w.byID[i].spec.ID > spec.ID })
	w.byID = slices.Insert(w.byID, i, v)
	return nil
}

// lightReleaseTime computes when a vehicle arriving at a signalized
// intersection at time t may enter it: at a green phase, and at least one
// discharge headway after the previous vehicle released there.
func (w *World) lightReleaseTime(light TrafficLight, t time.Duration) time.Duration {
	release := t
	for iter := 0; iter < 100; iter++ {
		if green, next := light.greenAt(release); !green {
			release = next
			continue
		}
		if last, ok := w.lightRelease[light.Node]; ok && release < last+lightHeadway {
			release = last + lightHeadway
			continue
		}
		return release
	}
	return release
}

// VehicleDone returns when a vehicle finishes its route.
func (w *World) VehicleDone(id string) (time.Duration, error) {
	v, ok := w.vehicles[id]
	if !ok {
		return 0, fmt.Errorf("sim: vehicle %q not found", id)
	}
	return v.done, nil
}

// VehiclePosition returns a vehicle's position at time t.
func (w *World) VehiclePosition(id string, t time.Duration) (geo.Point, bool, error) {
	v, ok := w.vehicles[id]
	if !ok {
		return geo.Point{}, false, fmt.Errorf("sim: vehicle %q not found", id)
	}
	pos, visible := v.position(w.graph, t)
	return pos, visible, nil
}

// LastVehicleDone returns the completion time of the last vehicle, which
// is a natural simulation horizon.
func (w *World) LastVehicleDone() time.Duration {
	var last time.Duration
	for _, v := range w.vehicles {
		if v.done > last {
			last = v.done
		}
	}
	return last
}

// headingRadians converts a compass heading in degrees to radians.
func headingRadians(deg float64) float64 { return deg * math.Pi / 180 }

// planarOffsetMeters returns the (east, north) displacement from a to b.
func planarOffsetMeters(a, b geo.Point) (east, north float64) {
	north = (b.Lat - a.Lat) * 111194.0
	east = (b.Lon - a.Lon) * 111194.0 * math.Cos(a.Lat*math.Pi/180)
	return east, north
}

var _ = vision.Frame{} // vision types are used by camera.go
