package coralpie

import (
	"math/rand"
	"time"

	"repro/internal/camnode"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/feature"
	"repro/internal/fleet"
	"repro/internal/framestore"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/protocol"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/sim"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/vision"
)

// --- Geography and road network ---

// Point is a WGS84 latitude/longitude pair.
type Point = geo.Point

// Direction is one of the eight quantized compass travel directions used
// to key MDCS tables.
type Direction = geo.Direction

// The compass directions.
const (
	North     = geo.North
	NorthEast = geo.NorthEast
	East      = geo.East
	SouthEast = geo.SouthEast
	South     = geo.South
	SouthWest = geo.SouthWest
	West      = geo.West
	NorthWest = geo.NorthWest
)

// Graph is the road network: intersections as vertices, lanes as directed
// edges, cameras on vertices or along lanes. MDCS queries run against it.
type Graph = roadnet.Graph

// NodeID identifies a road intersection.
type NodeID = roadnet.NodeID

// NewGraph returns an empty road network.
func NewGraph() *Graph { return roadnet.NewGraph() }

// Grid builds a rows×cols Manhattan grid of two-way streets.
func Grid(rows, cols int, spacingMeters float64, origin Point) (*Graph, []NodeID, error) {
	return roadnet.Grid(rows, cols, spacingMeters, origin)
}

// Corridor builds a linear road of n intersections.
func Corridor(n int, spacingMeters float64, origin Point) (*Graph, []NodeID, error) {
	return roadnet.Corridor(n, spacingMeters, origin)
}

// Campus builds the 37-intersection campus-like network used by the
// paper's simulation studies.
func Campus() (*Graph, []NodeID, error) { return roadnet.Campus() }

// --- Vision stack (pluggable per the paper's Section 2.1) ---

// Detector is the pluggable detection component.
type Detector = vision.Detector

// Detection is one detector output.
type Detection = vision.Detection

// Frame is one captured camera frame.
type Frame = vision.Frame

// SimDetectorConfig is the error model of the simulated DCNN detector.
type SimDetectorConfig = vision.SimDetectorConfig

// NewSimDetector builds the ground-truth-driven detector with a
// calibrated noise model.
func NewSimDetector(cfg SimDetectorConfig) (*vision.SimDetector, error) {
	return vision.NewSimDetector(cfg)
}

// DefaultSimDetectorConfig returns the calibrated default error model.
func DefaultSimDetectorConfig(seed int64) SimDetectorConfig {
	return vision.DefaultSimDetectorConfig(seed)
}

// TrackerConfig parameterizes the SORT tracker.
type TrackerConfig = tracker.Config

// Histogram is the adaptive color signature carried in detection events.
type Histogram = feature.Histogram

// Bhattacharyya returns the Bhattacharyya distance between signatures.
func Bhattacharyya(p, q Histogram) (float64, error) { return feature.Bhattacharyya(p, q) }

// MatcherConfig parameterizes re-identification.
type MatcherConfig = reid.MatcherConfig

// Color is an 8-bit RGB triple used by the simulator's vehicle palette.
type Color = imaging.Color

// PaletteColor returns the i-th well-separated vehicle color.
func PaletteColor(i int) Color { return sim.PaletteColor(i) }

// RandomRoute generates a random drive of the given number of legs
// starting at start, avoiding immediate U-turns where possible.
func RandomRoute(g *Graph, rng *rand.Rand, start NodeID, legs int) ([]NodeID, error) {
	return sim.RandomRoute(g, rng, start, legs)
}

// --- Protocol ---

// DetectionEvent is the JSON object generated when a vehicle leaves a
// camera's field of view.
type DetectionEvent = protocol.DetectionEvent

// EventID uniquely identifies a detection event ("<camera>#<track>").
type EventID = protocol.EventID

// CameraRef names a peer camera and its transport address.
type CameraRef = protocol.CameraRef

// --- Per-camera node ---

// Node is one camera's processing stack (detection, tracking, features,
// re-identification, communication, storage clients).
type Node = camnode.Node

// NodeStats are a node's lifetime counters.
type NodeStats = camnode.Stats

// --- Trajectory storage ---

// TrajStore is the trajectory graph store.
type TrajStore = trajstore.Store

// TrajVertex is one detection event in the trajectory graph.
type TrajVertex = trajstore.Vertex

// TraceLimits bounds trajectory traversals.
type TraceLimits = trajstore.TraceLimits

// DefaultTraceLimits returns generous traversal bounds.
func DefaultTraceLimits() TraceLimits { return trajstore.DefaultTraceLimits() }

// NewMemTrajStore returns an in-memory trajectory store.
func NewMemTrajStore() *TrajStore { return trajstore.NewMemStore() }

// OpenTrajStore opens a persistent trajectory store rooted at dir.
func OpenTrajStore(dir string) (*TrajStore, error) { return trajstore.Open(dir) }

// FrameStore is the evidence-frame store: segmented per-camera logs
// with retention GC and lock-free reads.
type FrameStore = framestore.Store

// FrameStoreConfig tunes a frame store (segment size, retention, read
// cache).
type FrameStoreConfig = framestore.Config

// OpenFrameStore opens a persistent frame store rooted at dir ("" for
// in-memory) with explicit tuning.
func OpenFrameStore(dir string, cfg FrameStoreConfig) (*FrameStore, error) {
	return framestore.OpenStoreConfig(dir, cfg)
}

// Track is a reconstructed, confidence-scored space-time trajectory.
type Track = trajstore.Track

// ReconstructTracks returns every candidate track through a sighting,
// ranked most-plausible first (longer, then more confident), walking one
// committed snapshot of the store.
func ReconstructTracks(store *TrajStore, eventID EventID, limits TraceLimits) ([]Track, error) {
	return trajstore.FindTracks(store.Snapshot(), eventID, limits)
}

// BestTrack returns the top-ranked track through a sighting.
func BestTrack(store *TrajStore, eventID EventID, limits TraceLimits) (Track, error) {
	return trajstore.BestTrack(store.Snapshot(), eventID, limits)
}

// --- Simulation world ---

// VehicleSpec describes one simulated vehicle.
type VehicleSpec = sim.VehicleSpec

// TrafficLight gates a simulated intersection.
type TrafficLight = sim.TrafficLight

// CameraSpec describes one simulated camera.
type CameraSpec = sim.CameraSpec

// World is the simulated road world (vehicles, lights, cameras).
type World = sim.World

// --- Assembled system ---

// Config assembles a simulated Coral-Pie deployment.
type Config = core.Config

// System is a running simulated deployment: cameras, topology server,
// trajectory and frame stores over a simulated network on a
// discrete-event simulator.
type System = core.System

// NewSystem wires the shared services and returns a system ready for
// AddCamera / AddVehicle / Start.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// --- Fleet health plane ---

// FleetMonitor ingests node heartbeats and tracks per-node liveness,
// federates fleet-wide metrics, and evaluates declarative alert rules.
// When Config.EnableMonitor is set, System.Monitor returns the in-sim
// instance driven on simulated time.
type FleetMonitor = fleet.Monitor

// FleetRule is one declarative alert rule (threshold or rate).
type FleetRule = fleet.Rule

// FleetAlert is one alert instance for a (rule, node) pair.
type FleetAlert = fleet.Alert

// FleetAlertTransition records one firing/resolved edge.
type FleetAlertTransition = fleet.AlertTransition

// Alert states.
const (
	AlertFiring   = fleet.AlertFiring
	AlertResolved = fleet.AlertResolved
)

// ParseFleetRule parses "name=metric>value" or
// "name=rate(metric)>=value" into a rule.
func ParseFleetRule(s string) (FleetRule, error) { return fleet.ParseRule(s) }

// ClusterSummary is the whole-deployment health view served on /cluster.
type ClusterSummary = fleet.ClusterSummary

// --- Reproduction experiments (paper Section 5) ---

// The per-table/figure reproduction functions from the paper's Section 5.
// Each returns a structured result with paper-vs-measured fields.

// RunTable1 reproduces Table 1 (latency summary) plus the Section 5.2
// throughput observation.
func RunTable1() (experiments.Table1Result, error) { return experiments.Table1() }

// RunTable2 reproduces Table 2 (per-camera event detection accuracy).
func RunTable2(seed int64) (experiments.Table2Result, error) { return experiments.Table2(seed) }

// RunFigure10a reproduces Figure 10(a) (message vs vehicle arrival).
func RunFigure10a(seed int64) (experiments.Fig10aResult, error) { return experiments.Figure10a(seed) }

// RunFigure10b reproduces Figure 10(b) (candidate-pool redundancy,
// MDCS vs broadcast).
func RunFigure10b(seed int64) (experiments.Fig10bResult, error) { return experiments.Figure10b(seed) }

// RunFigure11 reproduces Figure 11 (failure recovery time).
func RunFigure11(heartbeat time.Duration, kills int, seed int64) (experiments.Fig11Result, error) {
	return experiments.Figure11(heartbeat, kills, seed)
}

// RunFigure12a reproduces Figure 12(a) (average MDCS size vs deployment
// size).
func RunFigure12a(seed int64) (experiments.Fig12aResult, error) { return experiments.Figure12a(seed) }

// RunFigure12b reproduces Figure 12(b) (redundancy vs camera density).
func RunFigure12b(seed int64) (experiments.Fig12bResult, error) { return experiments.Figure12b(seed) }

// RunReidAccuracy reproduces the Section 5.6 re-identification study.
func RunReidAccuracy(seed int64) (experiments.ReidResult, error) {
	return experiments.ReidAccuracy(seed)
}

// RunAblationSingleDevice reproduces the single-vs-dual device mapping
// study (Section 4.1.5).
func RunAblationSingleDevice() (experiments.AblationSingleDeviceResult, error) {
	return experiments.AblationSingleDevice()
}

// RunAblationSerialization reproduces the image-serialization study
// (Section 4.1.5).
func RunAblationSerialization() (experiments.AblationSerializationResult, error) {
	return experiments.AblationSerialization()
}

// RunAblationDetectAndTrack reproduces the detect-and-track study
// (Section 4.1.5).
func RunAblationDetectAndTrack(seed int64) (experiments.AblationDetectAndTrackResult, error) {
	return experiments.AblationDetectAndTrack(seed)
}
