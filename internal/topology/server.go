// Package topology implements Coral-Pie's camera topology management
// (paper Sections 3.3 and 4.3): the cloud-hosted topology server that
// registers cameras from their heartbeats, detects failures by heartbeat
// loss, recomputes each camera's minimum downstream camera set (MDCS), and
// pushes updates to the affected cameras; and the camera-side client that
// sends heartbeats and maintains the local MDCS table.
package topology

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/roadnet"
	"repro/internal/transport"
)

// ServerConfig parameterizes the topology server.
type ServerConfig struct {
	// LivenessTimeout is how long a camera may be silent before the
	// server declares it failed. The paper observes recovery within 2x
	// the heartbeat interval, so the default pairs a 2x multiplier with
	// whatever heartbeat interval the deployment uses.
	LivenessTimeout time.Duration
	// SnapToNodeMeters is the radius within which a camera's reported
	// position is considered "at" an intersection; farther positions are
	// projected onto the nearest lane (paper Section 4.3).
	SnapToNodeMeters float64
	// MoveThresholdMeters, when positive, enables moving-camera support
	// (paper Section 2 footnote): a known camera whose heartbeat position
	// drifts farther than this is re-placed in the road graph and the
	// affected MDCS tables are recomputed. Zero disables re-placement.
	MoveThresholdMeters float64
	// Registry receives the server's telemetry (coralpie_topology_*):
	// the live-camera gauge, heartbeat counters and lag histogram,
	// liveness evictions, and MDCS pushes. Nil uses obs.Default().
	Registry *obs.Registry
}

// serverMetrics are the topology server's pre-resolved handles.
type serverMetrics struct {
	liveCameras   *obs.Gauge
	heartbeats    *obs.Counter
	registrations *obs.Counter
	evictions     *obs.Counter
	pushes        *obs.Counter
	pushErrors    *obs.Counter
	heartbeatLag  *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return serverMetrics{
		liveCameras: reg.Gauge("coralpie_topology_live_cameras",
			"cameras currently registered and within their liveness lease"),
		heartbeats: reg.Counter("coralpie_topology_heartbeats_total",
			"heartbeat messages processed"),
		registrations: reg.Counter("coralpie_topology_registrations_total",
			"new cameras placed in the road graph"),
		evictions: reg.Counter("coralpie_topology_evictions_total",
			"cameras removed after missing their liveness lease"),
		pushes: reg.Counter("coralpie_topology_pushes_total",
			"MDCS table updates pushed to cameras"),
		pushErrors: reg.Counter("coralpie_topology_push_errors_total",
			"MDCS pushes that failed to send"),
		heartbeatLag: reg.Histogram("coralpie_topology_heartbeat_lag_seconds",
			"gap between successive heartbeats of a registered camera", nil),
	}
}

// DefaultServerConfig pairs a 2-second heartbeat with a 2x liveness
// multiplier.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		LivenessTimeout:  4 * time.Second,
		SnapToNodeMeters: 30,
	}
}

// camState is the server's view of one registered camera.
type camState struct {
	addr      string
	heading   float64
	position  geo.Point
	lastSeen  time.Time
	version   int64
	lastTable map[geo.Direction][]protocol.CameraRef
}

// Server is the camera topology server. It is driven by incoming
// heartbeat envelopes plus periodic CheckLivenessContext calls (from a
// goroutine in real deployments, from a simulator ticker in experiments).
type Server struct {
	cfg ServerConfig
	clk clock.Clock
	ep  transport.Endpoint
	m   serverMetrics

	mu    sync.Mutex
	graph *roadnet.Graph
	cams  map[string]*camState

	stop chan struct{}
	done chan struct{}
}

// NewServer wraps a road-network graph (which the server takes ownership
// of; install no cameras beforehand) and a transport endpoint to push
// updates through. The endpoint's handler is installed by this call.
func NewServer(graph *roadnet.Graph, ep transport.Endpoint, clk clock.Clock, cfg ServerConfig) (*Server, error) {
	if graph == nil || ep == nil || clk == nil {
		return nil, fmt.Errorf("topology: graph, endpoint and clock are required")
	}
	if cfg.LivenessTimeout <= 0 {
		return nil, fmt.Errorf("topology: liveness timeout %v must be positive", cfg.LivenessTimeout)
	}
	if cfg.SnapToNodeMeters < 0 {
		return nil, fmt.Errorf("topology: snap radius %v must be non-negative", cfg.SnapToNodeMeters)
	}
	s := &Server{
		cfg:   cfg,
		clk:   clk,
		ep:    ep,
		m:     newServerMetrics(cfg.Registry),
		graph: graph,
		cams:  make(map[string]*camState),
	}
	ep.SetHandler(s.handleEnvelope)
	return s, nil
}

func (s *Server) handleEnvelope(ctx context.Context, env protocol.Envelope) {
	msg, err := protocol.Open(env)
	if err != nil {
		return // drop undecodable messages
	}
	if hb, ok := msg.(protocol.Heartbeat); ok {
		s.HandleHeartbeatContext(ctx, hb)
	}
}

// HandleHeartbeatContext registers a new camera or renews an existing
// lease. Registration places the camera in the road graph (snapping to
// the nearest intersection or projecting onto the nearest lane),
// recomputes the MDCS of every affected camera, and pushes updates. The
// resulting MDCS pushes are bounded by ctx.
func (s *Server) HandleHeartbeatContext(ctx context.Context, hb protocol.Heartbeat) {
	if hb.CameraID == "" {
		return
	}
	now := s.clk.Now()
	s.m.heartbeats.Inc()

	s.mu.Lock()
	cam, known := s.cams[hb.CameraID]
	if known {
		s.m.heartbeatLag.ObserveDuration(now.Sub(cam.lastSeen))
		cam.lastSeen = now
		cam.addr = hb.Addr
		cam.heading = hb.HeadingDeg
		moved := s.cfg.MoveThresholdMeters > 0 &&
			cam.position.DistanceMeters(hb.Position) > s.cfg.MoveThresholdMeters
		if !moved {
			s.mu.Unlock()
			return
		}
		// Moving camera: re-place it and heal the affected tables.
		_ = s.graph.RemoveCamera(hb.CameraID)
		if err := s.placeLocked(hb); err != nil {
			// The new position is unplaceable; drop the camera entirely
			// so the rest of the network routes around it.
			delete(s.cams, hb.CameraID)
			s.m.liveCameras.Set(int64(len(s.cams)))
			pushes := s.recomputeLocked()
			s.mu.Unlock()
			s.push(ctx, pushes)
			return
		}
		cam.position = hb.Position
		pushes := s.recomputeLocked()
		s.mu.Unlock()
		s.push(ctx, pushes)
		return
	}
	// New camera: place it in the graph.
	if err := s.placeLocked(hb); err != nil {
		s.mu.Unlock()
		return // unplaceable (e.g. intersection already equipped)
	}
	s.cams[hb.CameraID] = &camState{
		addr:     hb.Addr,
		heading:  hb.HeadingDeg,
		position: hb.Position,
		lastSeen: now,
	}
	s.m.registrations.Inc()
	s.m.liveCameras.Set(int64(len(s.cams)))
	pushes := s.recomputeLocked()
	s.mu.Unlock()

	s.push(ctx, pushes)
}

// placeLocked inserts a camera into the road graph from its reported
// position. Caller holds s.mu.
func (s *Server) placeLocked(hb protocol.Heartbeat) error {
	nearest, err := s.graph.NearestNode(hb.Position)
	if err != nil {
		return err
	}
	node, err := s.graph.Node(nearest)
	if err != nil {
		return err
	}
	if node.Pos.DistanceMeters(hb.Position) <= s.cfg.SnapToNodeMeters && node.CameraID == "" {
		return s.graph.PlaceCameraAtNode(hb.CameraID, nearest)
	}
	from, to, frac, err := s.nearestEdgeLocked(hb.Position)
	if err != nil {
		return err
	}
	return s.graph.PlaceCameraOnEdge(hb.CameraID, from, to, frac)
}

// nearestEdgeLocked projects a position onto the closest lane and returns
// the lane plus the clamped fractional position. Caller holds s.mu.
func (s *Server) nearestEdgeLocked(pos geo.Point) (roadnet.NodeID, roadnet.NodeID, float64, error) {
	bestDist := -1.0
	var bestFrom, bestTo roadnet.NodeID
	bestFrac := 0.5
	for _, from := range s.graph.NodeIDs() {
		fromNode, err := s.graph.Node(from)
		if err != nil {
			continue
		}
		for _, to := range s.graph.OutNeighbors(from) {
			toNode, err := s.graph.Node(to)
			if err != nil {
				continue
			}
			frac, dist := projectOntoSegment(pos, fromNode.Pos, toNode.Pos)
			if bestDist < 0 || dist < bestDist {
				bestDist, bestFrom, bestTo, bestFrac = dist, from, to, frac
			}
		}
	}
	if bestDist < 0 {
		return 0, 0, 0, fmt.Errorf("topology: no lanes to place camera on")
	}
	// Clamp away from the endpoints so the placement is a valid edge
	// fraction.
	if bestFrac < 0.05 {
		bestFrac = 0.05
	}
	if bestFrac > 0.95 {
		bestFrac = 0.95
	}
	return bestFrom, bestTo, bestFrac, nil
}

// projectOntoSegment returns the fractional position of the projection of
// p onto segment ab and the distance from p to that projection, using a
// local planar approximation.
func projectOntoSegment(p, a, b geo.Point) (frac, distMeters float64) {
	// Planar coordinates in meters relative to a.
	ax, ay := 0.0, 0.0
	bx := a.DistanceMeters(geo.Point{Lat: a.Lat, Lon: b.Lon})
	if b.Lon < a.Lon {
		bx = -bx
	}
	by := a.DistanceMeters(geo.Point{Lat: b.Lat, Lon: a.Lon})
	if b.Lat < a.Lat {
		by = -by
	}
	px := a.DistanceMeters(geo.Point{Lat: a.Lat, Lon: p.Lon})
	if p.Lon < a.Lon {
		px = -px
	}
	py := a.DistanceMeters(geo.Point{Lat: p.Lat, Lon: a.Lon})
	if p.Lat < a.Lat {
		py = -py
	}
	dx, dy := bx-ax, by-ay
	lenSq := dx*dx + dy*dy
	if lenSq == 0 {
		return 0, math.Hypot(px-ax, py-ay)
	}
	t := ((px-ax)*dx + (py-ay)*dy) / lenSq
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	qx, qy := ax+t*dx, ay+t*dy
	return t, math.Hypot(px-qx, py-qy)
}

// CheckLivenessContext scans leases against the clock and removes
// cameras whose lease expired, recomputing and pushing MDCS updates to
// the affected survivors (pushes bounded by ctx). It returns the IDs of
// the cameras it removed.
func (s *Server) CheckLivenessContext(ctx context.Context) []string {
	now := s.clk.Now()

	s.mu.Lock()
	var dead []string
	for id, cam := range s.cams {
		if now.Sub(cam.lastSeen) > s.cfg.LivenessTimeout {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		delete(s.cams, id)
		_ = s.graph.RemoveCamera(id) // the camera is known to be placed
	}
	var pushes []pendingPush
	if len(dead) > 0 {
		s.m.evictions.Add(int64(len(dead)))
		s.m.liveCameras.Set(int64(len(s.cams)))
		pushes = s.recomputeLocked()
	}
	s.mu.Unlock()

	s.push(ctx, pushes)
	return dead
}

// pendingPush is an update ready to send once the lock is released.
type pendingPush struct {
	addr   string
	update protocol.TopologyUpdate
}

// recomputeLocked recomputes every camera's MDCS table, bumps versions
// for those that changed, and returns the updates to push. Cameras are
// visited in sorted ID order so the push sequence — and therefore the
// delivery interleaving on a discrete-event simulator — is a pure
// function of the camera set, not of map iteration. Caller holds s.mu.
func (s *Server) recomputeLocked() []pendingPush {
	ids := make([]string, 0, len(s.cams))
	for id := range s.cams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var pushes []pendingPush
	for _, id := range ids {
		cam := s.cams[id]
		raw, err := s.graph.MDCSAll(id)
		if err != nil {
			continue
		}
		table := make(map[geo.Direction][]protocol.CameraRef, len(raw))
		for dir, peers := range raw {
			refs := make([]protocol.CameraRef, 0, len(peers))
			for _, peer := range peers {
				ref := protocol.CameraRef{ID: peer}
				if pc, ok := s.cams[peer]; ok {
					ref.Addr = pc.addr
				}
				refs = append(refs, ref)
			}
			table[dir] = refs
		}
		if tablesEqual(cam.lastTable, table) {
			continue
		}
		cam.version++
		cam.lastTable = table
		pushes = append(pushes, pendingPush{
			addr: cam.addr,
			update: protocol.TopologyUpdate{
				CameraID: id,
				Version:  cam.version,
				MDCS:     table,
			},
		})
	}
	return pushes
}

func tablesEqual(a, b map[geo.Direction][]protocol.CameraRef) bool {
	if len(a) != len(b) {
		return false
	}
	for dir, av := range a {
		bv, ok := b[dir]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func (s *Server) push(ctx context.Context, pushes []pendingPush) {
	for _, p := range pushes {
		if p.addr == "" {
			continue
		}
		env, err := protocol.Seal(p.update)
		if err != nil {
			continue
		}
		// Unreachable cameras are handled by liveness; count the failure.
		// The transport applies its default send timeout when ctx has no
		// deadline, so a dead camera cannot stall the push fan-out.
		if err := s.ep.Send(ctx, p.addr, env); err != nil {
			s.m.pushErrors.Inc()
		} else {
			s.m.pushes.Inc()
		}
	}
}

// Cameras returns the IDs of the currently registered cameras in sorted
// order, for observability.
func (s *Server) Cameras() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.cams))
	for id := range s.cams {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// MDCSVersion returns the last pushed table version for a camera (0 if
// none).
func (s *Server) MDCSVersion(cameraID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cam, ok := s.cams[cameraID]; ok {
		return cam.version
	}
	return 0
}

// Start launches a background liveness-check loop for real deployments;
// the loop exits when ctx is cancelled (or on Shutdown/Close). Use
// CheckLivenessContext directly when driving the server from a simulator.
func (s *Server) Start(ctx context.Context, checkInterval time.Duration) error {
	if checkInterval <= 0 {
		return fmt.Errorf("topology: check interval %v must be positive", checkInterval)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return fmt.Errorf("topology: server already started")
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.livenessLoop(ctx, checkInterval, s.stop, s.done)
	return nil
}

func (s *Server) livenessLoop(ctx context.Context, interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.CheckLivenessContext(ctx)
		case <-ctx.Done():
			return
		case <-stop:
			return
		}
	}
}

// Shutdown stops the liveness loop (if started) and waits for it to
// exit, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return nil
	}
	close(stop)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("topology: shutdown: %w", ctx.Err())
	}
}

// Close stops the liveness loop (if started) and waits for it to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return nil
}
