package camnode

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/imaging"
	"repro/internal/reid"
	"repro/internal/roadnet"
	"repro/internal/topology"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

// TestLiveTCPEndToEnd wires two camera nodes, a topology server, and a
// trajectory store server over REAL TCP sockets, streams a synthetic
// vehicle through both cameras, and verifies the cross-process
// re-identification chain — the deployment shape of cmd/coral-node.
func TestLiveTCPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}

	// Road network: two intersections 150 m apart.
	graph, nodes, err := roadnet.Corridor(2, 150, geo.Point{Lat: 33.7756, Lon: -84.3963})
	if err != nil {
		t.Fatal(err)
	}

	// Trajectory store server.
	store := trajstore.NewMemStore()
	trajSrv, err := trajstore.ServeWith(store, "127.0.0.1:0", trajstore.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = trajSrv.Close() }()

	// Topology server.
	topoEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topoEP.Close() }()
	topoSrv, err := topology.NewServer(graph, topoEP, clock.Real{}, topology.ServerConfig{
		LivenessTimeout:  2 * time.Second,
		SnapToNodeMeters: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := topoSrv.Start(context.Background(), 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topoSrv.Close() }()

	// Two camera nodes.
	mkNode := func(id string, nodeID roadnet.NodeID) (*Node, *trajstore.Client) {
		t.Helper()
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		trajClient, err := trajstore.DialContext(context.Background(), trajSrv.Addr(), trajstore.ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = trajClient.Close() })
		// A raw client is not a TrajStore; coral-node wraps it the same way.
		writer := trajstore.NewBatchWriter(trajClient, trajstore.BatchWriterConfig{})
		t.Cleanup(func() { _ = writer.Close() })
		pos, err := graph.Node(nodeID)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			CameraID:           id,
			Position:           pos.Pos,
			TopologyServerAddr: topoEP.Addr(),
			Detector:           vision.PerfectDetector{},
			PostProcess:        vision.PostProcessConfig{MinConfidence: 0.2},
			Tracker:            tracker.DefaultConfig(),
			Matcher:            reid.DefaultMatcherConfig(),
			Pool:               reid.DefaultPoolConfig(),
			TrajStore:          writer,
			Clock:              clock.Real{},
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Topology().StartHeartbeats(context.Background(), 150*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Topology().Close() })
		return n, trajClient
	}
	nodeA, _ := mkNode("camA", nodes[0])
	nodeB, _ := mkNode("camB", nodes[1])

	// Wait for both cameras to receive MDCS tables.
	deadline := time.Now().Add(5 * time.Second)
	for (nodeA.Topology().Version() == 0 || nodeB.Topology().Version() == 0) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if nodeA.Topology().Version() == 0 {
		t.Fatal("camA never received a topology update")
	}
	refs := nodeA.Topology().Lookup(geo.East)
	if len(refs) != 1 || refs[0].ID != "camB" {
		t.Fatalf("camA east MDCS = %v", refs)
	}

	// Stream the vehicle through A, then through B, via RunLive.
	streamVehicle := func(n *Node, startSeq int64) {
		t.Helper()
		src := &tcpTestSource{camera: n.CameraID(), startSeq: startSeq}
		if err := n.RunLive(context.Background(), src); err != nil {
			t.Fatalf("%s RunLive: %v", n.CameraID(), err)
		}
	}
	streamVehicle(nodeA, 0)

	// The informing message must land in B's pool before the vehicle
	// "arrives" there.
	deadline = time.Now().Add(5 * time.Second)
	for nodeB.Pool().Size() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if nodeB.Pool().Size() != 1 {
		t.Fatalf("camB pool size = %d", nodeB.Pool().Size())
	}

	streamVehicle(nodeB, 100)

	// Verify the cross-TCP re-identification chain in the remote store.
	deadline = time.Now().Add(5 * time.Second)
	for store.NumEdges() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if store.NumVertices() != 2 || store.NumEdges() != 1 {
		t.Fatalf("store: %d vertices, %d edges", store.NumVertices(), store.NumEdges())
	}
	if nodeB.Stats().ReidMatches != 1 {
		t.Errorf("camB reid matches = %d", nodeB.Stats().ReidMatches)
	}
	// And the confirming stage completed back at A.
	deadline = time.Now().Add(5 * time.Second)
	for nodeA.Stats().ConfirmsReceived == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if nodeA.Stats().ConfirmsReceived != 1 {
		t.Errorf("camA confirms received = %d", nodeA.Stats().ConfirmsReceived)
	}
}

// tcpTestSource renders a short synthetic pass of one red vehicle.
type tcpTestSource struct {
	camera   string
	startSeq int64
	i        int
}

func (s *tcpTestSource) Next() (*vision.Frame, error) {
	const moving = 15
	const empty = 6
	if s.i >= moving+empty {
		return nil, io.EOF
	}
	img := imaging.MustNewFrame(200, 100)
	img.Fill(imaging.Color{R: 40, G: 40, B: 40})
	f := &vision.Frame{
		CameraID: s.camera,
		Seq:      s.startSeq + int64(s.i),
		Time:     time.Now(),
		Image:    img,
	}
	if s.i < moving {
		box := imaging.Rect{X: 10 + s.i*10, Y: 40, W: 30, H: 20}
		img.FillRect(box, imaging.Red)
		f.Truth = []vision.TruthObject{{
			ID:    "veh-live",
			Label: vision.LabelCar,
			Box:   box,
		}}
	}
	s.i++
	return f, nil
}
