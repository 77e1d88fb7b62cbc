package camnode

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/reid"
	"repro/internal/tracker"
	"repro/internal/trajstore"
	"repro/internal/transport"
	"repro/internal/vision"
)

// TestCamnodeRidesOutTrajstoreOutage kills the trajectory store server
// mid-deployment and re-serves it on the same address. The camera node
// must keep processing frames during the outage (events are dropped and
// counted as send errors rather than stalling the pipeline), and the
// store client must redial and resume inserting once the server is back.
func TestCamnodeRidesOutTrajstoreOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}

	store := trajstore.NewMemStore()
	trajSrv, err := trajstore.ServeWith(store, "127.0.0.1:0", trajstore.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := trajSrv.Addr()

	// Short per-call timeout so outage-time inserts fail fast instead of
	// holding each event for the default five seconds.
	trajClient, err := trajstore.DialContext(context.Background(), addr,
		trajstore.ClientConfig{CallTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = trajClient.Close() }()
	// A raw client is not a TrajStore; coral-node wraps it the same way.
	writer := trajstore.NewBatchWriter(trajClient, trajstore.BatchWriterConfig{})
	defer func() { _ = writer.Close() }()

	// The inter-camera side uses an in-process bus; only the store link
	// is real TCP, which is the link under test.
	bus := transport.NewBus()
	ep, err := bus.Endpoint("camA")
	if err != nil {
		t.Fatal(err)
	}
	node, err := New(Config{
		CameraID:           "camA",
		Position:           geo.Point{Lat: 33.7756, Lon: -84.3963},
		TopologyServerAddr: "topology", // never dialed: heartbeats not started
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

	stream := func(startSeq int64) {
		t.Helper()
		src := &tcpTestSource{camera: "camA", startSeq: startSeq}
		if err := node.RunLive(context.Background(), src); err != nil {
			t.Fatalf("RunLive(seq %d): %v", startSeq, err)
		}
	}

	// Healthy pass: the vehicle's departure event lands in the store.
	stream(0)
	if got := store.NumVertices(); got != 1 {
		t.Fatalf("vertices after healthy pass = %d, want 1", got)
	}
	if errs := node.Stats().SendErrors; errs != 0 {
		t.Fatalf("send errors before outage = %d, want 0", errs)
	}

	// Outage: the store server dies. The node must keep processing — the
	// pass completes, the event is dropped, and the error is counted.
	if err := trajSrv.Close(); err != nil {
		t.Fatal(err)
	}
	framesBefore := node.Stats().FramesProcessed
	stream(1000)
	st := node.Stats()
	if st.FramesProcessed <= framesBefore {
		t.Error("node stopped processing frames during the store outage")
	}
	if st.SendErrors == 0 {
		t.Error("store outage not reflected in the send-error counter")
	}
	if got := store.NumVertices(); got != 1 {
		t.Errorf("vertices after outage pass = %d, want 1 (event should be dropped)", got)
	}

	// Recovery: re-serve the same store on the same address. The client's
	// next insert redials and succeeds.
	trajSrv2, err := trajstore.ServeWith(store, addr, trajstore.ServerOptions{})
	if err != nil {
		t.Fatalf("re-serve on %s: %v", addr, err)
	}
	defer func() { _ = trajSrv2.Close() }()

	errsDuringOutage := st.SendErrors
	stream(2000)
	if got := store.NumVertices(); got != 2 {
		t.Errorf("vertices after recovery pass = %d, want 2", got)
	}
	if errs := node.Stats().SendErrors; errs != errsDuringOutage {
		t.Errorf("send errors grew after recovery: %d -> %d", errsDuringOutage, errs)
	}
}
