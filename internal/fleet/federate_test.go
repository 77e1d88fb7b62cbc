package fleet

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// ingestNode snapshots reg into a heartbeat from node, stamped at.
func ingestNode(t *testing.T, m *Monitor, node string, reg *obs.Registry, at time.Time) {
	t.Helper()
	snap := reg.Snapshot()
	if err := m.Ingest(&Heartbeat{NodeID: node, SentAt: at, Metrics: &snap}); err != nil {
		t.Fatal(err)
	}
}

// series finds one metric in a federated snapshot by family name and
// exact label pairs.
func series(snap obs.Snapshot, family string, labels ...string) (obs.MetricSnapshot, bool) {
	for _, fam := range snap.Families {
		if fam.Name != family {
			continue
		}
	children:
		for _, m := range fam.Metrics {
			if len(m.Labels)*2 != len(labels) {
				continue
			}
			for i, l := range m.Labels {
				if l.Name != labels[2*i] || l.Value != labels[2*i+1] {
					continue children
				}
			}
			return m, true
		}
	}
	return obs.MetricSnapshot{}, false
}

func TestFederateCountersSumAcrossNodes(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{Registry: obs.NewRegistry()})

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	regA.Counter("coralpie_frames_total", "frames").Add(7)
	regB.Counter("coralpie_frames_total", "frames").Add(5)
	// A labeled child on one node only still lands in the rollup.
	regA.Counter("coralpie_sends_total", "sends", "peer", "cam2").Add(3)

	ingestNode(t, m, "nodeA", regA, time.Unix(10, 0))
	ingestNode(t, m, "nodeB", regB, time.Unix(10, 0))
	snap := m.FederateSnapshot()

	if ms, ok := series(snap, "coralpie_frames_total", "node", "nodeA"); !ok || ms.Value != 7 {
		t.Fatalf("nodeA series = %+v ok=%v", ms, ok)
	}
	if ms, ok := series(snap, "coralpie_frames_total", "node", "nodeB"); !ok || ms.Value != 5 {
		t.Fatalf("nodeB series = %+v ok=%v", ms, ok)
	}
	if ms, ok := series(snap, "coralpie_frames_total", "node", FleetNode); !ok || ms.Value != 12 {
		t.Fatalf("fleet rollup = %+v ok=%v, want 12", ms, ok)
	}
	if ms, ok := series(snap, "coralpie_sends_total", "node", FleetNode, "peer", "cam2"); !ok || ms.Value != 3 {
		t.Fatalf("labeled rollup = %+v ok=%v, want 3", ms, ok)
	}
}

func TestFederateGaugeTakesLatest(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{Registry: obs.NewRegistry()})

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	regA.Gauge("coralpie_queue_depth", "").Set(4)
	regB.Gauge("coralpie_queue_depth", "").Set(9)

	// nodeB's heartbeat is older, so nodeA's gauge value wins the rollup.
	ingestNode(t, m, "nodeA", regA, time.Unix(20, 0))
	ingestNode(t, m, "nodeB", regB, time.Unix(10, 0))
	snap := m.FederateSnapshot()

	if ms, ok := series(snap, "coralpie_queue_depth", "node", FleetNode); !ok || ms.Value != 4 {
		t.Fatalf("gauge rollup = %+v ok=%v, want latest (4)", ms, ok)
	}
}

func TestFederateHistogramsMergeBuckets(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{Registry: obs.NewRegistry()})

	bounds := []float64{0.1, 1}
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	hA := regA.Histogram("coralpie_latency_seconds", "", bounds)
	hA.Observe(0.05)
	hA.Observe(0.5)
	hB := regB.Histogram("coralpie_latency_seconds", "", bounds)
	hB.Observe(0.05)
	hB.Observe(5)

	ingestNode(t, m, "nodeA", regA, time.Unix(10, 0))
	ingestNode(t, m, "nodeB", regB, time.Unix(10, 0))
	snap := m.FederateSnapshot()

	ms, ok := series(snap, "coralpie_latency_seconds", "node", FleetNode)
	if !ok {
		t.Fatal("no histogram rollup")
	}
	if ms.Count != 4 {
		t.Fatalf("rollup count = %d, want 4", ms.Count)
	}
	if got, want := ms.Sum, 0.05+0.5+0.05+5; got != want {
		t.Fatalf("rollup sum = %g, want %g", got, want)
	}
	// Cumulative buckets: le=0.1 -> 2, le=1 -> 3, le=+Inf -> 4.
	wantCounts := []uint64{2, 3, 4}
	if len(ms.Buckets) != len(wantCounts) {
		t.Fatalf("rollup buckets = %+v", ms.Buckets)
	}
	for i, want := range wantCounts {
		if ms.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, ms.Buckets[i].Count, want, ms.Buckets)
		}
	}
}

func TestFederateSkipsMismatchedBucketBounds(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{Registry: obs.NewRegistry()})

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	regA.Histogram("coralpie_latency_seconds", "", []float64{0.1, 1}).Observe(0.5)
	regB.Histogram("coralpie_latency_seconds", "", []float64{0.25, 2}).Observe(0.5)

	ingestNode(t, m, "nodeA", regA, time.Unix(10, 0))
	ingestNode(t, m, "nodeB", regB, time.Unix(10, 0))
	snap := m.FederateSnapshot()

	// Per-node series survive; the unmergeable rollup is omitted.
	if _, ok := series(snap, "coralpie_latency_seconds", "node", "nodeA"); !ok {
		t.Fatal("nodeA series lost")
	}
	if _, ok := series(snap, "coralpie_latency_seconds", "node", "nodeB"); !ok {
		t.Fatal("nodeB series lost")
	}
	if ms, ok := series(snap, "coralpie_latency_seconds", "node", FleetNode); ok {
		t.Fatalf("rollup produced despite disagreeing bounds: %+v", ms)
	}
}

func TestFederateKeepsExistingNodeLabel(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{Registry: obs.NewRegistry()})

	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "edge-7", "coral-node")
	ingestNode(t, m, "nodeA", reg, time.Unix(10, 0))
	snap := m.FederateSnapshot()

	// The series' own node label survives — federation must not rewrite
	// it to the ingesting node's ID ("nodeA").
	found, rewritten := false, false
	for _, fam := range snap.Families {
		if fam.Name != "coralpie_build_info" {
			continue
		}
		for _, ms := range fam.Metrics {
			for _, l := range ms.Labels {
				if l.Name != "node" {
					continue
				}
				switch l.Value {
				case "edge-7":
					found = true
				case FleetNode: // the rollup series is fine
				default:
					rewritten = true
				}
			}
		}
	}
	if !found {
		t.Fatal("build_info series with its own node label missing from federation")
	}
	if rewritten {
		t.Fatal("build_info node label rewritten to the ingesting node's ID")
	}
}

func TestFederatedSnapshotRendersWithNodeLabels(t *testing.T) {
	m := mustMonitor(t, MonitorConfig{Registry: obs.NewRegistry()})

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	regA.Counter("coralpie_frames_total", "frames").Add(1)
	regB.Counter("coralpie_frames_total", "frames").Add(2)
	ingestNode(t, m, "a", regA, time.Unix(10, 0))
	ingestNode(t, m, "b", regB, time.Unix(10, 0))

	var buf strings.Builder
	if err := obs.WriteSnapshotPrometheus(&buf, m.FederateSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	mustContain(t, out, `coralpie_frames_total{node="a"} 1`)
	mustContain(t, out, `coralpie_frames_total{node="b"} 2`)
	mustContain(t, out, `coralpie_frames_total{node="fleet"} 3`)
}
