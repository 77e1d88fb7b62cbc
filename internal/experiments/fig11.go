package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/protocol"
	"repro/internal/roadnet"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Fig11Point is one camera failure and the time the system took to heal.
type Fig11Point struct {
	Victim string
	KillAt time.Duration
	// Recovery is how long until every affected camera applied a
	// victim-free MDCS table.
	Recovery time.Duration
	// Affected is how many cameras referenced the victim.
	Affected int
}

// Fig11Result reproduces Figure 11: recovery time for 10 successive
// camera failures out of 37 simulated campus cameras, for one heartbeat
// interval setting.
type Fig11Result struct {
	HeartbeatInterval time.Duration
	Points            []Fig11Point
	MaxRecovery       time.Duration
	MeanRecovery      time.Duration
	// MaxOverHeartbeat is MaxRecovery / HeartbeatInterval; the paper
	// observes at most ~2.
	MaxOverHeartbeat float64
}

// Figure11 simulates the 37-camera campus deployment, kills the given
// number of randomly chosen cameras 20 s apart, and measures healing time
// under the given heartbeat interval.
func Figure11(heartbeat time.Duration, kills int, seed int64) (Fig11Result, error) {
	if heartbeat <= 0 {
		return Fig11Result{}, fmt.Errorf("experiments: heartbeat %v must be positive", heartbeat)
	}
	graph, sites, err := roadnet.Campus()
	if err != nil {
		return Fig11Result{}, err
	}
	if kills < 1 || kills > len(sites)-2 {
		return Fig11Result{}, fmt.Errorf("experiments: kills %d out of range", kills)
	}

	ctx := context.Background()
	dsim := des.New(time.Date(2020, 12, 7, 0, 0, 0, 0, time.UTC))
	bus := transport.NewSimBus(dsim, 2*time.Millisecond)
	rng := rand.New(rand.NewSource(seed))

	serverEP, err := bus.Endpoint("topology-server")
	if err != nil {
		return Fig11Result{}, err
	}
	server, err := topology.NewServer(graph, serverEP, clock.Func(dsim.Time), topology.ServerConfig{
		// A camera is declared dead after missing most of two heartbeat
		// windows; combined with the check cadence below, healing lands
		// within ~2x the heartbeat interval, matching the paper.
		LivenessTimeout:  heartbeat + heartbeat/2,
		SnapToNodeMeters: 30,
	})
	if err != nil {
		return Fig11Result{}, err
	}
	dsim.Every(heartbeat/4, func() { server.CheckLivenessContext(ctx) })

	type cam struct {
		id     string
		client *topology.Client
		ticker *des.Ticker
	}
	cams := make(map[string]*cam, len(sites))
	var ids []string
	for i, site := range sites {
		node, err := graph.Node(site)
		if err != nil {
			return Fig11Result{}, err
		}
		id := fmt.Sprintf("cam%02d", i)
		ep, err := bus.Endpoint(id)
		if err != nil {
			return Fig11Result{}, err
		}
		client, err := topology.NewClient(topology.ClientConfig{
			CameraID:   id,
			ServerAddr: "topology-server",
			Position:   node.Pos,
		}, ep, clock.Func(dsim.Time))
		if err != nil {
			return Fig11Result{}, err
		}
		ep.SetHandler(func(_ context.Context, env protocol.Envelope) {
			msg, err := protocol.Open(env)
			if err != nil {
				return
			}
			if u, ok := msg.(protocol.TopologyUpdate); ok {
				client.ApplyUpdate(u)
			}
		})
		c := &cam{id: id, client: client}
		// Stagger heartbeat phases like independently booted devices.
		phase := time.Duration(rng.Int63n(int64(heartbeat)))
		dsim.Schedule(phase, func() {
			_ = client.SendHeartbeatContext(ctx)
			c.ticker = dsim.Every(heartbeat, func() { _ = client.SendHeartbeatContext(ctx) })
		})
		cams[id] = c
		ids = append(ids, id)
	}

	// Let the deployment settle.
	dsim.RunFor(heartbeat*4 + 5*time.Second)

	res := Fig11Result{HeartbeatInterval: heartbeat}
	victims := rng.Perm(len(ids))[:kills]
	for _, vi := range victims {
		victim := cams[ids[vi]]

		// Affected cameras reference the victim in their current tables.
		var affected []*cam
		for _, c := range cams {
			if c == victim || c.ticker == nil {
				continue
			}
			if tableReferences(c.client, victim.id) {
				affected = append(affected, c)
			}
		}

		killAt := dsim.Now()
		if victim.ticker != nil {
			victim.ticker.Stop()
		}
		bus.Partition(victim.id)
		delete(cams, victim.id)

		// Poll for healing at 50 ms granularity.
		recovered := time.Duration(-1)
		var poll func()
		poll = func() {
			healed := true
			for _, c := range affected {
				if tableReferences(c.client, victim.id) {
					healed = false
					break
				}
			}
			if healed {
				recovered = dsim.Now() - killAt
				return
			}
			dsim.Schedule(50*time.Millisecond, poll)
		}
		dsim.Schedule(50*time.Millisecond, poll)
		dsim.RunFor(20 * time.Second)

		if recovered < 0 {
			return Fig11Result{}, fmt.Errorf("experiments: victim %s never healed", victim.id)
		}
		res.Points = append(res.Points, Fig11Point{
			Victim:   victim.id,
			KillAt:   killAt,
			Recovery: recovered,
			Affected: len(affected),
		})
	}

	var sum time.Duration
	for _, p := range res.Points {
		sum += p.Recovery
		if p.Recovery > res.MaxRecovery {
			res.MaxRecovery = p.Recovery
		}
	}
	res.MeanRecovery = sum / time.Duration(len(res.Points))
	res.MaxOverHeartbeat = float64(res.MaxRecovery) / float64(heartbeat)
	return res, nil
}

// tableReferences reports whether a client's current MDCS table mentions
// a camera.
func tableReferences(c *topology.Client, cameraID string) bool {
	for _, refs := range c.Table() {
		for _, r := range refs {
			if r.ID == cameraID {
				return true
			}
		}
	}
	return false
}
