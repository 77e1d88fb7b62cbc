// Cityscale: a large deployment on the 37-intersection campus network —
// cameras at every intersection, vehicles on random routes, demonstrating
// the scalability properties of Section 5.5: bounded MDCS sizes and
// geo-local communication regardless of deployment size.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	coralpie "repro"
	"repro/internal/trajstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	graph, sites, err := coralpie.Campus()
	if err != nil {
		return err
	}
	sys, err := coralpie.NewSystem(coralpie.Config{
		Graph: graph,
		Seed:  7,
		// Large sweep: drop the frame rate to keep the run quick.
		CameraFPS: 10,
	})
	if err != nil {
		return err
	}

	var camIDs []string
	for i, site := range sites {
		id := fmt.Sprintf("cam%02d", i)
		if err := sys.AddCameraAt(id, site, 0); err != nil {
			return err
		}
		camIDs = append(camIDs, id)
	}

	rng := rand.New(rand.NewSource(7))
	const vehicles = 25
	for v := 0; v < vehicles; v++ {
		start := sites[rng.Intn(len(sites))]
		route, err := coralpie.RandomRoute(graph, rng, start, 6+rng.Intn(6))
		if err != nil {
			return err
		}
		err = sys.World().AddVehicle(coralpie.VehicleSpec{
			ID:       fmt.Sprintf("veh-%02d", v),
			Color:    coralpie.PaletteColor(v),
			SpeedMPS: 13,
			Route:    route,
			Depart:   time.Duration(v) * 2 * time.Second,
		})
		if err != nil {
			return err
		}
	}

	horizon := sys.World().LastVehicleDone() + 15*time.Second
	fmt.Printf("37 cameras, %d vehicles on random routes, %v of virtual time\n",
		vehicles, horizon.Round(time.Second))
	sys.Start(context.Background())
	sys.Run(horizon)
	sys.Stop()
	if err := sys.FlushAll(); err != nil {
		return err
	}

	// Scalability evidence: with a camera at every intersection, every
	// MDCS has size 1 and communication stays geo-local.
	avg, err := graph.AverageMDCSSize()
	if err != nil {
		return err
	}
	fmt.Printf("average MDCS size across 37 cameras: %.2f (dense deployment -> 1)\n", avg)

	var totalEvents, totalInforms, totalMatches int64
	maxPool := 0
	for _, id := range camIDs {
		node, err := sys.Node(id)
		if err != nil {
			return err
		}
		st := node.Stats()
		totalEvents += st.EventsGenerated
		totalInforms += st.InformsSent
		totalMatches += st.ReidMatches
		if s := node.Pool().Size(); s > maxPool {
			maxPool = s
		}
	}
	fmt.Printf("events generated: %d, informs sent: %d (%.2f per event — bounded)\n",
		totalEvents, totalInforms, float64(totalInforms)/float64(max(totalEvents, 1)))
	fmt.Printf("re-identifications: %d, largest candidate pool: %d entries\n",
		totalMatches, maxPool)
	fmt.Printf("trajectory graph: %d events, %d links\n",
		sys.TrajStore().NumVertices(), sys.TrajStore().NumEdges())

	// Query the finished graph the way an operator would: serve it over
	// loopback TCP and ask the server-side query engine — one round trip
	// per question, answered against a consistent snapshot.
	srv, err := trajstore.ServeWith(sys.TrajStore(), "127.0.0.1:0", trajstore.ServerOptions{})
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client, err := trajstore.DialContext(ctx, srv.Addr(), trajstore.ClientConfig{})
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	sightings, err := client.SightingsContext(ctx, "veh-00", 0)
	if err != nil {
		return err
	}
	fmt.Printf("veh-00 ground truth: %d sightings\n", len(sightings))
	if len(sightings) > 0 {
		tracks, err := client.ReconstructVertexContext(ctx, sightings[0].VertexID,
			trajstore.DefaultTraceLimits())
		if err != nil {
			return err
		}
		fmt.Printf("server-side reconstruct from its first sighting: %d candidate track(s)",
			len(tracks))
		if len(tracks) > 0 {
			fmt.Printf(", best spans %d hops over %v",
				len(tracks[0].Hops), tracks[0].Duration.Round(time.Second))
		}
		fmt.Println()
	}
	return nil
}
