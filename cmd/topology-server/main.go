// Command topology-server runs Coral-Pie's cloud camera topology server
// over TCP: it accepts camera heartbeats, places cameras on the road
// network, detects failures by heartbeat loss, and pushes MDCS updates to
// the affected cameras.
//
// Usage:
//
//	topology-server -listen 0.0.0.0:7000 -graph road.json -heartbeat 2s
//	topology-server -listen 0.0.0.0:7000 -campus
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/clock"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/topology"
	"repro/internal/transport"
)

var (
	listen    = flag.String("listen", "127.0.0.1:7000", "address to listen on")
	graphPath = flag.String("graph", "", "road network JSON (see roadnet.Spec)")
	campus    = flag.Bool("campus", false, "use the built-in 37-intersection campus network")
	heartbeat = flag.Duration("heartbeat", 2*time.Second, "expected camera heartbeat interval")
	snap      = flag.Float64("snap-meters", 30, "radius for snapping cameras to intersections")
)

func main() { daemon.Main("topology-server", "127.0.0.1:9090", daemon.Node, run) }

func run(rt *daemon.Runtime) error {
	var graph *roadnet.Graph
	var err error
	switch {
	case *campus:
		graph, _, err = roadnet.Campus()
	case *graphPath != "":
		f, ferr := os.Open(*graphPath)
		if ferr != nil {
			return fmt.Errorf("open graph: %w", ferr)
		}
		graph, err = roadnet.ReadJSON(f)
		_ = f.Close()
	default:
		return fmt.Errorf("one of -graph or -campus is required")
	}
	if err != nil {
		return fmt.Errorf("load graph: %w", err)
	}

	ep, err := transport.ListenTCPConfig(*listen, transport.TCPConfigFromFlags(rt.RPC))
	if err != nil {
		return err
	}
	rt.OnIntake("transport", ep.Shutdown)
	ep.Use(obs.Default())

	srv, err := topology.NewServer(graph, ep, clock.Real{}, topology.ServerConfig{
		LivenessTimeout:  2 * *heartbeat,
		SnapToNodeMeters: *snap,
		Registry:         obs.Default(),
	})
	if err != nil {
		return err
	}
	if err := srv.Start(rt.Context(), *heartbeat/2); err != nil {
		return err
	}
	rt.OnDrain("topology", srv.Shutdown)

	checks := []obs.NamedCheck{
		{Name: "graph", Check: func() error {
			if graph.NumNodes() == 0 {
				return fmt.Errorf("road graph is empty")
			}
			return nil
		}},
	}
	if err := rt.Serve(obs.Default(), checks, nil); err != nil {
		return err
	}

	rt.Logger.Info("topology server listening",
		"addr", ep.Addr(),
		"intersections", graph.NumNodes(),
		"heartbeat", heartbeat)

	rt.Wait()
	rt.Logger.Info("shutting down", "cameras", len(srv.Cameras()))
	return nil
}
