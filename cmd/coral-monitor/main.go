// Command coral-monitor runs Coral-Pie's fleet health plane: it
// receives heartbeats from every node (cameras, topology server,
// stores), tracks per-node liveness, federates the fleet's metrics, and
// evaluates alert rules. The whole-deployment view is served over HTTP:
//
//	/cluster          per-node liveness and transition history (JSON)
//	/cluster/metrics  federated Prometheus text with a node label
//	/cluster/alerts   firing/resolved alert state and history (JSON)
//
// Usage:
//
//	coral-monitor -listen 0.0.0.0:7100 -obs-listen 0.0.0.0:9100 \
//	  -liveness-timeout 15s \
//	  -alert 'drops=rate(coralpie_transport_lost_total)>0.5' \
//	  -alert 'rpc-errors=coralpie_rpc_errors_total>=10'
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/obs"
)

var (
	listen  = flag.String("listen", "127.0.0.1:7100", "heartbeat address to listen on")
	timeout = flag.Duration("liveness-timeout", 15*time.Second, "declare a node dead after this long without a heartbeat")
	sweep   = flag.Duration("sweep-interval", 2*time.Second, "how often to run the liveness/alert sweep (0 = never)")
	history = flag.Int("max-transitions", 1024, "liveness and alert transition history bound")
	rules   fleet.RuleFlag
)

func main() {
	flag.Var(&rules, "alert",
		"alert rule name=metric<op>value or name=rate(metric)<op>value (repeatable)")
	// -obs-listen also serves /cluster, /cluster/metrics and /cluster/alerts.
	daemon.Main("coral-monitor", "127.0.0.1:9100", 0, run)
}

func run(rt *daemon.Runtime) error {
	// The monitor is not a fleet member (it has no -node-id), so it
	// names itself in the build-info gauge.
	obs.RegisterBuildInfo(obs.Default(), "coral-monitor", "coral-monitor")
	monitor := fleet.NewMonitor(fleet.MonitorConfig{
		LivenessTimeout: *timeout,
		Rules:           rules.Rules,
		Registry:        obs.Default(),
		Logger:          obs.DefaultLogger(),
		MaxTransitions:  *history,
	})

	srv, err := fleet.ServeWith(monitor, *listen, fleet.ServerOptions{Logger: rt.Logger})
	if err != nil {
		return err
	}
	rt.OnDrain("heartbeat server", srv.Shutdown)
	rt.Logger.Info("fleet monitor listening", "addr", srv.Addr())

	checks := []obs.NamedCheck{{Name: "heartbeat-listener"}}
	if err := rt.Serve(obs.Default(), checks, monitor); err != nil {
		return err
	}
	rt.Every(*sweep, func() { monitor.Sweep() })

	rt.Wait()
	sum := monitor.Summary()
	rt.Logger.Info("shutting down",
		"nodes", fmt.Sprint(len(sum.Nodes)),
		"alive", fmt.Sprint(sum.Alive), "dead", fmt.Sprint(sum.Dead))
	return nil
}
