// Command trajstore-server runs Coral-Pie's trajectory graph store (the
// JanusGraph role in the paper) over TCP on an edge node.
//
// Usage:
//
//	trajstore-server -listen 0.0.0.0:7001 -dir /var/lib/coralpie/traj
package main

import (
	"flag"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/trajstore"
)

var (
	listen     = flag.String("listen", "127.0.0.1:7001", "address to listen on")
	dir        = flag.String("dir", "", "persistence directory (empty = in-memory)")
	fsync      = flag.Bool("fsync", false, "fsync every WAL group commit (durable across power loss)")
	queryCache = flag.Int("query-cache", trajstore.DefaultQueryCacheSize, "server-side query result cache size in entries (negative = disable)")
)

func main() {
	daemon.Main("trajstore-server", "127.0.0.1:9091", daemon.Trace|daemon.Node, run)
}

func run(rt *daemon.Runtime) error {
	var store *trajstore.Store
	var err error
	if *dir == "" {
		store = trajstore.NewMemStore()
	} else if store, err = trajstore.OpenWithConfig(*dir, trajstore.StoreConfig{Fsync: *fsync}); err != nil {
		return err
	}
	// Closing flushes the WAL, after the server below has drained.
	rt.OnClose("store", store.Close)
	store.Instrument(obs.Default(), nil)
	// WAL group commits append a wal_commit span to any trace context a
	// camera attached to its write, completing the cross-node trace.
	tracer := rt.NewTracer(4096, "traj-")
	store.UseTracer(tracer)

	srv, err := trajstore.ServeWith(store, *listen, trajstore.ServerOptions{
		WriteTimeout: rt.RPC.CallTimeout,
		Logger:       rt.Logger,
		Registry:     obs.Default(),
		QueryCache:   *queryCache,
	})
	if err != nil {
		return err
	}
	// Draining lets a camera mid-insert get its reply.
	rt.OnDrain("server", srv.Shutdown)
	rt.Logger.Info("trajectory store listening",
		"addr", srv.Addr(), "dir", *dir, "vertices", store.NumVertices())

	if err := rt.Serve(obs.Default(), []obs.NamedCheck{obs.DirCheck("store", *dir)}, nil); err != nil {
		return err
	}

	rt.Wait()
	rt.Logger.Info("shutting down",
		"vertices", store.NumVertices(), "edges", store.NumEdges())
	return nil
}
