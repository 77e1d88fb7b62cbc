// Command framestore-server runs Coral-Pie's raw-frame storage server on
// an edge node: cameras ship raw frames plus tracking annotations as
// fire-and-forget messages, which are persisted to per-camera logs.
//
// Usage:
//
//	framestore-server -listen 0.0.0.0:7002 -dir /var/lib/coralpie/frames
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/framestore"
	"repro/internal/obs"
	"repro/internal/transport"
)

var (
	listen = flag.String("listen", "127.0.0.1:7002", "address to listen on")
	dir    = flag.String("dir", "", "persistence directory (empty = in-memory)")

	segmentBytes = flag.Int64("segment-bytes", framestore.DefaultSegmentBytes, "per-camera segment roll threshold in bytes")
	retainFrames = flag.Duration("retain-frames", 0, "drop sealed segments whose newest frame is older than this (0 = keep forever)")
	retainBytes  = flag.Int64("retain-bytes", 0, "bound total on-disk bytes, deleting oldest sealed segments when exceeded (0 = unbounded)")
	gcInterval   = flag.Duration("gc-interval", time.Minute, "how often retention GC runs when -retain-frames or -retain-bytes is set (0 = only on segment rolls)")
)

func main() { daemon.Main("framestore-server", "127.0.0.1:9092", daemon.Node, run) }

func run(rt *daemon.Runtime) error {
	store, err := framestore.OpenStoreConfig(*dir, framestore.Config{
		SegmentBytes: *segmentBytes,
		RetainAge:    *retainFrames,
		RetainBytes:  *retainBytes,
	})
	if err != nil {
		return err
	}
	// The server's drain closes the store; this covers a drain that timed
	// out and an error return before the server exists.
	rt.OnClose("store", store.Close)
	store.Instrument(obs.Default(), nil)
	// Every retention pass appends a "gc" span with what it reclaimed.
	tracer := rt.NewTracer(1024, "fs-")
	store.UseTracer(tracer)

	if *dir != "" && (*retainFrames > 0 || *retainBytes > 0) {
		// The after-roll GC hook only fires while frames flow; the timer
		// ages out segments on idle cameras too.
		rt.Every(*gcInterval, func() {
			if st, err := store.GC(); err != nil {
				rt.Logger.Warn("retention gc", "err", err.Error())
			} else if st.Segments > 0 {
				rt.Logger.Info("retention gc",
					"segments", fmt.Sprint(st.Segments),
					"frames", fmt.Sprint(st.Frames),
					"reclaimedBytes", fmt.Sprint(st.Bytes),
					"diskBytes", fmt.Sprint(store.DiskBytes()))
			}
		})
	}

	ep, err := transport.ListenTCPConfig(*listen, transport.TCPConfigFromFlags(rt.RPC))
	if err != nil {
		return err
	}
	rt.OnIntake("transport", ep.Shutdown)
	ep.Use(obs.Default())

	srv, err := framestore.NewServer(store, ep)
	if err != nil {
		return err
	}
	// Drains in-flight frame handlers so the last frames land in the
	// per-camera logs, then flushes and closes the store, recording the
	// drain in coralpie_framestore_shutdown_drain_seconds.
	rt.OnDrain("framestore", srv.Shutdown)
	srv.Use(obs.Default(), nil)
	rt.Logger.Info("frame store listening", "addr", ep.Addr(), "dir", *dir)

	if err := rt.Serve(obs.Default(), []obs.NamedCheck{obs.DirCheck("store", *dir)}, nil); err != nil {
		return err
	}

	rt.Wait()
	received, errs := srv.Stats()
	rt.Logger.Info("shutting down",
		"framesStored", fmt.Sprint(received), "handlerErrors", fmt.Sprint(errs))
	return nil
}
