package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/rpc"
	"repro/internal/vision"
)

// ingestMode tells the two camera workloads apart.
type ingestMode struct {
	name        string
	openLoop    bool // fixed-rate replay; otherwise hand in as fast as accepted
	storeFrames bool
}

var (
	handoffStream = ingestMode{name: "handoff_stream", openLoop: true}
	frameFlood    = ingestMode{name: "frame_flood", storeFrames: true}
)

// ingestRun is what one pass of a camera workload measured.
type ingestRun struct {
	frames      int64
	firstHandIn time.Time
	windowEnd   time.Time // last frame processed
	drained     time.Time // flush done and, with frame storage, every frame at both replicas
	renderNs    int64
	processUs   []float64 // hand-in → ProcessFrameContext returned, per frame
	lateMs      []float64 // open loop: tick start minus due
	tickWall    time.Duration
	lagMax      int64 // frames sent minus frames at the slowest replica, sampled
	proc        procDelta
}

// runIngest walks virtual time in camera ticks on one driver goroutine
// and hands each camera its pre-rendered frame in turn. Lock-step keeps an inform
// causally ahead of the vehicle's arrival downstream, as wall-clock
// cameras would. Each frame's Time is its hand-in instant, so the node's
// own capture→commit histogram and the benchmark's measure the same span.
func runIngest(ctx context.Context, d *deployment, sc scale, mode ingestMode, window time.Duration, rec *recorder) (*ingestRun, error) {
	tick := time.Second / cameraFPS
	run := &ingestRun{tickWall: time.Duration(float64(tick) / sc.compression)}
	// render draws every camera's frame for one tick. It runs in the idle
	// gap after the previous tick's frames are processed, so that a slow
	// render (its 147 KB images are what drives this process's GC) does
	// not make the next hand-in late.
	render := func(i int) []*vision.Frame {
		frames := make([]*vision.Frame, len(d.nodes))
		for c := range d.nodes {
			start := time.Now()
			frames[c] = d.world.cameras[c].Render(time.Duration(i) * tick)
			end := time.Now()
			run.renderNs += int64(end.Sub(start))
			rec.leaf("loadgen.render", spanRef{}, start, end)
		}
		return frames
	}
	meter := startProcMeter(rec != nil)
	next := render(0)
	start := time.Now()
	loop := openLoop{start: start, interval: run.tickWall}
	for i := 0; ; i++ {
		if mode.openLoop {
			due := loop.due(i)
			if due.Sub(start) >= window {
				break
			}
			if err := rpc.Sleep(ctx, time.Until(due)); err != nil {
				return nil, err
			}
			loop.begin(i, time.Now())
		} else if time.Since(start) >= window {
			break
		}
		for c, n := range d.nodes {
			f := next[c]
			handIn := time.Now()
			f.Time = handIn
			p := n.sw.probe
			p.cur.handIn = handIn
			fctx := ctx
			var root, proc spanRef
			if rec != nil {
				root = spanRef{id: rec.newID(), trace: fmt.Sprintf("%s/%d", n.id, f.Seq)}
				proc = spanRef{id: rec.newID(), trace: root.trace}
				p.cur.parent = proc
				fctx = withSpan(ctx, proc)
			}
			err := n.node.ProcessFrameContext(fctx, f)
			done := time.Now()
			p.cur.handIn = time.Time{}
			if err != nil {
				return nil, fmt.Errorf("%s frame %d: %w", n.id, f.Seq, err)
			}
			if rec != nil {
				rec.record("camnode.process_frame", proc.id, root.id, root.trace, handIn, done)
				rec.record("frame", root.id, 0, root.trace, handIn, time.Now())
				p.cur.parent = spanRef{}
			}
			run.processUs = append(run.processUs, us(done.Sub(handIn)))
			if run.frames == 0 {
				run.firstHandIn = handIn
			}
			run.frames++
			run.windowEnd = done
		}
		if mode.storeFrames && rec != nil && i%8 == 0 {
			run.lagMax = max(run.lagMax, d.frames.sentCount()-d.minReceived())
		}
		next = render(i + 1)
	}
	run.lateMs = loop.late

	// End of stream: retire live tracks and drain queued edges, so every
	// re-identification the frames caused has its final outcome.
	for _, n := range d.nodes {
		if err := n.node.FlushContext(ctx); err != nil {
			return nil, fmt.Errorf("%s flush: %w", n.id, err)
		}
	}
	if mode.storeFrames {
		if err := d.awaitFrames(ctx); err != nil {
			return nil, err
		}
	}
	run.drained = time.Now()
	run.proc = meter.stop()
	return run, nil
}

func (l *frameLog) sentCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent
}

// minReceived is the frame count at the replica that has seen fewest,
// counting a replica's handler errors as seen (they will not arrive
// again).
func (d *deployment) minReceived() int64 {
	least := int64(-1)
	for _, r := range d.replicas {
		received, errs := r.srv.Stats()
		if n := received + errs; least < 0 || n < least {
			least = n
		}
	}
	return least
}

// awaitFrames blocks until both replicas have seen every frame sent:
// frame sends are one-way, so a frame is only stored once the server
// side has decoded and appended it.
func (d *deployment) awaitFrames(ctx context.Context) error {
	sent := d.frames.sentCount()
	deadline := time.Now().Add(60 * time.Second)
	for d.minReceived() < sent {
		if time.Now().After(deadline) {
			return errors.New("frame stores did not receive every frame within 60s")
		}
		if err := rpc.Sleep(ctx, 200*time.Microsecond); err != nil {
			return err
		}
	}
	return nil
}
