package camnode

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/vision"
)

// FrameSource produces camera frames for the live runner. Next returns
// io.EOF when the stream ends.
type FrameSource interface {
	Next() (*vision.Frame, error)
}

// liveJob is the unit flowing through the live pipeline.
type liveJob struct {
	frame *vision.Frame
	kept  []vision.Detection
	raw   int
	ft    frameTiming
}

// RunLive drains a frame source through a two-stage concurrent pipeline
// mirroring the paper's device split: stage one is detection +
// post-processing (the RPi 1 work), stage two is tracking, events,
// communication, and storage (the RPi 2 work). The detector must be safe
// for concurrent use with the node's message handlers.
//
// RunLive returns when the source is exhausted (after flushing live
// tracks), when ctx is cancelled (a graceful stop: in-flight frames
// drain, live tracks flush, and the return is nil), or on the first
// pipeline error.
func (n *Node) RunLive(ctx context.Context, src FrameSource) error {
	if src == nil {
		return errors.New("camnode: nil frame source")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(stage string, err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil {
			firstErr = fmt.Errorf("camnode: live stage %s: %w", stage, err)
		}
	}
	getErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}
	runner, err := pipeline.NewRunner(pipeline.RunnerConfig[*liveJob]{
		Buffer:  2,
		OnError: setErr,
	},
		pipeline.Stage[*liveJob]{Name: "detect", Proc: func(j *liveJob) error {
			if j.frame != nil {
				j.ft.capture = j.frame.Time
			}
			j.ft.detectStart = n.cfg.Clock.Now()
			kept, raw, err := n.detect(j.frame)
			if err != nil {
				return err
			}
			j.ft.detectEnd = n.cfg.Clock.Now()
			j.kept, j.raw = kept, raw
			return nil
		}},
		pipeline.Stage[*liveJob]{Name: "ingest", Proc: func(j *liveJob) error {
			return n.ingest(ctx, j.frame, j.kept, j.raw, j.ft)
		}},
	)
	if err != nil {
		return err
	}

	for ctx.Err() == nil {
		f, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			runner.Close()
			return fmt.Errorf("camnode: frame source: %w", err)
		}
		if !runner.Submit(&liveJob{frame: f}) {
			break
		}
		if getErr() != nil {
			break
		}
	}
	runner.Close()
	if err := getErr(); err != nil {
		return err
	}
	// Cancellation is a graceful stop, not an error: flush live tracks
	// so their events are not lost, then report a clean exit. The flush
	// outlives the cancel but keeps the caller's values.
	return n.FlushContext(context.WithoutCancel(ctx))
}
