// Package recordlog reads a store's append-only record log at open: the
// trajectory store's log and each frame-store segment go through this one
// walk and salvage scan, with the store's framing passed in as a probe.
// At the first offset the probe rejects, the scan searches forward byte by
// byte for the next offset it accepts. With none, the damage is the torn
// tail of a crashed append, and is truncated here, the one place a log
// shrinks; with one, the log was damaged at rest, and the store decides
// whether to refuse the open or resume the walk there.
package recordlog

import (
	"fmt"
	"log/slog"
	"os"
	"slices"
)

// Damage is a span of a log that holds no intact record: from Offset, a
// record boundary the walk reached, to Next, where the next intact record
// starts. Torn means none does; Next is then the log's size. Bytes is the
// span, valid during the call only.
type Damage struct {
	Offset, Next int64
	Torn         bool
	Bytes        []byte
}

// Reader replays logs of records of type R, reusing one buffer across its
// Replay calls: an open holds at most one file's bytes at a time.
type Reader[R any] struct {
	// Probe reports whether an intact record starts at b[0], returning the
	// record and its framed size, between 1 and len(b).
	Probe func(b []byte) (rec R, size int, ok bool)
	// Visit receives every intact record the walk reaches, in file order,
	// with its offset and framed size. An error ends the replay.
	Visit func(off int64, size int, rec R) error
	// Damage judges every damaged span first: an error ends the replay
	// and leaves the file as it is. Otherwise a torn tail is truncated,
	// and the walk resumes after any other span.
	Damage func(Damage) error

	buf []byte
}

// Replay walks f from byte 0 and returns the size of what stays of it:
// f's size, less a truncated torn tail.
func (r *Reader[R]) Replay(f *os.File) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("recordlog: stat %s: %w", f.Name(), err)
	}
	data := slices.Grow(r.buf[:0], int(info.Size()))[:info.Size()]
	r.buf = data
	if _, err := f.ReadAt(data, 0); err != nil {
		return 0, fmt.Errorf("recordlog: read %s: %w", f.Name(), err)
	}
	for off := 0; off < len(data); {
		if rec, size, ok := r.Probe(data[off:]); ok {
			if err := r.Visit(int64(off), size, rec); err != nil {
				return 0, err
			}
			off += size
			continue
		}
		next := off + 1
		for ; next < len(data); next++ {
			if _, _, ok := r.Probe(data[next:]); ok {
				break
			}
		}
		d := Damage{Offset: int64(off), Next: int64(next), Torn: next == len(data), Bytes: data[off:next]}
		if err := r.Damage(d); err != nil {
			return 0, err
		}
		if d.Torn { // new appends must not land after garbage
			if err := f.Truncate(d.Offset); err != nil {
				return 0, fmt.Errorf("recordlog: truncate torn tail of %s: %w", f.Name(), err)
			}
			slog.Warn("truncated torn tail", "component", "recordlog", "file", f.Name(),
				"offset", d.Offset, "bytes", len(d.Bytes), "note", "expected after a crash")
			return d.Offset, nil
		}
		off = next
	}
	return int64(len(data)), nil
}
