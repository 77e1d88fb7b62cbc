package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Log levels: slog's own, the -log-level values.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// LogFormat names a line encoding: the -log-format values.
type LogFormat string

// Log line encodings.
const (
	// FormatText writes `time=… level=INFO msg="…" key=value …`.
	FormatText LogFormat = "text"
	// FormatJSON writes one object per line: "time", "level", "msg", then
	// one member per attribute.
	FormatJSON LogFormat = "json"
)

// Logger is the *slog.Logger NewLogger builds.
type Logger struct{ *slog.Logger }

// NewLogger returns a logger writing lines at or above level to w: the one
// place this module builds a slog handler.
func NewLogger(w io.Writer, level slog.Level, format LogFormat) Logger {
	opts := &slog.HandlerOptions{Level: level}
	if format == FormatJSON {
		return Logger{slog.New(slog.NewJSONHandler(w, opts))}
	}
	return Logger{slog.New(slog.NewTextHandler(w, opts))}
}

// WithComponent binds the conventional "component" attribute.
func (l Logger) WithComponent(name string) *slog.Logger {
	return l.With("component", name)
}

// InitDefaultLogger parses -log-level / -log-format flag values, installs
// a stderr logger as slog's default, and returns it so binaries can bind
// their component name.
func InitDefaultLogger(level, format string) (*slog.Logger, error) {
	lvl, ok := map[string]slog.Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn, "error": LevelError,
	}[strings.ToLower(level)]
	if !ok {
		return nil, fmt.Errorf("obs: unknown log level %q", level)
	}
	f := LogFormat(strings.ToLower(format))
	if f != FormatText && f != FormatJSON {
		return nil, fmt.Errorf("obs: unknown log format %q", format)
	}
	l := NewLogger(os.Stderr, lvl, f).Logger
	slog.SetDefault(l)
	return l, nil
}
