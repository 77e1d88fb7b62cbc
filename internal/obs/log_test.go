package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"regexp"
	"strings"
	"testing"
)

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn, FormatText)
	l.Debug("d")
	l.Info("i")
	if buf.Len() != 0 {
		t.Fatalf("below-level lines written: %q", buf.String())
	}
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
}

func TestLoggerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo, FormatText).WithComponent("camnode").With("camera", "cam0")
	l.Info("frame processed", "detections", 3, "note", "two words")

	want := regexp.MustCompile(`^time=\S+ level=INFO msg="frame processed" component=camnode camera=cam0 detections=3 note="two words"\n$`)
	if !want.MatchString(buf.String()) {
		t.Fatalf("text line %q does not match %s", buf.String(), want)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug, FormatJSON).WithComponent("trajstore")
	l.Warn("truncated torn wal tail", "offset", 512)

	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	for k, want := range map[string]any{
		"level": "WARN", "msg": "truncated torn wal tail", "component": "trajstore", "offset": 512.0,
	} {
		if m[k] != want {
			t.Fatalf("field %q = %v, want %v (line %q)", k, m[k], want, buf.String())
		}
	}
	if _, ok := m["time"].(string); !ok {
		t.Fatalf("no time key: %q", buf.String())
	}
}

// TestDefaultLoggerSwap: InitDefaultLogger installs the logger it returns
// as slog's default, which library code without an injected logger uses.
func TestDefaultLoggerSwap(t *testing.T) {
	old := slog.Default()
	defer slog.SetDefault(old)

	l, err := InitDefaultLogger("warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	if slog.Default() != l {
		t.Fatal("InitDefaultLogger did not install its logger as slog's default")
	}
}

// TestParseLevel: InitDefaultLogger, the -log-level parser, takes the four
// level names in any case, each gating from its own level up, and refuses
// anything else, the dropped "warning" alias included.
func TestParseLevel(t *testing.T) {
	old := slog.Default()
	defer slog.SetDefault(old)

	ctx := context.Background()
	for level, want := range map[string]slog.Level{
		"debug": LevelDebug, "info": LevelInfo, "INFO": LevelInfo, "warn": LevelWarn, "error": LevelError,
	} {
		l, err := InitDefaultLogger(level, "text")
		if err != nil {
			t.Fatalf("InitDefaultLogger(%q): %v", level, err)
		}
		if !l.Enabled(ctx, want) || want > LevelDebug && l.Enabled(ctx, want-1) {
			t.Fatalf("InitDefaultLogger(%q) does not log from %v up", level, want)
		}
	}
	for _, level := range []string{"warning", "loud", ""} {
		if _, err := InitDefaultLogger(level, "text"); err == nil {
			t.Errorf("InitDefaultLogger(%q, \"text\") accepted", level)
		}
	}
}

// TestInitDefaultLogger: the two -log-format names, in any case, are
// accepted; anything else is refused.
func TestInitDefaultLogger(t *testing.T) {
	old := slog.Default()
	defer slog.SetDefault(old)

	for _, format := range []string{"text", "json", "JSON"} {
		if _, err := InitDefaultLogger("info", format); err != nil {
			t.Fatalf("InitDefaultLogger(\"info\", %q): %v", format, err)
		}
	}
	for _, format := range []string{"yaml", ""} {
		if _, err := InitDefaultLogger("info", format); err == nil {
			t.Errorf("InitDefaultLogger(\"info\", %q) accepted", format)
		}
	}
}
