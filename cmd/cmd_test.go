// Package cmd_test drives the six daemon binaries as an operator would:
// it builds them once, checks every -h against the checked-in flag
// surface, and boots a loopback deployment that must come up healthy,
// refuse a JSON trajectory-store request, and exit 0 on SIGTERM with its
// closing log line (make smoke).
package cmd_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/trajstore"
)

var daemons = []string{
	"coral-monitor", "coral-node", "coral-sim",
	"framestore-server", "topology-server", "trajstore-server",
}

// binDir holds the six binaries, built once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "coralpie-cmd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, d := range daemons {
		args = append(args, "./"+d)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

var flagLine = regexp.MustCompile(`^  -(\S+)(?: (\S+))?$`)

const defaultTail = " (default "

// flagSurface runs binary -h and returns one "<binary> -<flag> <type>
// <default>" line per flag, in -h (alphabetical) order.
func flagSurface(t *testing.T, binary string) []string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, binary), "-h")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s -h: %v\n%s", binary, err, stderr.String())
	}
	var out []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			typ := m[2]
			if typ == "" {
				typ = "bool"
			}
			out = append(out, binary+" -"+m[1]+" "+typ)
		} else if i := strings.LastIndex(line, defaultTail); i >= 0 && len(out) > 0 &&
			strings.HasPrefix(line, "    \t") && strings.HasSuffix(line, ")") {
			out[len(out)-1] += " " + line[i+len(defaultTail):len(line)-1]
		}
	}
	return out
}

// TestFlagSurfaceMatchesGolden pins every daemon's flag names, types and
// defaults: the shared block lives in internal/daemon now, and moving a
// flag there must not add, drop or re-default a knob of any binary.
func TestFlagSurfaceMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	var got []string
	for _, d := range daemons {
		got = append(got, flagSurface(t, d)...)
	}
	if len(got) != 118 {
		t.Errorf("flag count = %d, want 118", len(got))
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("flag surface differs from testdata/flags.golden\n--- got\n%s\n--- want\n%s", g, w)
	}
}

// proc is one running daemon with its stderr log captured.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan error // the exit status, sent once stderr is drained

	mu  sync.Mutex
	log []string
}

func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(filepath.Join(binDir, name), args...), done: make(chan error, 1)}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			p.mu.Lock()
			p.log = append(p.log, sc.Text())
			p.mu.Unlock()
		}
		p.done <- p.cmd.Wait()
	}()
	t.Cleanup(func() { _ = p.cmd.Process.Kill() })
	return p
}

func (p *proc) logs() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// message matches a text-format log line carrying msg (the logger quotes
// only messages with spaces).
func message(msg string) string {
	return ` [A-Z]+ "?` + regexp.QuoteMeta(msg) + `"?( |$)`
}

// logged waits for the log line carrying msg and returns the value of its
// key=value field.
func (p *proc) logged(t *testing.T, msg, key string) string {
	t.Helper()
	re := regexp.MustCompile(message(msg) + `.*\b` + key + `=(\S+)`)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		exited := len(p.done) > 0 // read before the log: done follows the last line
		if m := re.FindStringSubmatch(p.logs()); m != nil {
			return m[2]
		}
		if exited {
			break
		}
	}
	t.Fatalf("%s never logged %q %s=…:\n%s", p.name, msg, key, p.logs())
	return ""
}

// serves waits until GET path on the daemon's telemetry address answers
// 200 with a body containing each of want.
func (p *proc) serves(t *testing.T, path string, want ...string) {
	t.Helper()
	url := strings.TrimSuffix(p.logged(t, "telemetry listening", "url"), "/metrics") + path
	var last string
poll:
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(url)
		if err != nil {
			last = err.Error()
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		last = resp.Status + " " + string(body)
		if resp.StatusCode != http.StatusOK {
			continue
		}
		for _, w := range want {
			if !strings.Contains(string(body), w) {
				continue poll
			}
		}
		return
	}
	t.Fatalf("%s %s: %s\n%s", p.name, path, last, p.logs())
}

// terminate sends SIGTERM and requires exit 0 within the default
// -drain-timeout, no shutdown warning, and closing as the last log line.
func (p *proc) terminate(t *testing.T, closing string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.done:
		if err != nil {
			t.Errorf("%s after SIGTERM: %v\n%s", p.name, err, p.logs())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still running 5s after SIGTERM\n%s", p.name, p.logs())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.log); n == 0 || !regexp.MustCompile(message(closing)).MatchString(p.log[n-1]) {
		t.Errorf("%s: last log line is not %q:\n%s", p.name, closing, strings.Join(p.log, "\n"))
	}
	for _, line := range p.log {
		if strings.Contains(line, " WARN ") || strings.Contains(line, " ERROR ") {
			t.Errorf("%s logged a problem: %s", p.name, line)
		}
	}
}

// TestSmokeDeployment boots the five servers on ephemeral loopback ports,
// wired to each other — monitor, both stores on temp dirs (the frame
// store's GC ticking), topology server, one camera node — waits for every
// /healthz, sends the trajectory store one JSON request (refused, and
// counted as such), then stops each with SIGTERM. coral-monitor runs with
// -sweep-interval 0, which used to panic on the zero ticker interval.
func TestSmokeDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("starts six processes")
	}
	tmp := t.TempDir()
	const loopback = "127.0.0.1:0"

	monitor := start(t, "coral-monitor", "-listen", loopback, "-obs-listen", loopback, "-sweep-interval", "0")
	fleet := []string{"-monitor", monitor.logged(t, "fleet monitor listening", "addr"), "-heartbeat-interval", "50ms"}
	server := func(name string, args ...string) *proc {
		return start(t, name, append(append([]string{"-listen", loopback, "-obs-listen", loopback}, fleet...), args...)...)
	}

	trajDir := filepath.Join(tmp, "traj")
	traj := server("trajstore-server", "-dir", trajDir)
	frames := server("framestore-server", "-dir", filepath.Join(tmp, "frames"),
		"-retain-bytes", "1000000", "-gc-interval", "20ms")
	graph := filepath.Join(tmp, "corridor.json")
	if out, err := exec.Command(filepath.Join(binDir, "coral-node"),
		"-dump-graph", graph, "-corridor-cameras", "2").CombinedOutput(); err != nil {
		t.Fatalf("coral-node -dump-graph: %v\n%s", err, out)
	}
	topo := server("topology-server", "-graph", graph)
	node := server("coral-node", "-id", "cam0", "-corridor-cameras", "2", "-duration", "1m",
		"-epoch", fmt.Sprint(time.Now().Unix()), // start streaming now, not in 3 s
		"-topology", topo.logged(t, "topology server listening", "addr"),
		"-trajstore", traj.logged(t, "trajectory store listening", "addr"),
		"-framestore", frames.logged(t, "frame store listening", "addr"))

	for _, p := range []*proc{monitor, traj, frames, topo, node} {
		p.serves(t, "/healthz")
	}
	refusesJSON(t, traj.logged(t, "trajectory store listening", "addr"))
	traj.serves(t, "/metrics", `coralpie_trajstore_requests_refused_total{reason="json_wire"} 1`+"\n")
	// Every fleet member's first heartbeat has reached the monitor.
	monitor.serves(t, "/cluster", `"cam0"`, `"trajstore-server-`, `"framestore-server-`, `"topology-server-`)

	node.terminate(t, "done")
	frames.terminate(t, "shutting down")
	traj.terminate(t, "shutting down")
	// The record log is the store's only file.
	if entries, err := os.ReadDir(trajDir); err != nil || len(entries) != 1 || entries[0].Name() != "trajstore.log" {
		t.Errorf("trajectory store directory holds %v, %v; want only trajstore.log", entries, err)
	}
	topo.terminate(t, "shutting down")
	monitor.terminate(t, "shutting down")
	if got := monitor.logged(t, "shutting down", "nodes"); got != "4" {
		t.Errorf("monitor saw %s nodes, want the 4 that heartbeat to it\n%s", got, monitor.logs())
	}
}

// refusesJSON sends the trajectory store at addr one request of the JSON
// wire older clients spoke: the answer is the typed floor refusal, and the
// server goes on to serve a binary client.
func refusesJSON(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := protocol.WriteFrameBody(conn, []byte(`{"op":"stats"}`), 1<<20); err != nil {
		t.Fatal(err)
	}
	answer, err := protocol.ReadFrameBody(conn, 1<<20)
	if err != nil {
		t.Fatalf("JSON request: %v", err)
	}
	if answer[0] == '{' || !bytes.Contains(answer, []byte(trajstore.ErrJSONWire.Error())) {
		t.Errorf("JSON request answered %q, want the binary %q refusal", answer, trajstore.ErrJSONWire)
	}
	ctx := context.Background()
	client, err := trajstore.DialContext(ctx, addr, trajstore.ClientConfig{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.StatsContext(ctx); err != nil {
		t.Errorf("binary stats after the refusal: %v", err)
	}
}

// TestSmokeRefusesPreFloorDirectory starts each store on a copy of a
// directory an older version wrote: it must exit 1 within 5 s with an
// ERROR line naming the release that upgrades the directory.
func TestSmokeRefusesPreFloorDirectory(t *testing.T) {
	for _, c := range []struct{ binary, fixture, release string }{
		{"trajstore-server", "../internal/trajstore/testdata/json-wal", "3ed9da7"},
		{"framestore-server", "../internal/framestore/testdata/json-store", "71177d7"},
	} {
		dir := t.TempDir()
		entries, err := os.ReadDir(c.fixture)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(c.fixture, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p := start(t, c.binary, "-dir", dir, "-listen", "127.0.0.1:0", "-obs-listen", "127.0.0.1:0")
		select {
		case err := <-p.done:
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("%s: exit %v, want status 1\n%s", c.binary, err, p.logs())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still running 5s after start on a pre-floor directory\n%s", c.binary, p.logs())
		}
		if !regexp.MustCompile(` ERROR .*pre-floor format.*` + c.release).MatchString(p.logs()) {
			t.Errorf("%s: no ERROR line naming release %s:\n%s", c.binary, c.release, p.logs())
		}
	}
}
