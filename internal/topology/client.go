package topology

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Client is the camera-side half of topology management: it sends
// periodic heartbeats to the topology server and maintains the camera's
// MDCS table from pushed updates. It corresponds to the Connection
// Manager's server-facing duties in the paper's Figure 7.
type Client struct {
	cameraID   string
	serverAddr string
	position   geo.Point
	headingDeg float64
	ep         transport.Endpoint
	clk        clock.Clock

	mu       sync.Mutex
	version  int64
	table    map[geo.Direction][]protocol.CameraRef
	onUpdate func(version int64)

	stop chan struct{}
	done chan struct{}
}

// ClientConfig collects the identity a camera reports to the server.
type ClientConfig struct {
	CameraID   string
	ServerAddr string
	Position   geo.Point
	HeadingDeg float64
}

// NewClient builds a client that sends through ep (whose handler is owned
// by the caller — route TopologyUpdate envelopes to ApplyUpdate).
func NewClient(cfg ClientConfig, ep transport.Endpoint, clk clock.Clock) (*Client, error) {
	if cfg.CameraID == "" {
		return nil, fmt.Errorf("topology: camera id required")
	}
	if cfg.ServerAddr == "" {
		return nil, fmt.Errorf("topology: server address required")
	}
	if ep == nil || clk == nil {
		return nil, fmt.Errorf("topology: endpoint and clock required")
	}
	return &Client{
		cameraID:   cfg.CameraID,
		serverAddr: cfg.ServerAddr,
		position:   cfg.Position,
		headingDeg: cfg.HeadingDeg,
		ep:         ep,
		clk:        clk,
		table:      make(map[geo.Direction][]protocol.CameraRef),
	}, nil
}

// OnUpdate registers a callback invoked (outside the client lock) after
// each applied topology update.
func (c *Client) OnUpdate(fn func(version int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onUpdate = fn
}

// SendHeartbeatContext sends one heartbeat to the topology server,
// bounded by ctx.
func (c *Client) SendHeartbeatContext(ctx context.Context) error {
	env, err := protocol.Seal(protocol.Heartbeat{
		CameraID:   c.cameraID,
		Position:   c.position,
		HeadingDeg: c.headingDeg,
		Addr:       c.ep.Addr(),
		Time:       c.clk.Now(),
	})
	if err != nil {
		return err
	}
	if err := c.ep.Send(ctx, c.serverAddr, env); err != nil {
		return fmt.Errorf("topology: heartbeat: %w", err)
	}
	return nil
}

// ApplyUpdate installs a pushed MDCS table, discarding stale versions.
func (c *Client) ApplyUpdate(u protocol.TopologyUpdate) {
	if u.CameraID != c.cameraID {
		return
	}
	c.mu.Lock()
	if u.Version <= c.version {
		c.mu.Unlock()
		return
	}
	c.version = u.Version
	table := make(map[geo.Direction][]protocol.CameraRef, len(u.MDCS))
	for dir, refs := range u.MDCS {
		table[dir] = append([]protocol.CameraRef(nil), refs...)
	}
	c.table = table
	fn := c.onUpdate
	c.mu.Unlock()
	if fn != nil {
		fn(u.Version)
	}
}

// Lookup returns the downstream cameras for a moving direction (a copy;
// empty when the direction has no downstream camera or no table arrived
// yet).
func (c *Client) Lookup(d geo.Direction) []protocol.CameraRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	refs := c.table[d]
	out := make([]protocol.CameraRef, len(refs))
	copy(out, refs)
	return out
}

// Table returns a copy of the whole MDCS table.
func (c *Client) Table() map[geo.Direction][]protocol.CameraRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[geo.Direction][]protocol.CameraRef, len(c.table))
	for dir, refs := range c.table {
		out[dir] = append([]protocol.CameraRef(nil), refs...)
	}
	return out
}

// Version returns the applied table version (0 before the first update).
func (c *Client) Version() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// CameraID returns the camera identity this client reports.
func (c *Client) CameraID() string { return c.cameraID }

// StartHeartbeats launches a real-time heartbeat loop that exits when
// ctx is cancelled (or on Close). Simulation harnesses call
// SendHeartbeatContext from a simulator ticker instead.
func (c *Client) StartHeartbeats(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("topology: heartbeat interval %v must be positive", interval)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return fmt.Errorf("topology: heartbeats already started")
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.heartbeatLoop(ctx, interval, c.stop, c.done)
	return nil
}

func (c *Client) heartbeatLoop(ctx context.Context, interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	// Send one immediately so registration does not wait a full interval.
	_ = c.SendHeartbeatContext(ctx)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			_ = c.SendHeartbeatContext(ctx)
		case <-ctx.Done():
			return
		case <-stop:
			return
		}
	}
}

// Close stops the heartbeat loop if one is running.
func (c *Client) Close() error {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return nil
}
