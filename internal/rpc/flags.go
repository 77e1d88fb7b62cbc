package rpc

import (
	"flag"
	"time"
)

// Flags is the shared -rpc-* flag block that every TCP-facing binary
// registers, so call timeouts, dial backoff, and retry budget are tuned
// the same way across coral-node, topology-server, framestore-server,
// trajstore-server, and trajquery. Transports map it onto their configs
// via transport.TCPConfigFromFlags and trajstore.ClientConfigFromFlags;
// both hand DialTimeout, BackoffBase and BackoffMax to their
// ClientConns' BackoffConfig.
type Flags struct {
	CallTimeout time.Duration
	DialTimeout time.Duration
	BackoffBase time.Duration
	BackoffMax  time.Duration
	RetryBudget int
}

// RegisterFlags installs the -rpc-* flags on fs with the shared
// defaults and returns the destination struct (valid after fs.Parse).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.CallTimeout, "rpc-call-timeout", 5*time.Second,
		"per-call/send budget applied when the context has no deadline")
	fs.DurationVar(&f.DialTimeout, "rpc-dial-timeout", 2*time.Second,
		"bound on one TCP connection attempt")
	fs.DurationVar(&f.BackoffBase, "rpc-backoff-base", 50*time.Millisecond,
		"first dial-retry delay; doubles per attempt, with jitter")
	fs.DurationVar(&f.BackoffMax, "rpc-backoff-max", time.Second,
		"cap on the dial-retry delay")
	fs.IntVar(&f.RetryBudget, "rpc-retry-budget", 1,
		"retries per call after a stale cached connection (negative disables)")
	return f
}
