package config

import (
	"fmt"
	"net/url"
	"strings"
)

// CacheSpec configures the daemon's content-addressed result cache. The
// zero value is valid: a memory-only cache with the cache package's
// default capacity.
type CacheSpec struct {
	// Dir is the on-disk spool for cache entries; empty falls back to the
	// daemon's job spool (see server.Options.Cache), else memory-only.
	Dir string `json:"dir,omitempty"`
	// MaxEntries bounds the in-memory LRU tier; 0 selects the cache
	// package's default.
	MaxEntries int `json:"max_entries,omitempty"`
}

// Validate rejects malformed cache blocks.
func (c CacheSpec) Validate() error {
	if c.MaxEntries < 0 {
		return fmt.Errorf("config: cache max_entries must be >= 0, got %d", c.MaxEntries)
	}
	return nil
}

// ClusterSpec configures the daemon's cluster role. The zero value is a
// plain standalone daemon. Setting Peers makes it a coordinator that
// fans campaign points out to worker daemons; setting Worker makes it a
// worker (it serves leased points but never fans out itself). The two
// roles are mutually exclusive.
type ClusterSpec struct {
	// Peers lists worker base URLs (e.g. "http://10.0.0.2:7077") the
	// coordinator fans campaign points out to. Workers can also join at
	// runtime via POST /v1/cluster/register.
	Peers []string `json:"peers,omitempty"`
	// Worker marks this daemon as a cluster worker: it accepts leased
	// points over the normal job API but never dispatches to peers.
	Worker bool `json:"worker,omitempty"`
	// HeartbeatSec is the coordinator's health-probe interval in
	// seconds; 0 selects the cluster package's default.
	HeartbeatSec float64 `json:"heartbeat_sec,omitempty"`
	// DeadAfterSec is how long a worker may miss heartbeats before its
	// leases are re-issued elsewhere; 0 selects the cluster package's
	// default.
	DeadAfterSec float64 `json:"dead_after_sec,omitempty"`
	// ProbeTimeoutSec bounds a single health probe in seconds; 0 selects
	// the cluster package's default. Must stay below the heartbeat
	// interval or probes of a black-holed worker pile up on each other.
	ProbeTimeoutSec float64 `json:"probe_timeout_sec,omitempty"`
	// BreakerThreshold is how many consecutive lease/probe failures trip
	// a worker's circuit breaker; 0 selects the cluster package's
	// default.
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// BreakerCooldownSec is how long a tripped breaker blocks all
	// traffic to its worker before the half-open trial probe; 0 selects
	// the cluster package's default (2x the heartbeat).
	BreakerCooldownSec float64 `json:"breaker_cooldown_sec,omitempty"`
	// HedgeAfterSec floors the straggler-hedge deadline in seconds: a
	// leased point must run at least this long (and past 3x the p95
	// lease latency) before it is duplicated to a second worker. 0
	// selects the cluster package's default; negative disables hedging.
	HedgeAfterSec float64 `json:"hedge_after_sec,omitempty"`
}

// Validate rejects malformed cluster blocks: conflicting roles,
// unparsable peer URLs, negative intervals.
func (c ClusterSpec) Validate() error {
	if c.Worker && len(c.Peers) > 0 {
		return fmt.Errorf("config: a daemon is either a worker or a coordinator with peers, not both")
	}
	if c.HeartbeatSec < 0 {
		return fmt.Errorf("config: cluster heartbeat_sec must be >= 0, got %g", c.HeartbeatSec)
	}
	if c.DeadAfterSec < 0 {
		return fmt.Errorf("config: cluster dead_after_sec must be >= 0, got %g", c.DeadAfterSec)
	}
	if c.ProbeTimeoutSec < 0 {
		return fmt.Errorf("config: cluster probe_timeout_sec must be >= 0, got %g", c.ProbeTimeoutSec)
	}
	if c.BreakerThreshold < 0 {
		return fmt.Errorf("config: cluster breaker_threshold must be >= 0, got %d", c.BreakerThreshold)
	}
	if c.BreakerCooldownSec < 0 {
		return fmt.Errorf("config: cluster breaker_cooldown_sec must be >= 0, got %g", c.BreakerCooldownSec)
	}
	// The probe timeout must fit inside the heartbeat interval, or the
	// probes of a black-holed worker overlap. 5s mirrors the cluster
	// package's default heartbeat.
	heartbeat := c.HeartbeatSec
	if heartbeat == 0 {
		heartbeat = 5
	}
	if c.ProbeTimeoutSec >= heartbeat {
		return fmt.Errorf("config: cluster probe_timeout_sec (%g) must be below the heartbeat interval (%gs)",
			c.ProbeTimeoutSec, heartbeat)
	}
	if c.DeadAfterSec > 0 && c.DeadAfterSec < heartbeat {
		return fmt.Errorf("config: cluster dead_after_sec (%g) must be at least one heartbeat interval (%gs)",
			c.DeadAfterSec, heartbeat)
	}
	seen := make(map[string]bool, len(c.Peers))
	for _, p := range c.Peers {
		u, err := url.Parse(p)
		if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return fmt.Errorf("config: cluster peer %q is not an http(s) base URL", p)
		}
		key := strings.TrimSuffix(p, "/")
		if seen[key] {
			return fmt.Errorf("config: duplicate cluster peer %q", p)
		}
		seen[key] = true
	}
	return nil
}
