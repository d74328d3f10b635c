package core

import (
	"repro/internal/parsim"
	"repro/internal/sim"
)

// EventsFired returns the total number of simulation events executed,
// summed over every shard's kernel.
func (c *Cluster) EventsFired() uint64 {
	var n uint64
	for _, k := range c.eng.Kernels {
		n += k.Fired
	}
	return n
}

// ParStats returns the engine's window/barrier statistics (fabric-wide
// sums), or nil at one shard.
func (c *Cluster) ParStats() *parsim.Stats {
	if c.Assign == nil {
		return nil
	}
	st := c.eng.Stats
	return &st
}

// ShardParStats returns the deterministic per-shard telemetry plane —
// one parsim.ShardStat per shard — or nil at one shard. Safe whenever
// the driver may observe the simulation (shards parked).
func (c *Cluster) ShardParStats() []parsim.ShardStat {
	if c.Assign == nil {
		return nil
	}
	return c.eng.ShardStats()
}

// OnBarrier installs fn as an observer of the engine's barriers,
// chained before any previously installed observer; it reports false
// at one shard. fn runs on the driver goroutine with all kernels parked
// on at; frames/routes are the barrier drain's batch sizes and action
// marks fences forced by coordinator work. Observing is
// behavior-neutral — fn must not mutate model state.
func (c *Cluster) OnBarrier(fn func(at sim.Time, frames, routes int, action bool)) bool {
	if c.Assign == nil {
		return false
	}
	prev := c.eng.OnFence
	c.eng.OnFence = func(at sim.Time, frames, routes int, action bool) {
		fn(at, frames, routes, action)
		if prev != nil {
			prev(at, frames, routes, action)
		}
	}
	return true
}

// Lookahead returns the engine's window bound (0 at one shard).
func (c *Cluster) Lookahead() sim.Time {
	if c.Assign == nil {
		return 0
	}
	return c.eng.Lookahead()
}
