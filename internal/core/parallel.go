package core

import (
	"repro/internal/parsim"
	"repro/internal/phys"
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

// Holds returns how the fabric's device latencies were spent — planned
// on the egress port or staged as kernel events, and why — summed over
// every shard's Net. A host-side cost count, like EventsFired: it varies
// with the shard count (a cross-shard link takes no plan) where no Report
// byte does.
func (c *Cluster) Holds() phys.HoldStats {
	var sum phys.HoldStats
	for _, net := range c.Nets {
		sum.Add(net.Holds)
	}
	return sum
}

// ParStats returns the engine's window/barrier statistics (fabric-wide
// sums).
func (c *Cluster) ParStats() *parsim.Stats {
	st := c.eng.Stats
	return &st
}

// ShardParStats returns the deterministic per-shard telemetry plane —
// one parsim.ShardStat per shard. Safe whenever the driver may observe
// the simulation (shards parked).
func (c *Cluster) ShardParStats() []parsim.ShardStat { return c.eng.ShardStats() }

// OnBarrier installs fn as the observer of the engine's barriers. fn
// runs on the driver goroutine with all kernels parked on at;
// frames/routes are the barrier drain's batch sizes and action marks
// fences forced by coordinator work. Observing is behavior-neutral —
// fn must not mutate model state.
func (c *Cluster) OnBarrier(fn func(at sim.Time, frames, routes int, action bool)) {
	c.eng.OnFence = fn
}

// Lookahead returns the engine's window bound (sim.MaxTime when no
// link crosses shards, as with one shard).
func (c *Cluster) Lookahead() sim.Time { return c.eng.Lookahead() }
