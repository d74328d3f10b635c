package phys

import (
	"fmt"

	"repro/internal/sim"
)

// Assignment partitions a fabric for parallel simulation: every switch
// and every node is owned by exactly one shard, and each shard runs its
// components on a private kernel. The partition is a pure function of
// the topology and the shard count, so two runs (and two machines)
// always shard identically — a prerequisite for reproducible parallel
// results.
// AssignShards (partition.go) builds it: the block partition refined by
// deterministic cut-aware switch swaps. The observability fields record
// what the partitioner settled on; they feed report summaries, never
// the simulation itself.
type Assignment struct {
	Shards      int
	SwitchShard []int // switch id → owning shard
	NodeShard   []int // node id → owning shard

	// CutLinks counts the links (node fibers + trunks) whose endpoints
	// land on different shards — the barrier-exchange surface.
	CutLinks int
	// MinCutFiberM is the shortest cross-shard fiber in meters — the
	// one that bounds Lookahead. Zero when nothing crosses shards.
	MinCutFiberM float64
	// Refined reports whether cut-aware refinement improved on the
	// block partition (false = the block partition was already optimal
	// under the scan, or refinement was not applicable).
	Refined bool
}

// Lookahead returns the fabric's conservative lookahead under assign:
// the propagation delay of the shortest fiber whose endpoints live on
// different shards (assign.MinCutFiberM). Any influence one shard
// exerts on another needs at least one cross-shard flight, so shards
// may run a full lookahead window apart without ever reordering a
// delivery. An error is returned when that fiber is so short its
// propagation rounds to zero — such a fabric has no exploitable
// lookahead.
func Lookahead(topo *Topology, assign *Assignment) (sim.Time, error) {
	if assign.CutLinks == 0 {
		// Nothing crosses shards: the partition is fully decoupled and
		// any window length is safe.
		return sim.MaxTime, nil
	}
	p := PropTime(assign.MinCutFiberM)
	if p <= 0 {
		return 0, fmt.Errorf("phys: topology %q: the shortest cross-shard fiber has zero propagation delay (%.1f m); no lookahead",
			topo.Name, assign.MinCutFiberM)
	}
	return p, nil
}
