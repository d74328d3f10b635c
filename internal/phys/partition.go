package phys

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Cut-aware shard partitioning.
//
// The conservative window the engine runs with is
// phys.Lookahead: the minimum propagation delay over every cross-shard
// fiber. A partition that happens to cut a short fiber strangles every
// shard's window to that fiber's flight time, no matter how long the
// rest of the cut is. AssignShards therefore starts from the canonical
// block partition and refines it with a deterministic
// Kernighan–Lin-style hill climb over switch swaps, maximizing first
// the minimum cross-shard fiber (and hence the lookahead window) and
// then, at equal lookahead, minimizing the number of cut links (the
// barrier-exchange volume). Ties fall back to the block partition:
// only strictly improving swaps are taken, in a fixed scan order, so
// the assignment is a pure function of (topology, shard count) —
// identical across runs, machines, and engines, which is what keeps
// parallel reports reproducible.
//
// Swaps exchange whole switches between shards, so every shard keeps
// exactly its block-partition switch count — refinement never skews
// the load balance the block partition establishes.

// partEval scores one switch assignment. Lexicographic order: a bigger
// minProp wins; at equal minProp, a smaller cut wins.
type partEval struct {
	minProp   sim.Time // shortest cross-shard flight; MaxTime when nothing crosses
	minFiberM float64  // its fiber length in meters; 0 when nothing crosses
	cut       int      // number of cross-shard links (node fibers + trunks)
}

func betterPart(a, b partEval) bool {
	if a.minProp != b.minProp {
		return a.minProp > b.minProp
	}
	return a.cut < b.cut
}

// attachLists precomputes node → attached-switch lists (and catches
// unattached nodes, which have no home shard and cannot be simulated).
func attachLists(topo *Topology) ([][]int, error) {
	attach := make([][]int, topo.Nodes)
	for n := 0; n < topo.Nodes; n++ {
		for s := 0; s < topo.Switches; s++ {
			if topo.IsAttached(n, s) {
				attach[n] = append(attach[n], s)
			}
		}
		if len(attach[n]) == 0 {
			return nil, fmt.Errorf("phys: node %d is attached to no switch; it has no home shard (run Topology.Validate)", n)
		}
	}
	return attach, nil
}

// nodeHomes assigns every node a shard under swShard: a node lives on
// the shard holding the most of its attachments; ties prefer the
// node's block-partition shard when it is among the leaders (keeping
// the historical assignment for uniform fabrics, where every shard
// ties), and the lowest tied shard index otherwise. Deterministic by
// construction.
func nodeHomes(attach [][]int, swShard []int, shards, nodes int, out []int) {
	cnt := make([]int, shards)
	for n, atts := range attach {
		for i := range cnt {
			cnt[i] = 0
		}
		for _, s := range atts {
			cnt[swShard[s]]++
		}
		best := 0
		for _, c := range cnt {
			if c > best {
				best = c
			}
		}
		home := n * shards / nodes
		if cnt[home] != best {
			for sh, c := range cnt {
				if c == best {
					home = sh
					break
				}
			}
		}
		out[n] = home
	}
}

// evalPartition scores swShard, filling nodeShard with the implied node
// homes.
func evalPartition(topo *Topology, attach [][]int, swShard []int, shards int, nodeShard []int) partEval {
	nodeHomes(attach, swShard, shards, topo.Nodes, nodeShard)
	ev := partEval{minProp: sim.MaxTime}
	consider := func(meters float64) {
		ev.cut++
		if p := PropTime(meters); p < ev.minProp {
			ev.minProp, ev.minFiberM = p, meters
		}
	}
	for n, atts := range attach {
		for _, s := range atts {
			if nodeShard[n] != swShard[s] {
				consider(topo.FiberM)
			}
		}
	}
	for i, tr := range topo.Trunks {
		if swShard[tr.A] != swShard[tr.B] {
			consider(topo.TrunkFiberM(i))
		}
	}
	return ev
}

// score evaluates a.SwitchShard: it fills the node homes and the cut
// fields it implies.
func (a *Assignment) score(topo *Topology, attach [][]int) partEval {
	ev := evalPartition(topo, attach, a.SwitchShard, a.Shards, a.NodeShard)
	a.CutLinks, a.MinCutFiberM = ev.cut, ev.minFiberM
	return ev
}

// BlockAssign computes the historical block partition: switches in
// index order (shard i owns switches [i·S/K, (i+1)·S/K)), node homes by
// the attachment-majority rule. It is the starting point of the
// cut-aware refinement and the comparison baseline for its
// never-worse-lookahead property.
func BlockAssign(topo *Topology, shards int) (*Assignment, error) {
	a, attach, err := blockStart(topo, shards)
	if err != nil {
		return nil, err
	}
	a.score(topo, attach)
	return a, nil
}

// blockStart checks (topo, shards) and returns the block partition's
// switch map, not yet scored, with the attachment lists scoring needs.
func blockStart(topo *Topology, shards int) (*Assignment, [][]int, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("phys: %d shards; need at least 1", shards)
	}
	if shards > topo.Switches {
		return nil, nil, fmt.Errorf("phys: %d shards over %d switches; a shard must own at least one switch",
			shards, topo.Switches)
	}
	attach, err := attachLists(topo)
	if err != nil {
		return nil, nil, err
	}
	a := &Assignment{
		Shards:      shards,
		SwitchShard: make([]int, topo.Switches),
		NodeShard:   make([]int, topo.Nodes),
	}
	for s := range a.SwitchShard {
		a.SwitchShard[s] = s * shards / topo.Switches
	}
	return a, attach, nil
}

// AssignShards computes the canonical shard assignment for topo:
// the block partition refined by deterministic cut-aware switch swaps
// (see the package comment above). With one shard, or with exactly one
// switch per shard (where any swap merely relabels shards), the result
// is the block partition itself.
//
// Unlike its block-only predecessor, AssignShards rejects topologies
// with unattached nodes instead of silently block-assigning them: a
// node with no switch has no home shard, and Topology.Validate would
// refuse to build it anyway.
func AssignShards(topo *Topology, shards int) (*Assignment, error) {
	a, attach, err := blockStart(topo, shards)
	if err != nil {
		return nil, err
	}
	swShard := a.SwitchShard
	cur := a.score(topo, attach)
	if shards > 1 && shards < topo.Switches && cur.cut > 0 {
		// First-improvement hill climb over switch pair swaps, fixed
		// scan order. Each accepted swap strictly improves the
		// lexicographic objective, so the climb terminates; the pass
		// cap is a safety net only.
		for pass := 0; pass < 4*topo.Switches; pass++ {
			improvedInPass := false
			for i := 0; i < topo.Switches; i++ {
				for j := i + 1; j < topo.Switches; j++ {
					if swShard[i] == swShard[j] {
						continue
					}
					swShard[i], swShard[j] = swShard[j], swShard[i]
					cand := evalPartition(topo, attach, swShard, shards, a.NodeShard)
					if betterPart(cand, cur) {
						cur = cand
						improvedInPass, a.Refined = true, true
					} else {
						swShard[i], swShard[j] = swShard[j], swShard[i]
					}
				}
			}
			if !improvedInPass {
				break
			}
		}
		// Score once more at the final assignment: NodeShard holds the
		// homes of the last *candidate* tried, not necessarily the
		// accepted one.
		a.score(topo, attach)
	}
	return a, nil
}

// Partition renders the switch→shard map as a compact string
// ("0,0,1,1"), the observability form reports and summaries print.
func (a *Assignment) Partition() string {
	var b strings.Builder
	for s, sh := range a.SwitchShard {
		if s > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(sh))
	}
	return b.String()
}
