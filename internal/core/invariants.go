package core

import (
	"fmt"
	"sort"

	"repro/internal/ampdk"
	"repro/internal/detmap"
	"repro/internal/rostering"
)

// This file defines what "healed" means on an arbitrary fabric, and the
// roster invariants the property battery asserts after every heal
// window. A fabric with trunks can partition (a trunk cut splits a
// sharded cluster into independent rings) and re-merge, so both the
// Healed predicate and the invariants are stated per live partition,
// not per cluster: a cleanly partitioned fabric whose sides each run a
// settled ring is healed.

// liveComponents partitions the reachable nodes by live-fabric
// connectivity: two nodes share a component when a path of live
// node-switch links, live switches and live trunks joins them. A node
// is reachable when it is not crashed/rejected and has at least one
// live link to a live switch. Components are returned with their node
// ids ascending, ordered by lowest id.
func (c *Cluster) liveComponents() [][]int {
	nodes, switches := len(c.Nodes), len(c.Phys.Switches)
	// Union-find over switch vertices [0,switches) and node vertices
	// [switches, switches+nodes).
	parent := make([]int, switches+nodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	swLive := make([]bool, switches)
	for s, sw := range c.Phys.Switches {
		swLive[s] = !sw.Failed()
	}
	for _, t := range c.Phys.Trunks {
		if t.Link.Up() && swLive[t.A] && swLive[t.B] {
			union(t.A, t.B)
		}
	}
	reachable := make([]bool, nodes)
	for i, nd := range c.Nodes {
		if nd.State == ampdk.StateOffline || nd.State == ampdk.StateRejected {
			continue
		}
		for s := 0; s < switches; s++ {
			l := c.Phys.NodeLinks[i][s]
			if l != nil && l.Up() && swLive[s] {
				reachable[i] = true
				union(switches+i, s)
			}
		}
	}
	byRoot := map[int][]int{}
	for i := range c.Nodes {
		if reachable[i] {
			root := find(switches + i)
			byRoot[root] = append(byRoot[root], i)
		}
	}
	comps := make([][]int, 0, len(byRoot))
	for _, root := range detmap.SortedKeys(byRoot) {
		members := byRoot[root]
		sort.Ints(members)
		comps = append(comps, members)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	return comps
}

// Healed reports whether the cluster is currently settled: at least one
// node is reachable, and in every live partition all reachable nodes
// are online, agree on one roster containing exactly the partition's
// nodes, and every ring arc crosses live hardware.
func (c *Cluster) Healed() bool {
	comps := c.liveComponents()
	if len(comps) == 0 {
		return false
	}
	for _, comp := range comps {
		if c.componentViolation(comp) != "" {
			return false
		}
	}
	return true
}

// InvariantViolations checks the roster invariants the fabric battery
// asserts after every heal window and returns a description of each
// violation (empty means the cluster is healed):
//
//   - every reachable node is online with an adopted roster
//   - a partition's nodes agree on one roster
//   - the roster has no duplicate node ids, and only partition members
//   - the adopted roster equals the ideal roster — what
//     BuildRosterFabric computes from the partition's true link state
//     and trunk view. On a fabric whose live switches are
//     trunk-connected (every uniform segment with a live switch
//     qualifies) the ideal ring contains every live node, so this
//     subsumes "ring size == live nodes"; on damaged sparse fabrics it
//     pins the adopted ring to the largest ring the algorithm can
//     build, which may legitimately orphan bridge-isolated nodes
//   - every arc crosses live hardware (links, switches and trunks)
//
// In addition to the roster invariants, the fabric-wide frame ledger
// must conserve: every frame ever offered to a port is wire-delivered,
// counted as a typed loss, or still resident in a FIFO / fiber /
// device latency stage (see internal/frameacct). An imbalance means a
// frame died in an uncounted sink.
func (c *Cluster) InvariantViolations() []string {
	var out []string
	acct := c.FrameAcct()
	out = append(out, acct.Violations()...)
	comps := c.liveComponents()
	if len(comps) == 0 {
		return append(out, "no reachable nodes in any partition")
	}
	for _, comp := range comps {
		if v := c.componentViolation(comp); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// liveMask returns node i's true live-switch mask: live links to live
// switches.
func (c *Cluster) liveMask(i int) rostering.LinkState {
	var m rostering.LinkState
	for s := range c.Phys.Switches {
		l := c.Phys.NodeLinks[i][s]
		if l != nil && l.Up() && !c.Phys.Switches[s].Failed() {
			m |= 1 << s
		}
	}
	return m
}

// componentViolation checks one live partition and returns a violation
// description, or "" when the partition is settled. Rosters are rendered
// only to describe a violation: Healed is polled, and a settled
// partition is the common answer.
func (c *Cluster) componentViolation(comp []int) string {
	var agreed *rostering.Roster
	for _, i := range comp {
		nd := c.Nodes[i]
		if nd.State != ampdk.StateOnline {
			return fmt.Sprintf("partition %v: node %d still %v", comp, i, nd.State)
		}
		r := nd.Agent.Roster()
		if r == nil {
			return fmt.Sprintf("partition %v: node %d has no roster", comp, i)
		}
		if agreed == nil {
			agreed = r
		} else if !r.Identical(agreed) {
			return fmt.Sprintf("partition %v: node %d roster %q disagrees with %q", comp, i, r, agreed)
		}
	}
	// The ideal roster is BuildRosterFabric over the true link state of
	// the partition's members and the current trunk view (epoch is
	// irrelevant — roster comparison ignores it).
	lsdb := make(map[int]rostering.LinkState, len(comp))
	for _, i := range comp {
		lsdb[i] = c.liveMask(i)
	}
	view := c.Phys.View()
	if ideal := rostering.BuildRosterFabric(0, lsdb, &view); !agreed.Equal(ideal) {
		return fmt.Sprintf("partition %v: adopted roster %q != ideal roster %q", comp, agreed, ideal)
	}
	// mark[n]: 1 a partition member, 2 a member seen on the roster.
	mark := make([]uint8, len(c.Nodes))
	for _, i := range comp {
		mark[i] = 1
	}
	for _, n := range agreed.Nodes {
		switch {
		case n < 0 || n >= len(mark) || mark[n] == 0:
			return fmt.Sprintf("partition %v: foreign node %d on roster %s", comp, n, agreed)
		case mark[n] == 2:
			return fmt.Sprintf("partition %v: duplicate node %d on roster %s", comp, n, agreed)
		}
		mark[n] = 2
	}
	// A stale roster can still "agree" right after a fault; the ring is
	// healed only when every arc it routes traverses live hardware.
	if !agreed.ValidInFabric(lsdb, &view) {
		return fmt.Sprintf("partition %v: roster %s crosses dark hardware", comp, agreed)
	}
	return ""
}
