// Package rostering implements AmpNet's rostering algorithm (paper,
// slides 13, 16, 18):
//
//	"Algorithm starts automatically whenever a failure is detected. A
//	 modified flooding algorithm that explores the network for available
//	 paths and allows the creation of the largest possible logical ring.
//	 Packets are forwarded according to rostering rules. Rostering
//	 completes in two ring-tour times — 1 to 2 milliseconds, depending
//	 on the number of nodes and the length of the fiber."
//
// Every node runs an Agent. When any port sees a status change (loss of
// light detected by the PHY, or light returning), the agent starts a new
// rostering epoch: it floods a link-state announcement — a Rostering
// MicroPacket carrying its identity and its live-switch mask — out every
// live port. Switches flood Rostering MicroPackets on all live ports,
// and nodes re-flood announcements they have not seen, so the
// exploration wave reaches every reachable node over every available
// path. Each node accumulates the announcements into an identical
// link-state database, waits for the exploration to quiesce (the settle
// window, calibrated to the ring-tour time as in the hardware's
// two-wave scheme), deterministically computes the largest logical ring
// the live paths allow, and adopts it: it programs its own ring egress
// and the crossbar route for its hop. Because every node computes the
// same roster from the same database, the ring converges without a
// master.
package rostering

import (
	"fmt"

	"repro/internal/detmap"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Roster is one logical ring: the cyclic node order and, for each hop
// Nodes[i] → Nodes[(i+1) % len], the switch path it crosses. Via[i] is
// the first switch of hop i (the source node's egress switch); Paths[i]
// is the full switch sequence, which has more than one entry when the
// hop heals across inter-switch trunks because the endpoints no longer
// share a live switch.
type Roster struct {
	Epoch uint32
	Nodes []int
	Via   []int
	Paths [][]int
}

// Size returns the number of nodes on the ring.
func (r *Roster) Size() int { return len(r.Nodes) }

// Contains reports whether node id is on the ring.
func (r *Roster) Contains(id int) bool {
	for _, n := range r.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// IndexOf returns node id's position on the ring, or -1.
func (r *Roster) IndexOf(id int) int {
	for i, n := range r.Nodes {
		if n == id {
			return i
		}
	}
	return -1
}

// Next returns the downstream neighbor of node id and the first switch
// of the hop (the node's egress switch). ok is false if id is not on
// the ring or the ring has a single node.
func (r *Roster) Next(id int) (next, via int, ok bool) {
	i := r.IndexOf(id)
	if i < 0 || len(r.Nodes) < 2 {
		return 0, 0, false
	}
	return r.Nodes[(i+1)%len(r.Nodes)], r.Via[i], true
}

// PathOf returns the full switch path of node id's egress hop, or nil
// when the node is off the ring or the ring has a single node. Rosters
// built before trunks existed carry no Paths; the single via switch is
// returned then.
func (r *Roster) PathOf(id int) []int {
	i := r.IndexOf(id)
	if i < 0 || len(r.Nodes) < 2 {
		return nil
	}
	if i < len(r.Paths) && len(r.Paths[i]) > 0 {
		return r.Paths[i]
	}
	return []int{r.Via[i]}
}

// Equal reports whether two rosters describe the same ring (same
// rotation-normalized order and vias). Epoch is ignored.
func (r *Roster) Equal(o *Roster) bool {
	if o == nil || len(r.Nodes) != len(o.Nodes) {
		return false
	}
	n := len(r.Nodes)
	if n == 0 {
		return true
	}
	// Align on the smallest node id.
	ri, oi := r.minIndex(), o.minIndex()
	for k := 0; k < n; k++ {
		if r.Nodes[(ri+k)%n] != o.Nodes[(oi+k)%n] || r.Via[(ri+k)%n] != o.Via[(oi+k)%n] {
			return false
		}
		rp, op := r.hopPath((ri+k)%n), o.hopPath((oi+k)%n)
		if len(rp) != len(op) {
			return false
		}
		for j := range rp {
			if rp[j] != op[j] {
				return false
			}
		}
	}
	return true
}

// hopPath returns hop i's switch path, defaulting to the single via.
func (r *Roster) hopPath(i int) []int {
	if i < len(r.Paths) && len(r.Paths[i]) > 0 {
		return r.Paths[i]
	}
	if i < len(r.Via) {
		return []int{r.Via[i]}
	}
	return nil
}

func (r *Roster) minIndex() int {
	mi := 0
	for i, n := range r.Nodes {
		if n < r.Nodes[mi] {
			mi = i
		}
	}
	return mi
}

// String renders "0 -s2-> 3 -s0-> 5 -s2-> (0)"; hops healing across
// trunks render the full switch path, e.g. "2 -s1:s3-> 4".
func (r *Roster) String() string {
	if len(r.Nodes) == 0 {
		return "<empty roster>"
	}
	s := fmt.Sprintf("epoch %d: ", r.Epoch)
	for i, n := range r.Nodes {
		if len(r.Via) == len(r.Nodes) {
			s += fmt.Sprintf("%d -s", n)
			for j, sw := range r.hopPath(i) {
				if j > 0 {
					s += fmt.Sprintf(":s%d", sw)
				} else {
					s += fmt.Sprint(sw)
				}
			}
			s += "-> "
		} else {
			s += fmt.Sprintf("%d ", n)
		}
	}
	return s + fmt.Sprintf("(%d)", r.Nodes[0])
}

// LinkState is one node's live-switch bitmask: bit s set means the
// node's link to switch s carries light.
type LinkState uint8

// Has reports whether switch s is live for this node.
func (m LinkState) Has(s int) bool { return m&(1<<s) != 0 }

// common returns the lowest switch index live for both masks, or -1.
func common(a, b LinkState) int {
	c := a & b
	if c == 0 {
		return -1
	}
	for s := 0; s < 8; s++ {
		if c.Has(s) {
			return s
		}
	}
	return -1
}

// BuildRosterFabric deterministically computes the largest logical ring
// the link-state database and the fabric's live trunks allow: nodes are
// inserted in ascending id order into the cycle at the first feasible
// position (both new edges must be routable — a shared live switch, or
// a live trunk path between a switch live at each endpoint), repeating
// until no more nodes fit. Nodes that cannot join remain off the roster
// — the paper's "largest possible logical ring" under damage. Every
// node computes the same result from the same database and fabric view,
// which is what lets rostering converge without a master.
//
// On counter-rotating fabrics the ring orientation follows the lowest
// live switch: when it is odd (the primary ring's switch is gone), the
// node order is reversed, so the backup ring rotates the other way. A
// nil view is a trunkless fabric.
func BuildRosterFabric(epoch uint32, lsdb map[int]LinkState, view *phys.FabricView) *Roster {
	ids := make([]int, 0, len(lsdb))
	for _, id := range detmap.SortedKeys(lsdb) {
		if lsdb[id] != 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return &Roster{Epoch: epoch}
	}
	ring := []int{ids[0]}
	pending := append([]int{}, ids[1:]...)
	for progress := true; progress && len(pending) > 0; {
		progress = false
		var left []int
		for _, c := range pending {
			if pos := feasiblePos(ring, c, lsdb, view); pos >= 0 {
				ring = append(ring, 0)
				copy(ring[pos+2:], ring[pos+1:])
				ring[pos+1] = c
				progress = true
			} else {
				left = append(left, c)
			}
		}
		pending = left
	}
	if view != nil && view.CounterRotating && len(ring) >= 3 && lowestLiveSwitch(ring, lsdb)%2 == 1 {
		for i, j := 1, len(ring)-1; i < j; i, j = i+1, j-1 {
			ring[i], ring[j] = ring[j], ring[i]
		}
	}
	r := &Roster{Epoch: epoch, Nodes: ring}
	if len(ring) >= 2 {
		r.Via = make([]int, len(ring))
		r.Paths = make([][]int, len(ring))
		for i := range ring {
			a, b := ring[i], ring[(i+1)%len(ring)]
			path := switchPath(lsdb[a], lsdb[b], view)
			if path == nil {
				// Cannot happen for rings built by feasiblePos, but keep
				// the invariant explicit.
				panic("rostering: ring edge without a switch path")
			}
			r.Via[i] = path[0]
			r.Paths[i] = path
		}
	}
	return r
}

// lowestLiveSwitch returns the lowest switch index live for any ring
// member, or -1 when none is.
func lowestLiveSwitch(ring []int, lsdb map[int]LinkState) int {
	var union LinkState
	for _, id := range ring {
		union |= lsdb[id]
	}
	for s := 0; s < 8; s++ {
		if union.Has(s) {
			return s
		}
	}
	return -1
}

// feasiblePos returns an index i such that candidate c can be inserted
// between ring[i] and ring[i+1] (both new edges must be routable), or
// -1.
func feasiblePos(ring []int, c int, lsdb map[int]LinkState, view *phys.FabricView) int {
	if len(ring) == 1 {
		if routable(lsdb[ring[0]], lsdb[c], view) {
			return 0
		}
		return -1
	}
	for i := range ring {
		a, b := ring[i], ring[(i+1)%len(ring)]
		if routable(lsdb[a], lsdb[c], view) && routable(lsdb[c], lsdb[b], view) {
			return i
		}
	}
	return -1
}

// routable reports whether a hop between nodes with live-switch masks a
// and b can be routed: a shared switch, or a live trunk path.
func routable(a, b LinkState, view *phys.FabricView) bool {
	return switchPath(a, b, view) != nil
}

// switchPath returns the deterministic switch path of a hop between
// masks a and b: the lowest shared live switch when one exists (a
// single-element path — the trunkless behavior), otherwise the
// breadth-first shortest live-trunk path from the lowest feasible
// switch of a to a switch live for b. nil means the hop is unroutable.
func switchPath(a, b LinkState, view *phys.FabricView) []int {
	if s := common(a, b); s >= 0 {
		return []int{s}
	}
	if view == nil || view.TrunkUp == nil {
		return nil
	}
	n := view.Switches
	parent := make([]int, n)
	seen := make([]bool, n)
	var queue []int
	for s := 0; s < n; s++ {
		if a.Has(s) {
			seen[s], parent[s] = true, -1
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := 0; next < n; next++ {
			if seen[next] || !view.TrunkUp[cur][next] {
				continue
			}
			seen[next], parent[next] = true, cur
			if b.Has(next) {
				var path []int
				for s := next; s >= 0; s = parent[s] {
					path = append(path, s)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// ValidInFabric checks the roster against a link-state database and a
// fabric view: each hop's path must start at a switch live for the
// source, end at one live for the destination, and cross only live
// trunks in between. A nil view is a trunkless fabric.
func (r *Roster) ValidInFabric(lsdb map[int]LinkState, view *phys.FabricView) bool {
	if len(r.Nodes) < 2 {
		return true
	}
	if len(r.Via) != len(r.Nodes) {
		return false
	}
	for i, a := range r.Nodes {
		b := r.Nodes[(i+1)%len(r.Nodes)]
		path := r.hopPath(i)
		if len(path) == 0 || !lsdb[a].Has(path[0]) || !lsdb[b].Has(path[len(path)-1]) {
			return false
		}
		for j := 0; j+1 < len(path); j++ {
			if view == nil || !view.Joined(path[j], path[j+1]) {
				return false
			}
		}
	}
	return true
}

// EstimateTour estimates one ring-tour time for n nodes with the given
// per-link fiber length: n hops of (fixed-packet serialization + two
// fiber crossings + switch cut-through + insertion-register delay).
// This is the unit the paper states rostering completion in.
func EstimateTour(n int, fiberM float64, net *phys.Net) sim.Time {
	if n < 1 {
		n = 1
	}
	hop := phys.SerTime(24+net.IFG) + 2*phys.PropTime(fiberM) +
		phys.DefaultSwitchLatency + 40*sim.Nanosecond
	return sim.Time(n) * hop
}
