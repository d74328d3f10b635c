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
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"repro/internal/detmap"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Roster is one logical ring: the cyclic node order, starting at its
// lowest node id, and for each hop Nodes[i] → Nodes[(i+1) % len] the
// switch path it crosses. Paths[i][0] is the hop's first switch (the
// source node's egress switch); a path has more than one entry when the
// hop heals across inter-switch trunks because its endpoints no longer
// share a live switch. A ring of one node has no hops and no Paths. A
// built roster is read-only: the rows of Paths share storage (equal
// hops share one row).
type Roster struct {
	Epoch uint32
	Nodes []int
	Paths [][]int
}

// Size returns the number of nodes on the ring.
func (r *Roster) Size() int { return len(r.Nodes) }

// Contains reports whether node id is on the ring.
func (r *Roster) Contains(id int) bool { return slices.Contains(r.Nodes, id) }

// IndexOf returns node id's position on the ring, or -1.
func (r *Roster) IndexOf(id int) int { return slices.Index(r.Nodes, id) }

// Next returns the downstream neighbor of node id and the first switch
// of the hop (the node's egress switch). ok is false if id is not on
// the ring or the ring has a single node.
func (r *Roster) Next(id int) (next, via int, ok bool) {
	i := r.IndexOf(id)
	if i < 0 || len(r.Nodes) < 2 {
		return 0, 0, false
	}
	return r.Nodes[(i+1)%len(r.Nodes)], r.Paths[i][0], true
}

// PathOf returns the full switch path of node id's egress hop, or nil
// when the node is off the ring or the ring has a single node.
func (r *Roster) PathOf(id int) []int {
	i := r.IndexOf(id)
	if i < 0 || len(r.Nodes) < 2 {
		return nil
	}
	return r.Paths[i]
}

// Equal reports whether two rosters describe the same ring: the same
// node order and the same hop paths. Epoch is ignored. Every ring starts
// at its lowest node, so one ring has one node order.
func (r *Roster) Equal(o *Roster) bool {
	return o != nil && slices.Equal(r.Nodes, o.Nodes) && slices.EqualFunc(r.Paths, o.Paths, slices.Equal[[]int])
}

// Identical reports whether two rosters render the same String: Equal
// with the same epoch, or both empty. It is what "every node adopted the
// same roster" means, without building the strings.
func (r *Roster) Identical(o *Roster) bool {
	return r.Equal(o) && (r.Epoch == o.Epoch || len(r.Nodes) == 0)
}

// String renders "0 -s2-> 3 -s0-> 5 -s2-> (0)"; hops healing across
// trunks render the full switch path, e.g. "2 -s1:s3-> 4".
func (r *Roster) String() string {
	if len(r.Nodes) == 0 {
		return "<empty roster>"
	}
	var b strings.Builder
	b.Grow(16 + 12*len(r.Nodes))
	var num [20]byte
	put := func(v int) { b.Write(strconv.AppendInt(num[:0], int64(v), 10)) }
	b.WriteString("epoch ")
	b.Write(strconv.AppendUint(num[:0], uint64(r.Epoch), 10))
	b.WriteString(": ")
	for i, n := range r.Nodes {
		put(n)
		if len(r.Paths) == 0 { // one node: no hops
			b.WriteByte(' ')
			continue
		}
		b.WriteString(" -s")
		for j, sw := range r.Paths[i] {
			if j > 0 {
				b.WriteString(":s")
			}
			put(sw)
		}
		b.WriteString("-> ")
	}
	b.WriteByte('(')
	put(r.Nodes[0])
	b.WriteByte(')')
	return b.String()
}

// LinkState is one node's live-switch bitmask: bit s set means the
// node's link to switch s carries light.
type LinkState uint8

// Has reports whether switch s is live for this node.
func (m LinkState) Has(s int) bool { return m&(1<<s) != 0 }

// lowest returns the lowest switch index live in the mask, or -1.
func (m LinkState) lowest() int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros8(uint8(m))
}

// BuildRosterFabric deterministically computes the largest logical ring
// the link-state database and the fabric's live trunks allow: the ring
// starts at the lowest live id, and the others are inserted in
// ascending id order into the cycle at the first feasible position
// after it (both new edges must be routable — a shared live switch, or
// a live trunk path between a switch live at each endpoint), repeating
// until no more nodes fit. Nodes that cannot join remain off the roster
// — the paper's "largest possible logical ring" under damage. Every
// node computes the same result from the same database and fabric view,
// which is what lets rostering converge without a master.
//
// On counter-rotating fabrics the ring orientation follows the lowest
// live switch: when it is odd (the primary ring's switch is gone), the
// order after the first node is reversed, so the backup ring rotates
// the other way from the same start. A nil view is a trunkless fabric.
func BuildRosterFabric(epoch uint32, lsdb map[int]LinkState, view *phys.FabricView) *Roster {
	ids := detmap.SortedKeys(lsdb)
	masks := make([]LinkState, 0, len(ids))
	live := ids[:0]
	for _, id := range ids {
		if m := lsdb[id]; m != 0 {
			live, masks = append(live, id), append(masks, m)
		}
	}
	var v phys.FabricView
	if view != nil {
		v = *view
	}
	var rs Rounds
	return rs.build(epoch, live, masks, v)
}

// Rounds builds the rosters of the agents of one shard. Every agent of
// a round computes the same roster from the same database, so the
// first of them to adopt builds it and the rest share it: Rounds keeps
// the builder's scratch and a memo of the last build, and a roster it
// returns is read-only. Like the rest of a shard's state it is touched
// only from that shard's kernel, so one is never shared across shards.
// The zero value is ready to use.
type Rounds struct {
	// An adopting agent's database in the dense form Build takes.
	dbIDs   []int
	dbMasks []LinkState

	// The builder's scratch, overwritten by every build.
	t       pathTable
	cls     []uint8 // ids[i]'s mask class
	ring    []int   // the cycle's node ids
	rcls    []uint8 // their classes
	pending []int32 // indices into ids not yet on the ring

	// The memo: the last build's inputs and its roster.
	epoch uint32
	ids   []int
	masks []LinkState
	view  phys.FabricView
	last  *Roster
}

// Build returns the roster of a round's dense database — ids ascending,
// masks[i] the non-zero mask of ids[i] — under view: the last build's
// roster when epoch, ids, masks and view all equal its inputs, else a
// new one.
func (rs *Rounds) Build(epoch uint32, ids []int, masks []LinkState, view phys.FabricView) *Roster {
	if rs.last != nil && epoch == rs.epoch && view == rs.view &&
		slices.Equal(ids, rs.ids) && slices.Equal(masks, rs.masks) {
		return rs.last
	}
	rs.last = rs.build(epoch, ids, masks, view)
	rs.epoch, rs.view = epoch, view
	rs.ids = append(rs.ids[:0], ids...)
	rs.masks = append(rs.masks[:0], masks...)
	return rs.last
}

// build is BuildRosterFabric over a dense database. Routability depends
// only on the two masks, and a fabric has few distinct ones, so nodes
// are reduced to mask classes and every question about a pair of
// classes is one pathTable cell: the cost is one switchPath per
// distinct ordered pair met, and O(n²) cell reads for the insertion
// scan. Only the result is allocated: the Roster, one array holding
// Nodes and each distinct hop path once, and Paths.
func (rs *Rounds) build(epoch uint32, ids []int, masks []LinkState, view phys.FabricView) *Roster {
	if len(ids) == 0 {
		return &Roster{Epoch: epoch}
	}
	t := &rs.t
	t.view = view
	t.masks, t.store = t.masks[:0], t.store[:0]
	cls := emptied(rs.cls, len(ids))[:len(ids)]
	var classOf [256]uint8 // mask → class + 1
	for i, m := range masks {
		if classOf[m] == 0 {
			t.masks = append(t.masks, m)
			classOf[m] = uint8(len(t.masks))
		}
		cls[i] = classOf[m] - 1
	}
	k := len(t.masks)
	t.cells = emptied(t.cells, k*k)[:k*k]
	clear(t.cells)

	// ring and rcls grow together: the cycle's node ids and their classes.
	ring := append(emptied(rs.ring, len(ids)), ids[0])
	rcls := append(emptied(rs.rcls, len(ids)), cls[0])
	pending := emptied(rs.pending, len(ids)-1)
	for i := 1; i < len(ids); i++ {
		pending = append(pending, int32(i))
	}
	rs.cls, rs.pending = cls, pending
	for progress := true; progress && len(pending) > 0; {
		progress = false
		left := pending[:0]
		for _, c := range pending {
			if pos := t.feasiblePos(rcls, cls[c]); pos >= 0 {
				ring = slices.Insert(ring, pos+1, ids[c])
				rcls = slices.Insert(rcls, pos+1, cls[c])
				progress = true
			} else {
				left = append(left, c)
			}
		}
		pending = left
	}
	rs.ring, rs.rcls = ring, rcls
	if view.CounterRotating && len(ring) >= 3 && t.lowestLiveSwitch(rcls)%2 == 1 {
		slices.Reverse(ring[1:])
		slices.Reverse(rcls[1:])
	}
	n := len(ring)
	if n < 2 {
		return &Roster{Epoch: epoch, Nodes: []int{ring[0]}}
	}
	// Size the one array: Nodes, then each distinct hop path, which its
	// cell's row will locate.
	size := n
	for i := range ring {
		c := t.cell(rcls[i], rcls[(i+1)%n])
		if c.n < 0 {
			// Cannot happen for rings built by feasiblePos, but keep
			// the invariant explicit.
			panic("rostering: ring edge without a switch path")
		}
		if c.row == 0 {
			c.row = -1
			size += int(c.n)
		}
	}
	buf := make([]int, size)
	r := &Roster{Epoch: epoch, Nodes: buf[:n:n], Paths: make([][]int, n)}
	copy(r.Nodes, ring)
	next := n
	for i := range ring {
		c := t.cell(rcls[i], rcls[(i+1)%n])
		if c.row < 0 {
			c.row = int32(next)
			next += copy(buf[next:], t.store[c.off:int(c.off)+int(c.n)])
		}
		end := int(c.row) + int(c.n)
		r.Paths[i] = buf[c.row:end:end]
	}
	return r
}

// emptied returns s with length 0 and room for n elements, reusing its
// array when that is big enough.
func emptied[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// pathTable memoises switchPath for one build: cells[a*k+b] answers the
// hop from mask class a to mask class b, filled the first time it is
// asked. Paths live back to back in store.
type pathTable struct {
	view  phys.FabricView
	masks []LinkState // class → mask
	cells []pathCell
	store []int
}

// pathCell is one memoised answer: n == 0 not asked yet, n < 0
// unroutable, otherwise the path is store[off : off+n]. row is where
// the built roster holds the path (0 not placed, -1 being placed).
type pathCell struct {
	off, row int32
	n        int8
}

// cell returns the answer for a hop from class a to class b, asking
// switchPath the first time.
func (t *pathTable) cell(a, b uint8) *pathCell {
	c := &t.cells[int(a)*len(t.masks)+int(b)]
	if c.n == 0 {
		c.off = int32(len(t.store))
		t.store = appendSwitchPath(t.store, t.masks[a], t.masks[b], &t.view)
		if c.n = int8(len(t.store) - int(c.off)); c.n == 0 {
			c.n = -1
		}
	}
	return c
}

// routable reports whether a hop from class a to class b can be routed.
func (t *pathTable) routable(a, b uint8) bool { return t.cell(a, b).n > 0 }

// feasiblePos returns an index i such that a candidate of class c can
// be inserted between ring[i] and ring[i+1] (both new edges must be
// routable), or -1.
func (t *pathTable) feasiblePos(rcls []uint8, c uint8) int {
	if len(rcls) == 1 {
		if t.routable(rcls[0], c) {
			return 0
		}
		return -1
	}
	for i, a := range rcls {
		if t.routable(a, c) && t.routable(c, rcls[(i+1)%len(rcls)]) {
			return i
		}
	}
	return -1
}

// lowestLiveSwitch returns the lowest switch index live for any ring
// member, or -1 when none is.
func (t *pathTable) lowestLiveSwitch(rcls []uint8) int {
	var union LinkState
	for _, c := range rcls {
		union |= t.masks[c]
	}
	return union.lowest()
}

// appendSwitchPath appends the deterministic switch path of a hop
// between masks a and b: the lowest shared live switch when one exists
// (a single-element path — the trunkless behavior), otherwise the
// breadth-first shortest live-trunk path from the lowest feasible
// switch of a to a switch live for b. Nothing appended means the hop is
// unroutable. A view has at most phys.MaxSwitches switches (one mask
// bit each), which is what sizes the search state; the zero view has
// none, so only a shared switch routes.
func appendSwitchPath(dst []int, a, b LinkState, view *phys.FabricView) []int {
	if s := (a & b).lowest(); s >= 0 {
		return append(dst, s)
	}
	n := view.Switches
	var parent, queue [phys.MaxSwitches]int8
	var seen LinkState
	head, tail := 0, 0
	for s := 0; s < n; s++ {
		if a.Has(s) {
			seen |= 1 << s
			parent[s] = -1
			queue[tail] = int8(s)
			tail++
		}
	}
	for head < tail {
		cur := int(queue[head])
		head++
		for next := 0; next < n; next++ {
			if seen.Has(next) || !view.Joined(cur, next) {
				continue
			}
			seen |= 1 << next
			parent[next] = int8(cur)
			if b.Has(next) {
				hops := 0
				for s := next; s >= 0; s = int(parent[s]) {
					hops++
				}
				var room [phys.MaxSwitches]int
				dst = append(dst, room[:hops]...)
				for s, i := next, len(dst)-1; s >= 0; s, i = int(parent[s]), i-1 {
					dst[i] = s
				}
				return dst
			}
			queue[tail] = int8(next)
			tail++
		}
	}
	return dst
}

// ValidInFabric checks the roster against a link-state database and a
// fabric view: each hop's path must start at a switch live for the
// source, end at one live for the destination, and cross only live
// trunks in between. A nil view is a trunkless fabric.
func (r *Roster) ValidInFabric(lsdb map[int]LinkState, view *phys.FabricView) bool {
	if len(r.Nodes) < 2 {
		return true
	}
	if len(r.Paths) != len(r.Nodes) {
		return false
	}
	for i, a := range r.Nodes {
		b := r.Nodes[(i+1)%len(r.Nodes)]
		path := r.Paths[i]
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
func EstimateTour(n int, fiberM float64) sim.Time {
	if n < 1 {
		n = 1
	}
	hop := phys.SerTime(24+phys.DefaultIFG) + 2*phys.PropTime(fiberM) +
		phys.DefaultSwitchLatency + 40*sim.Nanosecond
	return sim.Time(n) * hop
}
