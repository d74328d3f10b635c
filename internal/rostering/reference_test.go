package rostering

import (
	"fmt"

	"repro/internal/detmap"
	"repro/internal/phys"
)

// The roster builder and renderer as they stood before the table-driven
// build (commit e60564d), kept verbatim as the reference FuzzBuildRoster
// and the Identical/String properties compare against: one BFS (or a
// one-element slice) per probe, string concatenation per hop.

func refBuildRosterFabric(epoch uint32, lsdb map[int]LinkState, view *phys.FabricView) *Roster {
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
			if pos := refFeasiblePos(ring, c, lsdb, view); pos >= 0 {
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
	if view != nil && view.CounterRotating && len(ring) >= 3 && refLowestLiveSwitch(ring, lsdb)%2 == 1 {
		for i, j := 1, len(ring)-1; i < j; i, j = i+1, j-1 {
			ring[i], ring[j] = ring[j], ring[i]
		}
	}
	r := &Roster{Epoch: epoch, Nodes: ring}
	if len(ring) >= 2 {
		r.Paths = make([][]int, len(ring))
		for i := range ring {
			a, b := ring[i], ring[(i+1)%len(ring)]
			path := refSwitchPath(lsdb[a], lsdb[b], view)
			if path == nil {
				panic("rostering: ring edge without a switch path")
			}
			r.Paths[i] = path
		}
	}
	return r
}

func refLowestLiveSwitch(ring []int, lsdb map[int]LinkState) int {
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

func refFeasiblePos(ring []int, c int, lsdb map[int]LinkState, view *phys.FabricView) int {
	if len(ring) == 1 {
		if refRoutable(lsdb[ring[0]], lsdb[c], view) {
			return 0
		}
		return -1
	}
	for i := range ring {
		a, b := ring[i], ring[(i+1)%len(ring)]
		if refRoutable(lsdb[a], lsdb[c], view) && refRoutable(lsdb[c], lsdb[b], view) {
			return i
		}
	}
	return -1
}

func refRoutable(a, b LinkState, view *phys.FabricView) bool {
	return refSwitchPath(a, b, view) != nil
}

func refCommon(a, b LinkState) int {
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

func refSwitchPath(a, b LinkState, view *phys.FabricView) []int {
	if s := refCommon(a, b); s >= 0 {
		return []int{s}
	}
	if view == nil {
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
			if seen[next] || !view.Joined(cur, next) {
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

func refString(r *Roster) string {
	if len(r.Nodes) == 0 {
		return "<empty roster>"
	}
	s := fmt.Sprintf("epoch %d: ", r.Epoch)
	for i, n := range r.Nodes {
		if len(r.Paths) > 0 {
			s += fmt.Sprintf("%d -s", n)
			for j, sw := range r.Paths[i] {
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
