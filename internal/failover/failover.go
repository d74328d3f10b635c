// Package failover implements AmpNet's application failover (paper,
// slides 12, 18, 19): network-centric services organized in control
// groups, with millisecond failure detection, an application-definable
// fail-over period, handoff of control to the best qualified computer,
// and application rules of recovery — with no loss of committed data,
// because application state lives in the replicated network cache.
//
//	"Millisecond application failure detection. Application definable
//	 fail-over period. Control passes to the best qualified computer.
//	 Applies Application Rules of Recovery. No down time and no loss
//	 of data!" (slide 19)
//
// Election is deterministic and coordination-free: every member ranks
// the live members the same way (qualification rank, then lowest id),
// so each node can decide locally whether it is now primary. The
// fail-over period is an application-chosen delay between the kernel's
// liveness verdict and the takeover, allowing the application to trade
// fail-over speed against tolerance of transient stalls.
package failover

import (
	"sort"

	"repro/internal/ampdk"
	"repro/internal/detmap"
	"repro/internal/netcache"
	"repro/internal/sim"
)

// GroupConfig declares one control group.
type GroupConfig struct {
	ID      uint8
	Members []int
	// Rank maps member id → qualification; higher is better qualified.
	// Missing entries rank 0. Ties break to the lowest id.
	Rank map[int]int
	// Period is the application-definable fail-over period: how long
	// after the kernel declares the primary dead before control moves.
	Period sim.Time
	// State is the group's checkpoint cell in the network cache (zero
	// value = stateless group). The double buffer guarantees the last
	// committed checkpoint survives a primary that dies mid-write.
	State netcache.DoubleBuffer
}

// HasState reports whether the group checkpoints application state.
func (c *GroupConfig) HasState() bool { return c.State.A.Size > 0 }

// Group is the runtime state of a control group on one node.
type Group struct {
	Cfg     GroupConfig
	primary int
	mgr     *Manager

	// OnTakeover runs on the node that becomes primary; it receives
	// the group's recovered state (nil without a state record) — the
	// application's rules of recovery.
	OnTakeover func(state []byte)
	// OnPrimaryChange runs on every member when the primary moves.
	OnPrimaryChange func(newPrimary int)

	// Takeovers counts how many times this node assumed control.
	Takeovers uint64
	pending   *sim.Timer
}

// Primary returns the group's current primary as this node sees it.
func (g *Group) Primary() int { return g.primary }

// IsPrimary reports whether this node currently holds control.
func (g *Group) IsPrimary() bool { return g.primary == g.mgr.Node.Cfg.ID }

// Manager runs control groups on one node, driven by the kernel's
// heartbeat liveness.
type Manager struct {
	Node   *ampdk.Node
	K      *sim.Kernel
	groups map[uint8]*Group

	// Detections records failure-detection latencies observed locally
	// (kernel verdict time minus nothing app-visible; used by E10 via
	// instrumentation hooks).
	prevDown func(int)
	prevUp   func(int)
}

// NewManager wraps a node. It chains onto the node's peer callbacks,
// preserving any already installed.
func NewManager(n *ampdk.Node) *Manager {
	m := &Manager{Node: n, K: n.K, groups: map[uint8]*Group{}}
	m.prevDown, m.prevUp = n.OnPeerDown, n.OnPeerUp
	n.OnPeerDown = func(id int) {
		if m.prevDown != nil {
			m.prevDown(id)
		}
		m.peerDown(id)
	}
	n.OnPeerUp = func(id int) {
		if m.prevUp != nil {
			m.prevUp(id)
		}
		m.peerUp(id)
	}
	n.RegisterAbort(m.Abort)
	return m
}

// Abort cancels every pending election: a node that stopped decides
// nothing. NewManager registers it with the node, whose halt calls it.
func (m *Manager) Abort() {
	for _, gid := range detmap.SortedKeys(m.groups) {
		m.groups[gid].pending.Cancel()
	}
}

// AddGroup registers a control group. The initial primary is the best
// qualified member regardless of liveness (boot convergence happens as
// heartbeats arrive).
func (m *Manager) AddGroup(cfg GroupConfig) *Group {
	g := &Group{Cfg: cfg, mgr: m}
	g.primary = m.bestQualified(g, nil)
	m.groups[cfg.ID] = g
	return g
}

// Group returns a registered group.
func (m *Manager) Group(id uint8) *Group { return m.groups[id] }

// live reports whether member id is believed alive by this node.
func (m *Manager) live(id int, deadOverride map[int]bool) bool {
	if deadOverride[id] {
		return false
	}
	if id == m.Node.Cfg.ID {
		return m.Node.Online()
	}
	for _, p := range m.Node.Peers() {
		if p.ID == id {
			return p.Online
		}
	}
	return false
}

// bestQualified returns the highest-ranked member. With liveness
// unknown at boot (no peers yet), it falls back to rank order over all
// members so that every node starts with the same answer.
func (m *Manager) bestQualified(g *Group, deadOverride map[int]bool) int {
	members := append([]int{}, g.Cfg.Members...)
	sort.Ints(members)
	best, bestRank := -1, -1
	anyLive := false
	for _, id := range members {
		if m.live(id, deadOverride) {
			anyLive = true
			break
		}
	}
	for _, id := range members {
		if anyLive && !m.live(id, deadOverride) {
			continue
		}
		r := g.Cfg.Rank[id]
		if r > bestRank {
			best, bestRank = id, r
		}
	}
	return best
}

// peerDown handles a kernel liveness verdict against a peer.
func (m *Manager) peerDown(id int) {
	// Sorted so fail-over timers are scheduled in group-id order: the
	// elections they trigger mutate shared roster state, and map order
	// here would reorder kernel events between runs.
	for _, gid := range detmap.SortedKeys(m.groups) {
		g := m.groups[gid]
		if g.primary != id {
			continue
		}
		deadID := id
		if g.pending != nil {
			g.pending.Cancel()
		}
		// Application-definable fail-over period: wait, then confirm
		// the primary is still dead before moving control.
		g.pending = m.K.After(g.Cfg.Period, func() {
			if m.live(deadID, nil) {
				return // it came back within the period
			}
			m.elect(g, map[int]bool{deadID: true})
		})
	}
}

// peerUp re-evaluates groups when a better-qualified member returns.
func (m *Manager) peerUp(id int) {
	for _, gid := range detmap.SortedKeys(m.groups) {
		if g := m.groups[gid]; g.primary < 0 {
			m.elect(g, nil)
		}
	}
}

// elect recomputes the primary and, if control arrives here, applies
// the application's rules of recovery with the replicated state.
func (m *Manager) elect(g *Group, dead map[int]bool) {
	newP := m.bestQualified(g, dead)
	if newP == g.primary {
		return
	}
	g.primary = newP
	if g.OnPrimaryChange != nil {
		g.OnPrimaryChange(newP)
	}
	if newP == m.Node.Cfg.ID {
		g.Takeovers++
		if g.OnTakeover != nil {
			var state []byte
			if g.Cfg.HasState() {
				// The state is already local — that is the network
				// cache's whole point. The double buffer returns the
				// last committed checkpoint even if the old primary
				// died mid-write.
				state, _, _ = g.Cfg.State.Read(m.Node.Cache)
			}
			g.OnTakeover(state)
		}
	}
}

// CheckpointState lets the current primary persist application state to
// the group's checkpoint cell (write-through, replicated everywhere).
func (g *Group) CheckpointState(data []byte) error {
	return g.Cfg.State.Write(g.mgr.Node.CacheW, data)
}

// ReadState returns the group's last committed checkpoint from the
// local replica.
func (g *Group) ReadState() (data []byte, version uint64, ok bool) {
	return g.Cfg.State.Read(g.mgr.Node.Cache)
}
