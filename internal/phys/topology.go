package phys

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Cluster is a built fabric: the paper's redundant switched topology
// (slides 14–15) generalized to declarative Topology shapes. Every node
// has one port per switch it attaches to; switches may additionally be
// joined by inter-switch trunks that ring hops can cross when the
// endpoints no longer share a live switch.
type Cluster struct {
	Topo Topology

	Switches []*Switch
	// NodePorts[n][s] is node n's port facing switch s, nil where the
	// topology does not attach n to s.
	NodePorts [][]*Port
	// NodeLinks[n][s] is the fiber between node n and switch s, nil
	// where unattached.
	NodeLinks [][]*Link
	// Trunks are the built inter-switch trunks, in TrunkSpec order.
	Trunks []*Trunk

	// Assign is the shard assignment (with one shard: everything on
	// shard 0, nothing cut). RouteSink, set by the engine,
	// receives crossbar programming aimed at a switch owned by another
	// shard together with the virtual instant the write lands (see
	// Program); the engine carries it across the next window barrier
	// and schedules it on the owning shard's kernel at exactly that
	// instant.
	Assign    *Assignment
	RouteSink func(srcShard int, at sim.Time, op RouteOp)
}

// RouteOp is one crossbar write as a plain record: which switch, which
// ingress, which egress, and — for trunk forwarding — which virtual
// circuit — the form a barrier-deferred write is queued in.
type RouteOp struct {
	Switch int
	In     int
	Out    int // < 0 clears the entry
	VC     uint16
	IsVC   bool
}

// Apply performs the write against the built fabric.
func (op RouteOp) Apply(c *Cluster) {
	sw := c.Switches[op.Switch]
	if op.IsVC {
		sw.SetVCRoute(op.In, op.VC, op.Out)
		return
	}
	sw.SetRoute(op.In, op.Out)
}

// Trunk is one built switch-to-switch fiber.
type Trunk struct {
	Index int
	A, B  int // switch ids
	// PortA and PortB are the port indices of the trunk's ends on
	// switches A and B (trunk ports follow the node-facing ports).
	PortA, PortB int
	Link         *Link
}

// BuildCluster wires the uniform nodes × switches fabric (every node to
// every switch) with fiberM meters of fiber per link — the paper's
// slide-14 segment and the historical constructor.
func BuildCluster(net *Net, nodes, switches int, fiberM float64) *Cluster {
	c, err := BuildFabric(net, Uniform(nodes, switches, fiberM))
	if err != nil { // a uniform topology with positive sizes never fails
		panic(err)
	}
	return c
}

// BuildFabric builds a declarative Topology on one Net: switches, node
// ports and links for every attachment, and trunk ports and fibers for
// every TrunkSpec. Node-side handlers are attached afterwards by the
// MAC layer. It is exactly the one-shard case of BuildFabricSharded —
// a single builder, so one-shard and sharded fabrics cannot drift.
func BuildFabric(net *Net, topo Topology) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	assign, err := AssignShards(&topo, 1)
	if err != nil {
		return nil, err
	}
	return BuildFabricSharded([]*Net{net}, topo, assign)
}

// BuildFabricSharded builds topo with its components spread over the
// Nets of assign's shards: every switch, its ports and its trunk ends
// live on the owning shard's Net; a node's ports live on the node's
// shard. A link whose endpoints land on different shards is a split
// link — it is driven through the Nets' RemoteExchange and may only
// change state at window barriers. Node-side handlers are attached
// afterwards by the MAC layer, exactly as with BuildFabric.
func BuildFabricSharded(nets []*Net, topo Topology, assign *Assignment) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if len(nets) != assign.Shards {
		return nil, fmt.Errorf("phys: %d Nets for %d shards", len(nets), assign.Shards)
	}
	for i, n := range nets {
		n.Shard = i
		// Every shard speaks the fabric's wire-format version: frame
		// sizes (and so serialization times) must agree across shards.
		n.Wire = topo.WireVersion()
	}
	c := &Cluster{Topo: topo, Assign: assign}
	for s := 0; s < topo.Switches; s++ {
		c.Switches = append(c.Switches, nets[assign.SwitchShard[s]].NewSwitch(fmt.Sprintf("sw%d", s), topo.Nodes))
	}
	c.NodePorts = make([][]*Port, topo.Nodes)
	c.NodeLinks = make([][]*Link, topo.Nodes)
	for n := 0; n < topo.Nodes; n++ {
		c.NodePorts[n] = make([]*Port, topo.Switches)
		c.NodeLinks[n] = make([]*Link, topo.Switches)
		nodeNet := nets[assign.NodeShard[n]]
		for s := 0; s < topo.Switches; s++ {
			if !topo.IsAttached(n, s) {
				continue
			}
			p := nodeNet.NewPort(fmt.Sprintf("n%d.s%d", n, s), nil)
			c.NodePorts[n][s] = p
			c.NodeLinks[n][s] = nodeNet.Connect(p, c.Switches[s].Port(n), topo.FiberM)
		}
	}
	for i, spec := range topo.Trunks {
		t := &Trunk{Index: i, A: spec.A, B: spec.B}
		var pa, pb *Port
		pa, t.PortA = c.Switches[spec.A].addTrunkPort(fmt.Sprintf("t%d", i))
		pb, t.PortB = c.Switches[spec.B].addTrunkPort(fmt.Sprintf("t%d", i))
		t.Link = pa.net.Connect(pa, pb, topo.TrunkFiberM(i))
		c.Trunks = append(c.Trunks, t)
	}
	var ports []*Port
	for _, sw := range c.Switches {
		for _, p := range sw.ports {
			if p != nil {
				ports = append(ports, p)
			}
		}
	}
	for _, np := range c.NodePorts {
		for _, p := range np {
			if p != nil {
				ports = append(ports, p)
			}
		}
	}
	resolveUIDs(ports)
	return c, nil
}

// resolveUIDs makes the wire-order identities of a fabric's ports
// non-zero and distinct. Same-instant events are ordered by
// (transmit start, uid) on every engine — frame arrivals, and the
// question whether a lazy transmit completion has passed — and only
// fall through to the kernel's scheduling sequence, which depends on
// build order and therefore on the shard count, when two uids are
// equal. The 32-bit name hash has no collision among the builder's
// names up to 4 096 nodes × 8 switches, but 278 pairs at wire v2's
// 65 535-node ceiling. Of a colliding group the first port by name keeps
// the hash; the others (and a port hashing to the plain events' 0) are
// re-hashed with a salt until free — a function of the set of names
// alone, so every engine resolves alike.
func resolveUIDs(ports []*Port) {
	slices.SortFunc(ports, func(a, b *Port) int {
		if c := cmp.Compare(a.uid, b.uid); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	var used map[uint32]bool
	var prev uint32 // the hash of the port before, 0 before the first
	for _, p := range ports {
		hash := p.uid
		if hash == prev { // zero, or the same as an earlier name's
			if used == nil {
				used = make(map[uint32]bool, len(ports))
				for _, q := range ports {
					used[q.uid] = true
				}
			}
			for salt := 1; p.uid == 0 || used[p.uid]; salt++ {
				p.uid = nameHash(p.Name + "#" + strconv.Itoa(salt))
			}
			used[p.uid] = true
		}
		prev = hash
	}
}

// ShardOfNode returns the shard owning node n.
func (c *Cluster) ShardOfNode(n int) int { return c.Assign.NodeShard[n] }

// Program applies a crossbar write aimed at op.Switch on behalf of
// shard srcShard, landing at virtual time at: a switch of the writer's
// own shard (with one shard, every switch) takes it through Land; a
// remote switch's write goes to the engine, which carries it across the
// next window barrier and lands it there.
//
// The write propagates to the switch like a circuit-setup cell and
// lands at exactly at on every engine. Rostering issues its
// trunk-crossing VC writes with at = now + the fiber flight along the
// hop's path, which buys two guarantees at once. A node's own frames
// pay the same flight plus serialization and per-switch cut-through
// latency, so they can never outrun their setup cell; and a frame
// already in flight when the write is issued keeps the stale route —
// in serial and sharded runs alike. (Deferring such a write to the
// barrier instead is NOT invisible: a frame launched before the write
// can be received mid-window, see the stale table, and die at a port a
// one-shard run's immediate write would have steered it away from.)
// The timestamp is always honorable on the sharded engine because a
// remote write's path crosses a cut fiber, so the accumulated flight
// is at least one lookahead window.
func (c *Cluster) Program(srcShard int, at sim.Time, op RouteOp) {
	if c.Assign.SwitchShard[op.Switch] == srcShard || c.RouteSink == nil {
		c.Land(at, op)
		return
	}
	c.RouteSink(srcShard, at, op)
}

// Land makes the write on the kernel that owns op.Switch: now if at is
// not in that kernel's future, otherwise at exactly at, ahead of any
// model event of that instant (priority -1). Call it from the owning
// shard's context or with every shard parked.
func (c *Cluster) Land(at sim.Time, op RouteOp) {
	k := c.Switches[op.Switch].net.K
	if at <= k.Now() {
		op.Apply(c)
		return
	}
	k.DoPri(at, -1, 0, sim.Func(func() { op.Apply(c) }))
}

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.NodePorts) }

// NumSwitches returns the switch count.
func (c *Cluster) NumSwitches() int { return len(c.Switches) }

// NumTrunks returns the trunk count.
func (c *Cluster) NumTrunks() int { return len(c.Trunks) }

// HasLink reports whether the topology attaches node n to switch s.
func (c *Cluster) HasLink(n, s int) bool { return c.NodeLinks[n][s] != nil }

// FailNode takes all of node n's links dark (models node death as seen
// by the fabric).
func (c *Cluster) FailNode(n int) {
	for _, l := range c.NodeLinks[n] {
		if l != nil {
			l.Fail()
		}
	}
}

// RestoreNode re-lights node n's links.
func (c *Cluster) RestoreNode(n int) {
	for _, l := range c.NodeLinks[n] {
		if l != nil {
			l.Restore()
		}
	}
}

// FailTrunk cuts trunk t; RestoreTrunk re-splices it.
func (c *Cluster) FailTrunk(t int)    { c.Trunks[t].Link.Fail() }
func (c *Cluster) RestoreTrunk(t int) { c.Trunks[t].Link.Restore() }

// TrunkUp reports whether trunk t carries light.
func (c *Cluster) TrunkUp(t int) bool { return c.Trunks[t].Link.Up() }

// WatchTrunks registers a callback for trunk status changes (fired
// after the PHY detection latency, like port status). The rostering
// agents use it to start a healing round when a trunk dies or returns.
// k is the kernel the callback must run on — the watcher's shard kernel
// in a sharded fabric; every shard senses the change at the same
// virtual instant, mirroring the hardware's loss-of-light detection.
// fn learns that some trunk changed, not which: a healing round reads
// the whole fabric (View).
func (c *Cluster) WatchTrunks(k *sim.Kernel, fn func()) {
	for _, t := range c.Trunks {
		t.Link.Watch(k, fn)
	}
}

// LiveSwitchesBetween returns the switch indices that still have live
// links to both node a and node b — the candidate single-switch hops
// for a logical ring edge a→b.
func (c *Cluster) LiveSwitchesBetween(a, b int) []int {
	var out []int
	for s := range c.Switches {
		if c.Switches[s].Failed() {
			continue
		}
		if c.NodeLinks[a][s] != nil && c.NodeLinks[a][s].Up() &&
			c.NodeLinks[b][s] != nil && c.NodeLinks[b][s].Up() {
			out = append(out, s)
		}
	}
	return out
}

// TrunkBetween returns the lowest-index live trunk joining switches a
// and b, or nil. Every node picks the same trunk for the same hop, so
// the crossbar programming of a roster is consistent without
// coordination.
func (c *Cluster) TrunkBetween(a, b int) *Trunk {
	for _, t := range c.Trunks {
		if ((t.A == a && t.B == b) || (t.A == b && t.B == a)) && t.Link.Up() {
			return t
		}
	}
	return nil
}

// FabricView captures the switch-layer connectivity the rostering
// algorithm routes over: which switch pairs are joined by a live trunk,
// and whether the fabric's rings counter-rotate. Node-to-switch
// liveness travels separately, in the flooded link-state masks. A view
// is a value: taking one allocates nothing, and two views of the same
// fabric state compare equal with ==. The zero view is a trunkless
// fabric.
type FabricView struct {
	Switches int
	// Trunks is the live-trunk bit matrix: Trunks[a] holds the switches
	// a shares a live trunk with (symmetric). Read it through Joined.
	Trunks          [MaxSwitches]SwitchSet
	CounterRotating bool
}

// SwitchSet is a set of switch indices, one bit each.
type SwitchSet uint8

// Has reports whether switch s is in the set.
func (m SwitchSet) Has(s int) bool { return m&(1<<s) != 0 }

// add puts switch s in the set.
func (m *SwitchSet) add(s int) { *m |= 1 << s }

// View snapshots the cluster's current fabric view.
func (c *Cluster) View() FabricView {
	v := FabricView{Switches: len(c.Switches), CounterRotating: c.Topo.CounterRotating}
	for _, t := range c.Trunks {
		if t.Link.Up() && !c.Switches[t.A].Failed() && !c.Switches[t.B].Failed() {
			v.Join(t.A, t.B)
		}
	}
	return v
}

// Join marks switches a and b as joined by a live trunk.
func (v *FabricView) Join(a, b int) {
	v.Trunks[a].add(b)
	v.Trunks[b].add(a)
}

// Joined reports whether switches a and b are joined by a live trunk.
func (v *FabricView) Joined(a, b int) bool { return v.Trunks[a].Has(b) }
