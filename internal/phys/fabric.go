package phys

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// MaxSwitches bounds the switch count of any fabric: the rostering
// link-state masks carry one bit per switch in a single byte of the
// announcement payload (see rostering.LinkState).
const MaxSwitches = 8

// MaxNodes bounds the node count of any fabric: the widest registered
// wire format (v2) carries uint16 node addresses with the all-ones
// value reserved for broadcast. The effective ceiling of a given
// fabric is per wire-format version — a v1 fabric still tops out at
// 255 nodes (one address byte) — and Topology.Validate enforces the
// resolved version's limit, so ids can never alias on the wire.
const MaxNodes = 65535

// MaxFiberM bounds the fiber length of any link: PropTime of every
// shorter fiber fits in sim.Time.
const MaxFiberM = math.MaxInt64 / NsPerMeter

// CheckFiberM refuses a fiber length no link can have — negative, NaN,
// or not shorter than MaxFiberM — naming field; nil for a valid one.
func CheckFiberM(field string, meters float64) error {
	if meters < 0 {
		return fmt.Errorf("negative %s %v", field, meters)
	}
	if !(meters < MaxFiberM) {
		return fmt.Errorf("out-of-range %s %v (fibers are shorter than %g m)", field, meters, MaxFiberM)
	}
	return nil
}

// Topology declaratively describes a fabric: which switches exist, which
// node attaches to which switch, and which switches are joined by
// inter-switch trunks. The zero Attached function means "every node to
// every switch" — the paper's uniform redundant segment (slide 14). The
// named constructors (Uniform, DualRing, Mesh, Sharded) build the
// shapes the experiments sweep; hand-rolled topologies are just literal
// values of this struct.
type Topology struct {
	// Name labels the fabric in reports ("uniform", "dualring", ...).
	Name string
	// Nodes and Switches size the fabric.
	Nodes    int
	Switches int
	// FiberM is the default per-link fiber length in meters.
	FiberM float64
	// Attached reports whether node n has a port to switch s. nil
	// attaches every node to every switch.
	Attached func(n, s int) bool
	// Trunks are switch-to-switch fibers. A ring hop may cross any
	// number of live trunks, so traffic survives the loss of a shared
	// switch as long as some trunk path connects the endpoints.
	Trunks []TrunkSpec
	// CounterRotating marks dual-ring fabrics whose backup ring runs in
	// the opposite rotation: when the lowest live switch has an odd
	// index, the roster is built in reversed node order.
	CounterRotating bool
	// Wire selects the MicroPacket wire-format version the fabric runs
	// (see internal/wire). The zero value is "auto": the smallest
	// version whose address space fits Nodes — v1 (the byte-exact
	// historical format) up to 255 nodes, v2 beyond. An explicit
	// version is validated against its own ceiling, so a v1 fabric
	// still rejects >255 nodes.
	Wire wire.Version
}

// TrunkSpec declares one inter-switch trunk. FiberM of 0 inherits the
// topology's default fiber length.
type TrunkSpec struct {
	A, B   int
	FiberM float64
}

// Validate checks the topology for structural sanity: positive sizes,
// fiber lengths in [0, MaxFiberM), the switch-mask limit, trunk
// endpoints in range, and every node attached to at least one switch.
func (t *Topology) Validate() error {
	if t.Nodes <= 0 || t.Switches <= 0 {
		return fmt.Errorf("phys: topology %q needs at least one node and one switch", t.Name)
	}
	if err := CheckFiberM("Topology.FiberM", t.FiberM); err != nil {
		return fmt.Errorf("phys: topology %q has %w", t.Name, err)
	}
	if err := checkSize(t.Name, t.Nodes, t.Switches); err != nil {
		return err
	}
	if t.Wire != 0 && !t.Wire.Valid() {
		return fmt.Errorf("phys: topology %q names unknown wire-format version %d", t.Name, t.Wire)
	}
	if v := t.WireVersion(); t.Nodes > v.MaxNodes() {
		return fmt.Errorf("phys: topology %q has %d nodes; wire format %v addresses at most %d (use wire %v or auto)",
			t.Name, t.Nodes, v, v.MaxNodes(), wire.V2)
	}
	for i, tr := range t.Trunks {
		if tr.A < 0 || tr.A >= t.Switches || tr.B < 0 || tr.B >= t.Switches {
			return fmt.Errorf("phys: topology %q trunk %d endpoints (%d,%d) out of range [0,%d)",
				t.Name, i, tr.A, tr.B, t.Switches)
		}
		if tr.A == tr.B {
			return fmt.Errorf("phys: topology %q trunk %d is a self-loop on switch %d", t.Name, i, tr.A)
		}
		if err := CheckFiberM("TrunkSpec.FiberM", tr.FiberM); err != nil {
			return fmt.Errorf("phys: topology %q trunk %d has %w", t.Name, i, err)
		}
	}
	for n := 0; n < t.Nodes; n++ {
		attached := false
		for s := 0; s < t.Switches && !attached; s++ {
			attached = t.IsAttached(n, s)
		}
		if !attached {
			return fmt.Errorf("phys: topology %q leaves node %d with no switch attachment", t.Name, n)
		}
	}
	return nil
}

// checkSize refuses more switches than the rostering link-state mask
// holds, or more nodes than the widest wire format addresses.
func checkSize(name string, nodes, switches int) error {
	if switches > MaxSwitches {
		return fmt.Errorf("phys: topology %q has %d switches; the rostering link-state mask allows at most %d",
			name, switches, MaxSwitches)
	}
	if nodes > MaxNodes {
		return fmt.Errorf("phys: topology %q has %d nodes; the widest wire format (%v) addresses at most %d",
			name, nodes, wire.V2, MaxNodes)
	}
	return nil
}

// WireVersion resolves the fabric's wire-format version: the declared
// Wire, or — for the zero "auto" value — the smallest registered
// version whose address space fits Nodes. Existing ≤255-node fabrics
// therefore keep running the byte-exact v1 format unless they opt into
// v2 explicitly.
func (t *Topology) WireVersion() wire.Version {
	if t.Wire != 0 {
		return t.Wire
	}
	if t.Nodes <= wire.V1.MaxNodes() {
		return wire.V1
	}
	return wire.V2
}

// IsAttached reports whether node n has a port to switch s.
func (t *Topology) IsAttached(n, s int) bool {
	if t.Attached == nil {
		return true
	}
	return t.Attached(n, s)
}

// TrunkFiberM returns the fiber length of trunk i: its own, or the
// topology's default where the spec leaves it zero.
func (t *Topology) TrunkFiberM(i int) float64 {
	if m := t.Trunks[i].FiberM; m != 0 {
		return m
	}
	return t.FiberM
}

// Uniform is the paper's redundant segment (slide 14): every node has
// one port to every switch, no trunks. With 2 switches the segment is
// dual-redundant; with 4, quad-redundant.
func Uniform(nodes, switches int, fiberM float64) Topology {
	return Topology{Name: "uniform", Nodes: nodes, Switches: switches, FiberM: fiberM}
}

// DualRing is a pair of counter-rotating rings: two switches, every
// node on both, joined by one trunk. In normal operation the logical
// ring rotates over switch 0; when switch 0 (or a node's link to it)
// dies, the ring re-forms over switch 1 in the opposite rotation, and
// hops whose endpoints no longer share a live switch heal across the
// trunk.
func DualRing(nodes int, fiberM float64) Topology {
	return Topology{
		Name: "dualring", Nodes: nodes, Switches: 2, FiberM: fiberM,
		Trunks:          []TrunkSpec{{A: 0, B: 1}},
		CounterRotating: true,
	}
}

// Mesh is an N-switch fabric with dual-homed nodes: node n attaches to
// switches n%S and (n+1)%S, and every switch pair is joined by a trunk.
// No single switch sees every node, so ring hops routinely cross
// trunks, and losing any one switch or trunk leaves a healing path.
func Mesh(nodes, switches int, fiberM float64) Topology {
	s := switches
	var trunks []TrunkSpec
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			trunks = append(trunks, TrunkSpec{A: i, B: j})
		}
	}
	return Topology{
		Name: "mesh", Nodes: nodes, Switches: switches, FiberM: fiberM,
		Attached: func(n, sw int) bool { return sw == n%s || sw == (n+1)%s },
		Trunks:   trunks,
	}
}

// Sharded is a multi-ring cluster: shards of nodesPerShard nodes, each
// shard with its own switchesPerShard switches, adjacent shards joined
// by trunks (one per switch pair, pairing switch j of one shard with
// switch j of the next). Nodes attach only to their shard's switches;
// the cluster-wide logical ring exists only because rostering heals
// hops across the inter-shard trunks.
func Sharded(shards, nodesPerShard, switchesPerShard int, fiberM float64) Topology {
	sps := switchesPerShard
	var trunks []TrunkSpec
	for k := 0; k < shards; k++ {
		next := (k + 1) % shards
		if shards == 2 && k == 1 {
			break // both adjacencies are the same shard pair
		}
		if shards == 1 {
			break
		}
		for j := 0; j < sps; j++ {
			trunks = append(trunks, TrunkSpec{A: k*sps + j, B: next*sps + j})
		}
	}
	return Topology{
		Name: "sharded", Nodes: shards * nodesPerShard, Switches: shards * sps, FiberM: fiberM,
		Attached: func(n, sw int) bool { return sw/sps == n/nodesPerShard },
		Trunks:   trunks,
	}
}

// FabricByName builds one of the named fabric shapes from a node and
// switch budget — the -fabric flag of cmd/ampsim and the E13 sweep
// axis. The budget must be realizable exactly: a shape never silently
// drops or resizes what was asked for (a 9-node sharded request is an
// error, not an 8-node cluster). The returned topology is validated,
// so callers can hand it straight to a cluster builder.
//
// "sharded" takes an optional group count parameter, "sharded:4"; the
// bare name keeps its historical meaning of two groups.
func FabricByName(name string, nodes, switches int, fiberM float64) (Topology, error) {
	var t Topology
	base, param, hasParam := strings.Cut(name, ":")
	// Refuse an oversize budget before a constructor sizes anything by
	// it: Mesh alone builds S(S-1)/2 trunk specs.
	shapeSwitches := switches
	if base == "dualring" {
		shapeSwitches = 2
	}
	if err := checkSize(name, nodes, shapeSwitches); err != nil {
		return Topology{}, err
	}
	switch base {
	case "", "uniform":
		t = Uniform(nodes, switches, fiberM)
	case "dualring":
		// The shape fixes the switch count at 2; a node/fiber budget is
		// all it takes.
		t = DualRing(nodes, fiberM)
	case "mesh":
		if switches < 2 {
			return Topology{}, fmt.Errorf("phys: mesh fabric needs at least 2 switches (got %d)", switches)
		}
		t = Mesh(nodes, switches, fiberM)
	case "sharded":
		shards := 2
		if hasParam {
			n, err := strconv.Atoi(param)
			if err != nil || n < 1 {
				return Topology{}, fmt.Errorf("phys: bad sharded group count %q (want sharded:N, N >= 1)", name)
			}
			shards = n
		}
		if switches < 1 || nodes%shards != 0 || switches%shards != 0 {
			return Topology{}, fmt.Errorf(
				"phys: sharded fabric splits nodes and switches across %d shards; %d nodes × %d switches does not divide evenly",
				shards, nodes, switches)
		}
		t = Sharded(shards, nodes/shards, switches/shards, fiberM)
		hasParam = false // the parameter is consumed, not an error
	default:
		return Topology{}, fmt.Errorf("phys: unknown fabric %q (want uniform, dualring, mesh or sharded[:N])", name)
	}
	if hasParam {
		return Topology{}, fmt.Errorf("phys: fabric %q takes no parameter", name)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}
