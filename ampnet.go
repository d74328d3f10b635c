// Package ampnet is a full reimplementation, as a deterministic
// simulation, of AmpNet — the highly available cluster interconnection
// network of Apon & Wilbur (IPPS/IPDPS 2003).
//
// AmpNet is a gigabit, Fibre-Channel-PHY ring network whose nodes are
// small computers: every node carries a replica of a network cache (so
// the cluster's data and management state survive any node's death), a
// register-insertion-ring MAC that guarantees zero congestion loss even
// under simultaneous all-to-all broadcast, and a hardware rostering
// algorithm that rebuilds the largest possible logical ring within
// about two ring-tour times of any failure. On top of that substrate
// sit network semaphores, pub/sub, file transfer, remote threads, an IP
// shim with MPI-style collectives, and application failover with
// control groups — "no down time and no loss of data".
//
// The public API is scenario-first: describe the cluster, a
// declarative fault Plan and a set of workload generators, and Run
// returns a deterministic machine-readable Report.
//
// Quick start:
//
//	rep, err := ampnet.Scenario{
//		Opts:  ampnet.Options{Nodes: 6, Switches: 4},
//		Plan:  ampnet.Plan{ampnet.FailSwitch(10*ampnet.Millisecond, 0)},
//		Loads: []ampnet.Load{&ampnet.PubSubLoad{Publisher: 0, Topic: 1}},
//		For:   30 * ampnet.Millisecond,
//	}.Run()
//	if err != nil { ... }
//	fmt.Print(rep.Summary()) // heal time, deliveries, gaps, drops
//
// Choosing a fabric: the default Options.Nodes/Options.Switches build
// the paper's uniform segment (every node wired to every switch).
// Options.Fabric selects richer shapes — DualRing for counter-rotating
// rings, Mesh for a trunked switch mesh where no switch sees every
// node, Sharded for multi-ring clusters joined by trunks — which
// unlock the FailTrunk/RestoreTrunk plan events and partition/re-merge
// scenarios:
//
//	topo := ampnet.Sharded(2, 4, 2, 50)
//	rep, err := ampnet.Scenario{
//		Opts: ampnet.Options{Fabric: &topo},
//		Plan: ampnet.Plan{ampnet.FailTrunk(5*ampnet.Millisecond, 0)},
//		...
//	}.Run()
//
// Options.Shards runs any scenario on that many parallel kernels with a
// byte-identical Report.
//
// For finer control, assemble a Cluster yourself and drive it through
// per-node handles, condition-based waits and installed plans:
//
//	c := ampnet.New(ampnet.Options{Nodes: 6, Switches: 4})
//	if err := c.Boot(0); err != nil { ... }
//	c.Node(5).Sub().Subscribe(1, func(src ampnet.NodeID, data []byte) { ... }) // data: valid until the callback returns; copy to keep
//	c.Node(0).Sub().Publish(1, []byte("hello ring"))
//	_ = c.Install(ampnet.Plan{ampnet.CrashNode(ampnet.Millisecond, 3)})
//	if err := c.WaitHealed(20 * ampnet.Millisecond); err != nil { ... }
//
// Everything — the PHY's 8b/10b symbols, MicroPacket framing, ring
// insertion, rostering floods, cache replication — runs on a virtual
// nanosecond clock (package internal/sim), so results are exactly
// reproducible and failure timing claims can be measured precisely.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every quantitative claim in the paper.
package ampnet

import (
	"repro/internal/ampdc"
	"repro/internal/ampdk"
	"repro/internal/ampip"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Cluster is a bootable AmpNet network; see core.Cluster.
type Cluster = core.Cluster

// Options configures New.
type Options = core.Options

// New assembles a cluster (nothing runs until Boot).
func New(opts Options) *Cluster { return core.New(opts) }

// Handle is a typed per-node view (c.Node(i)); see core.Handle.
type Handle = core.Handle

// Topology declaratively describes a fabric shape — which node attaches
// to which switch, and which switches are joined by inter-switch
// trunks. Set Options.Fabric to build one; nil builds the paper's
// uniform segment from Options.Nodes and Options.Switches.
type Topology = phys.Topology

// TrunkSpec declares one inter-switch trunk of a Topology.
type TrunkSpec = phys.TrunkSpec

// The named fabric shapes. Uniform is the paper's slide-14 segment
// (every node to every switch); DualRing is a pair of counter-rotating
// rings joined by a trunk; Mesh dual-homes nodes across a trunked
// switch mesh; Sharded gives each shard its own switches, joined to its
// neighbors by trunks, so the cluster-wide ring heals across rings.
func Uniform(nodes, switches int, fiberM float64) Topology {
	return phys.Uniform(nodes, switches, fiberM)
}
func DualRing(nodes int, fiberM float64) Topology       { return phys.DualRing(nodes, fiberM) }
func Mesh(nodes, switches int, fiberM float64) Topology { return phys.Mesh(nodes, switches, fiberM) }
func Sharded(shards, nodesPerShard, switchesPerShard int, fiberM float64) Topology {
	return phys.Sharded(shards, nodesPerShard, switchesPerShard, fiberM)
}

// FabricByName builds a named fabric shape ("uniform", "dualring",
// "mesh", "sharded") from a node and switch budget — the ampsim
// -fabric flag.
func FabricByName(name string, nodes, switches int, fiberM float64) (Topology, error) {
	return phys.FabricByName(name, nodes, switches, fiberM)
}

// Scenario binds cluster + fault plan + workloads into one
// reproducible run; see core.Scenario.
type Scenario = core.Scenario

// Report is a Scenario's deterministic machine-readable outcome: its
// JSON is byte-identical at every Options.Shards for the same seed.
// What the engine itself did — shard partition (Det.Assign), windows,
// barriers, per-shard events and occupancy — rides along in Report.Det,
// its one field outside the JSON, at every shard count, one included,
// and prints in Summary.
type Report = core.Report

// EventReport is one fired plan event in a Report.
type EventReport = core.EventReport

// Plan is a declarative, validated schedule of faults and repairs.
type Plan = core.Plan

// Event is one plan entry; EventKind classifies it.
type (
	Event     = core.Event
	EventKind = core.EventKind
)

// The plan event kinds, for matching on Event.Kind in OnEvent hooks.
const (
	EvCrashNode     = core.EvCrashNode
	EvRebootNode    = core.EvRebootNode
	EvFailSwitch    = core.EvFailSwitch
	EvRestoreSwitch = core.EvRestoreSwitch
	EvFailLink      = core.EvFailLink
	EvRestoreLink   = core.EvRestoreLink
	EvFailTrunk     = core.EvFailTrunk
	EvRestoreTrunk  = core.EvRestoreTrunk
)

// AppliedEvent is a fired plan event with its absolute fire time.
type AppliedEvent = core.AppliedEvent

// Plan event constructors. Offsets are relative to install time.
func CrashNode(at Time, n int) Event      { return core.CrashNode(at, n) }
func RebootNode(at Time, n int) Event     { return core.RebootNode(at, n) }
func FailSwitch(at Time, s int) Event     { return core.FailSwitch(at, s) }
func RestoreSwitch(at Time, s int) Event  { return core.RestoreSwitch(at, s) }
func FailLink(at Time, n, s int) Event    { return core.FailLink(at, n, s) }
func RestoreLink(at Time, n, s int) Event { return core.RestoreLink(at, n, s) }
func FailTrunk(at Time, t int) Event      { return core.FailTrunk(at, t) }
func RestoreTrunk(at Time, t int) Event   { return core.RestoreTrunk(at, t) }

// ParsePlan parses the plan-script syntax used by ampsim -plan, e.g.
// "10ms fail-switch 0; 20ms restore-switch 0".
func ParsePlan(s string) (Plan, error) { return core.ParsePlan(s) }

// FormatPlan renders a plan back into the plan-script syntax;
// ParsePlan(FormatPlan(p)) reproduces p exactly.
func FormatPlan(p Plan) string { return core.FormatPlan(p) }

// Load is a composable workload generator; the implementations are
// PubSubLoad, CacheChurn, CollectiveLoad and FileStream.
type Load = core.Load

// ActiveLoad is a started load (Cluster.StartLoad).
type ActiveLoad = core.ActiveLoad

// LoadReport is a load's delivery report; NodeCount one per-subscriber
// line of it.
type (
	LoadReport = core.LoadReport
	NodeCount  = core.NodeCount
)

// The workload generators.
type (
	PubSubLoad     = core.PubSubLoad
	CacheChurn     = core.CacheChurn
	CollectiveLoad = core.CollectiveLoad
	FileStream     = core.FileStream
)

// Time is virtual simulation time in nanoseconds.
type Time = sim.Time

// Convenient durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NodeID addresses a node; Broadcast addresses all.
type NodeID = micropacket.NodeID

// Broadcast is the all-nodes destination.
const Broadcast = micropacket.Broadcast

// WireVersion selects a MicroPacket wire-format version via
// Options.Wire (or phys.Topology.Wire): WireV1 is the historical
// one-byte-address format (≤255 nodes), WireV2 carries uint16
// addresses (≤65535 nodes). The zero value auto-selects the smallest
// version that fits the fabric.
type WireVersion = wire.Version

// The registered wire-format versions.
const (
	WireV1 = wire.V1
	WireV2 = wire.V2
)

// ParseWireVersion resolves "v1"/"v2"/"auto" flag values.
func ParseWireVersion(s string) (WireVersion, error) { return wire.Parse(s) }

// Node is one AmpNet node (kernel + NIC model).
type Node = ampdk.Node

// Version is a node software version (high byte = major, must match to
// assimilate).
type Version = ampdk.Version

// TagApp is the first Data-packet tag available to applications.
const TagApp = ampdk.TagApp

// Services bundles AmpSubscribe, AmpFiles and AmpThreads on a node.
type Services = ampdc.Services

// Stack is a node's AmpIP (IP-over-AmpNet) instance.
type Stack = ampip.Stack

// Comm provides MPI-style collectives over a set of nodes.
type Comm = ampip.Comm

// NewComm builds a communicator over the given node ids.
func NewComm(s *Stack, nodes []int, port uint16) *Comm { return ampip.NewComm(s, nodes, port) }

// NodeToIP maps node ids into the cluster's address space.
func NodeToIP(node int) ampip.Addr { return ampip.NodeToIP(node) }

// Record is a Lamport-counter (seqlock) record in the network cache.
type Record = netcache.Record

// DoubleBuffer is a crash-safe checkpoint cell (two alternating
// records).
type DoubleBuffer = netcache.DoubleBuffer

// NewDoubleBuffer lays out a checkpoint cell in a cache region.
func NewDoubleBuffer(region uint8, off uint32, size int) DoubleBuffer {
	return netcache.NewDoubleBuffer(region, off, size)
}

// Manager runs control groups on a node; GroupConfig declares one.
type (
	Manager     = failover.Manager
	Group       = failover.Group
	GroupConfig = failover.GroupConfig
)
