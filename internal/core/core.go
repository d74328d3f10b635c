// Package core assembles the full AmpNet system — physical fabric,
// MAC stations, rostering agents, distributed kernels, network cache,
// semaphores, AmpDC services, AmpIP stacks and failover managers — into
// one bootable simulated cluster. It is the integration point the
// public ampnet package (repo root) re-exports, and what the examples,
// experiments and benchmarks drive.
package core

import (
	"fmt"

	"repro/internal/ampdc"
	"repro/internal/ampdk"
	"repro/internal/ampip"
	"repro/internal/detmap"
	"repro/internal/enc8b10b"
	"repro/internal/failover"
	"repro/internal/frameacct"
	"repro/internal/parsim"
	"repro/internal/phys"
	"repro/internal/rostering"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options configures a cluster. Zero values select the paper's
// defaults: the slide-14 quad-redundant 6×4 topology, 50 m fiber,
// version 1.0.
type Options struct {
	// Nodes and Switches shape the redundant fabric (slide 14:
	// 6 nodes × 4 switches is quad-redundant). Ignored when Fabric is
	// set (the topology carries its own sizes).
	Nodes    int
	Switches int
	// Fabric, if set, selects a declarative fabric topology — dual
	// counter-rotating rings, trunked switch meshes, sharded multi-ring
	// clusters (see phys.Uniform, phys.DualRing, phys.Mesh,
	// phys.Sharded). nil builds the paper's uniform segment from Nodes
	// and Switches. Its FiberM is the one fiber length setting; zero
	// means 50 m.
	Fabric *phys.Topology
	// Wire selects the MicroPacket wire-format version (internal/wire):
	// v1 is the byte-exact historical format (one address byte, ≤255
	// nodes), v2 widens node addresses to uint16 (≤65535 nodes). The
	// zero value is "auto" — the smallest version that fits the fabric
	// — so existing scenarios keep their bit-identical v1 reports and
	// big fabrics just work. An explicit v1 on a >255-node fabric is a
	// validation error naming the version.
	Wire wire.Version
	// Seed makes the whole run deterministic.
	Seed uint64
	// Regions adds application cache regions (id → bytes). Region 0 is
	// always the configuration database.
	Regions map[uint8]int
	// VersionOf, if set, gives the software version node id boots with;
	// nil boots every node with version 1.0.
	VersionOf func(id int) ampdk.Version
	// HeartbeatInterval tunes failure detection (a peer is down after
	// three silent intervals).
	HeartbeatInterval sim.Time

	// Shards partitions the fabric by switch into this many shards, each
	// simulated on a private kernel, advancing in conservative lookahead
	// windows on its own OS thread (internal/parsim). 0 means 1: the
	// whole fabric on one kernel, run on the caller's goroutine. The
	// Report is byte-identical at every shard count for the same seed;
	// every load and option works at every shard count, under the one
	// rule for where a load's nodes sit (DESIGN.md, "One engine").
	Shards int

	// JoinTimeout, KeepaliveInterval and SilenceTimeout retune the
	// per-node liveness cadences for fabric size (big fabrics drown in
	// the room-sized defaults). Zero keeps each component's default,
	// except that a zero SilenceTimeout follows a set KeepaliveInterval
	// at the defaults' 3× ratio; a pair closer than 2× is refused.
	JoinTimeout       sim.Time
	KeepaliveInterval sim.Time
	SilenceTimeout    sim.Time

	// DeepPHY runs every delivered frame through the real datapath —
	// MicroPacket wire codec plus 8b/10b line coding — so the whole
	// stack is exercised bit-for-bit. Slower, but the strongest
	// fidelity mode; see phys.Net.DeepPHY.
	DeepPHY bool
	// BER, with DeepPHY, injects symbol errors with the given
	// per-symbol probability. Corrupted frames are discarded by the
	// receive hardware (CRC/code violation) and repaired by the
	// higher layers. A BER without DeepPHY, which has no symbols to
	// corrupt, or outside [0, 1] is refused.
	BER float64

	// Telemetry, if set, receives the run's wall-clock span timeline
	// (window grant → shard run → barrier exchange); see
	// internal/telemetry. Attaching a recorder changes no simulation
	// behavior and no Report bytes — wall readings live only in the
	// recorder. Works at every shard count.
	Telemetry *telemetry.Recorder
}

// fill resolves zero values to their defaults; negative sizes and
// intervals are not defaults in disguise and are refused.
func (o *Options) fill() error {
	if o.Shards < 0 {
		return fmt.Errorf("core: negative Options.Shards %d", o.Shards)
	}
	for _, d := range []struct {
		name string
		v    sim.Time
	}{{"HeartbeatInterval", o.HeartbeatInterval}, {"JoinTimeout", o.JoinTimeout},
		{"KeepaliveInterval", o.KeepaliveInterval}, {"SilenceTimeout", o.SilenceTimeout}} {
		if d.v < 0 {
			return fmt.Errorf("core: negative Options.%s %v", d.name, d.v)
		}
	}
	for _, id := range detmap.SortedKeys(o.Regions) {
		if o.Regions[id] < 0 {
			return fmt.Errorf("core: negative Options.Regions[%d] size %d", id, o.Regions[id])
		}
	}
	if !(o.BER >= 0 && o.BER <= 1) { // NaN fails both
		return fmt.Errorf("core: Options.BER %v is not a probability in [0, 1]", o.BER)
	}
	if o.BER != 0 && !o.DeepPHY {
		return fmt.Errorf("core: Options.BER %v needs Options.DeepPHY (only the 8b/10b path has symbols to corrupt)", o.BER)
	}
	if o.Fabric != nil {
		// The topology is authoritative; mirror its sizes so reports
		// and plan validation see the real fabric shape.
		o.Nodes = o.Fabric.Nodes
		o.Switches = o.Fabric.Switches
		if o.Wire == 0 {
			o.Wire = o.Fabric.Wire
		}
	}
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.Switches == 0 {
		o.Switches = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	// The ring watchdog must outlast the keepalives that feed it: a
	// keepalive slowed on its own would leave the 60 µs default
	// watchdog re-rostering an idle ring between every two of them.
	if o.KeepaliveInterval != 0 {
		if o.SilenceTimeout == 0 {
			o.SilenceTimeout = 3 * o.KeepaliveInterval
		} else if o.SilenceTimeout < 2*o.KeepaliveInterval {
			return fmt.Errorf("core: Options.SilenceTimeout %v is under twice Options.KeepaliveInterval %v: an idle ring would re-roster between keepalives",
				o.SilenceTimeout, o.KeepaliveInterval)
		}
	}
	return nil
}

// topology resolves the fabric to build: the declared Fabric, or the
// paper's uniform segment shaped by Nodes and Switches, with 50 m of
// fiber where FiberM is zero.
func (o *Options) topology() phys.Topology {
	t := phys.Uniform(o.Nodes, o.Switches, 0)
	if o.Fabric != nil {
		t = *o.Fabric
	}
	if t.FiberM == 0 {
		t.FiberM = 50
	}
	if o.Wire != 0 {
		t.Wire = o.Wire
	}
	return t
}

// Cluster is a fully assembled AmpNet network.
type Cluster struct {
	Opts Options
	// Nets lists every shard's physical network; fabric-wide counters
	// are summed over it. Phys.Assign is the shard assignment. Each
	// node runs on its shard's kernel (Nodes[i].K), and driver-level
	// time control goes through the engine (Run, WaitUntil, Install).
	Nets []*phys.Net
	Phys *phys.Cluster

	eng *parsim.Engine

	Nodes    []*ampdk.Node
	Services []*ampdc.Services
	Stacks   []*ampip.Stack
	Managers []*failover.Manager

	// OnEvent, if set, observes every plan event as it fires (see
	// Install). applied accumulates the fired events for reports;
	// pending holds installed events that have not fired yet (at
	// absolute times), so later Installs validate against them.
	OnEvent func(Event)
	applied []AppliedEvent
	pending []AppliedEvent
	// booted flips once Boot has been called; plan validation assumes
	// all nodes up until then.
	booted bool
}

// New assembles a cluster. Nothing runs until Boot (or manual Node
// boots) and Run. Misconfigured options panic (Scenario.Run returns
// the same conditions as errors). Call Close when done with a
// directly-driven sharded cluster to release its helper goroutines
// (Scenario.Run does so automatically).
func New(opts Options) *Cluster {
	c, err := build(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// build is the one constructor: the fabric split by phys.AssignShards
// over one kernel and one phys.Net per shard, every node built on its
// shard's kernel, and a parsim.Engine coordinating lookahead windows
// and barrier exchange. One shard is the same build with nothing cut:
// the lookahead is unbounded and the engine runs the kernel's windows
// on the coordinator, through the same path as N shards.
func build(opts Options) (*Cluster, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	topo := opts.topology()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	assign, err := phys.AssignShards(&topo, opts.Shards)
	if err != nil {
		return nil, err
	}
	lookahead, err := phys.Lookahead(&topo, assign)
	if err != nil {
		return nil, err
	}
	kernels := make([]*sim.Kernel, opts.Shards)
	nets := make([]*phys.Net, opts.Shards)
	for i := range kernels {
		kernels[i] = sim.NewKernel(opts.Seed)
		nets[i] = phys.NewNet(kernels[i])
		nets[i].DeepPHY = opts.DeepPHY
		if opts.BER > 0 {
			nets[i].Corrupt = symbolErrors(opts.Seed, opts.BER)
		}
	}
	eng, err := parsim.New(kernels, nets, lookahead)
	if err != nil {
		return nil, err
	}
	ph, err := phys.BuildFabricSharded(nets, topo, assign)
	if err != nil {
		eng.Shutdown()
		return nil, err
	}
	c := &Cluster{Opts: opts, Phys: ph, Nets: nets, eng: eng}
	// Crossbar writes aimed at another shard's switch cross the next
	// barrier (phys.Cluster.Program); with one shard every switch is
	// shard 0 and nothing is ever deferred.
	ph.RouteSink = eng.DeferRoute
	eng.BindRoutes(ph.Land)
	if opts.Telemetry != nil {
		// Wall-clock plane only: the recorder observes
		// window/run/barrier spans and changes neither simulation
		// behavior nor Report bytes.
		eng.SetRecorder(opts.Telemetry)
	}
	c.buildNodes()
	return c, nil
}

// symbolErrors is one Net's bit-error injector: a stream per receiving
// port, seeded from the run seed and the port's UID, looked up and never
// ranged over. A port receives its frames in the same order at every
// shard count, so the same symbols die at every shard count.
func symbolErrors(seed uint64, ber float64) func(*phys.Port, []enc8b10b.Symbol) {
	streams := map[uint32]*sim.RNG{}
	return func(dst *phys.Port, syms []enc8b10b.Symbol) {
		rng := streams[dst.UID()]
		if rng == nil {
			rng = sim.NewRNG(seed ^ uint64(dst.UID())<<32)
			streams[dst.UID()] = rng
		}
		for i := range syms {
			if rng.Float64() < ber {
				syms[i] ^= 1 << rng.Intn(10)
			}
		}
	}
}

// buildNodes assembles the per-node software stacks, each on its
// shard's kernel. The rostering agents of a shard share one Rounds, so
// a round's roster is built once per shard.
func (c *Cluster) buildNodes() {
	opts := c.Opts
	rounds := make([]rostering.Rounds, len(c.eng.Kernels))
	for i := 0; i < opts.Nodes; i++ {
		var ver ampdk.Version // zero: ampdk's default
		if opts.VersionOf != nil {
			ver = opts.VersionOf(i)
		}
		shard := c.Phys.ShardOfNode(i)
		nd := ampdk.NewNode(c.eng.Kernels[shard], c.Phys, ampdk.Config{
			ID: i, Version: ver, Regions: opts.Regions,
			HeartbeatInterval: opts.HeartbeatInterval,
			JoinTimeout:       opts.JoinTimeout,
		})
		nd.Agent.Shard, nd.Agent.Rounds = shard, &rounds[shard]
		if opts.KeepaliveInterval != 0 {
			nd.Agent.KeepaliveInterval = opts.KeepaliveInterval
		}
		if opts.SilenceTimeout != 0 {
			nd.Agent.SilenceTimeout = opts.SilenceTimeout
		}
		c.Nodes = append(c.Nodes, nd)
		c.Services = append(c.Services, ampdc.New(nd))
		c.Stacks = append(c.Stacks, ampip.NewStack(nd))
		c.Managers = append(c.Managers, failover.NewManager(nd))
	}
}

// Boot boots every node at the current virtual time and runs the
// simulation until all compatible nodes are online (or the deadline
// passes). It returns an error naming any node that failed to come
// online within the window.
func (c *Cluster) Boot(window sim.Time) error {
	c.booted = true
	for _, nd := range c.Nodes {
		nd.K.After(0, func() { nd.Boot() })
	}
	if window == 0 {
		window = 50 * sim.Millisecond
	}
	// The poll step is clamped to the deadline (stepUntil): a
	// sub-millisecond (or non-integral-ms) window must not run past it.
	if c.stepUntil(c.allSettled, c.Now()+window, sim.Millisecond) {
		return nil
	}
	// An engine failure mid-boot surfaces as itself, not as the
	// stuck-node symptom it leaves behind.
	if err := c.Err(); err != nil {
		return err
	}
	for _, nd := range c.Nodes {
		if nd.State != ampdk.StateOnline && nd.State != ampdk.StateRejected {
			return fmt.Errorf("core: node %d stuck in state %v after boot window", nd.Cfg.ID, nd.State)
		}
	}
	return nil
}

func (c *Cluster) allSettled() bool {
	for _, nd := range c.Nodes {
		if nd.State != ampdk.StateOnline && nd.State != ampdk.StateRejected {
			return false
		}
	}
	return true
}

// Run advances virtual time by d and returns the engine's sticky
// failure, if any: a run that died (a model panic, a refused call from
// an event callback) stops where it stood.
func (c *Cluster) Run(d sim.Time) error {
	c.eng.RunUntil(c.eng.Now() + d)
	return c.eng.Err()
}

// Now returns the driver's clock: the instant every kernel is parked
// on between runs, at every shard count. An event callback reads the
// kernel of the node it acts for (c.Nodes[i].K.Now()); calling Now
// from one ends the run with a named error.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }

// Err returns the engine's sticky failure, if any: a model panic, or
// an event callback's refused Now, Install or Schedule. Once set, the
// simulation refuses to advance; Run returns it, and Scenario.Run
// surfaces it as the run's error.
func (c *Cluster) Err() error { return c.eng.Err() }

// Close releases engine resources (a sharded cluster's helper
// goroutines). It is safe to call on any cluster, more than once, and is
// called automatically by Scenario.Run.
func (c *Cluster) Close() { c.eng.Shutdown() }

// Roster returns the current logical ring as seen by the lowest online
// node (all live nodes converge to the same roster; crashed nodes hold
// stale ones).
func (c *Cluster) Roster() string {
	for _, nd := range c.Nodes {
		if nd.State != ampdk.StateOnline {
			continue
		}
		if r := nd.Agent.Roster(); r != nil {
			return r.String()
		}
	}
	return "<no roster>"
}

// RingSize returns the current logical ring size as seen by the lowest
// live node.
func (c *Cluster) RingSize() int {
	for _, nd := range c.Nodes {
		if nd.State == ampdk.StateOnline {
			if r := nd.Agent.Roster(); r != nil {
				return r.Size()
			}
		}
	}
	return 0
}

// FailSwitch takes a switch down; RestoreSwitch re-lights it.
func (c *Cluster) FailSwitch(s int)    { c.Phys.Switches[s].Fail() }
func (c *Cluster) RestoreSwitch(s int) { c.Phys.Switches[s].Restore() }

// FailLink cuts the fiber between node n and switch s.
func (c *Cluster) FailLink(n, s int)    { c.Phys.NodeLinks[n][s].Fail() }
func (c *Cluster) RestoreLink(n, s int) { c.Phys.NodeLinks[n][s].Restore() }

// FailTrunk cuts inter-switch trunk t; RestoreTrunk re-splices it.
func (c *Cluster) FailTrunk(t int)    { c.Phys.FailTrunk(t) }
func (c *Cluster) RestoreTrunk(t int) { c.Phys.RestoreTrunk(t) }

// FabricName names the built fabric shape ("uniform", "dualring", ...).
func (c *Cluster) FabricName() string {
	if c.Phys.Topo.Name == "" {
		return "uniform"
	}
	return c.Phys.Topo.Name
}

// WireVersion returns the wire-format version the fabric runs (the
// resolved version — never the zero "auto" value).
func (c *Cluster) WireVersion() wire.Version {
	return c.Phys.Topo.WireVersion()
}

// CrashNode kills a node (NIC and all); RebootNode brings it back
// through assimilation.
func (c *Cluster) CrashNode(n int)  { c.Nodes[n].Crash() }
func (c *Cluster) RebootNode(n int) { c.Nodes[n].Reboot() }

// Drops returns congestion drops on the fabric (must stay 0 under
// AmpNet MACs), read from the fabric-wide ledger.
func (c *Cluster) Drops() uint64 { a := c.FrameAcct(); return a.CongestionDrops() }

// FrameAcct returns the fabric-wide frame-lifecycle ledger: the sum of
// every shard Net's settled ledger (phys.Net.Ledger — a frame planned
// onto its egress port is in its device until the plan is due). Per-Net
// ledgers of a sharded fabric do not
// balance alone (a cross-shard frame launches on one Net and arrives on
// another); the sum satisfies the conservation invariant at any parked
// instant — see frameacct.Acct.Violations.
func (c *Cluster) FrameAcct() frameacct.Acct {
	var sum frameacct.Acct
	for _, net := range c.Nets {
		l := net.Ledger()
		sum.Add(&l)
	}
	return sum
}
