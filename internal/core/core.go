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
	"repro/internal/enc8b10b"
	"repro/internal/failover"
	"repro/internal/frameacct"
	"repro/internal/parsim"
	"repro/internal/phys"
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
	// and Switches.
	Fabric *phys.Topology
	// FiberMeters is the per-link fiber length.
	FiberMeters float64
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
	// Version is the software version every node boots with; override
	// per node via VersionOf.
	Version ampdk.Version
	// VersionOf, if set, overrides Version per node id.
	VersionOf func(id int) ampdk.Version
	// HeartbeatInterval tunes failure detection (a peer is down after
	// three silent intervals).
	HeartbeatInterval sim.Time

	// Shards partitions the fabric by switch into this many shards, each
	// simulated on a private kernel, advancing in conservative lookahead
	// windows on its own OS thread (internal/parsim). 0 means 1: the
	// whole fabric on one kernel, run on the caller's goroutine. The
	// Report is byte-identical at every shard count for the same seed;
	// see DESIGN.md ("One engine") for the loads and options that need
	// one shard.
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

// fill resolves zero values to their defaults; negative sizes are not
// defaults in disguise and are refused.
func (o *Options) fill() error {
	if o.Shards < 0 {
		return fmt.Errorf("core: negative Options.Shards %d", o.Shards)
	}
	if o.FiberMeters < 0 {
		return fmt.Errorf("core: negative Options.FiberMeters %v", o.FiberMeters)
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
		if o.FiberMeters == 0 {
			o.FiberMeters = o.Fabric.FiberM
		}
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
	if o.FiberMeters == 0 {
		o.FiberMeters = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Version == 0 {
		o.Version = 0x0100
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
// paper's uniform segment shaped by Nodes and Switches.
func (o *Options) topology() phys.Topology {
	var t phys.Topology
	if o.Fabric != nil {
		t = *o.Fabric
		if t.FiberM == 0 {
			t.FiberM = o.FiberMeters
		}
	} else {
		t = phys.Uniform(o.Nodes, o.Switches, o.FiberMeters)
	}
	if o.Wire != 0 {
		t.Wire = o.Wire
	}
	return t
}

// Cluster is a fully assembled AmpNet network.
type Cluster struct {
	Opts Options
	// K is the simulation kernel of a one-shard cluster. Under
	// Options.Shards > 1 it is nil — each node runs on its shard's
	// kernel (Nodes[i].K), and driver-level time control goes through
	// the engine (Run, WaitUntil, Install). Nets lists every shard's
	// physical network; fabric-wide counters are summed over it.
	// Phys.Assign is the shard assignment.
	K    *sim.Kernel
	Net  *phys.Net
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
// the lookahead is unbounded and the engine runs the single kernel
// directly.
func build(opts Options) (*Cluster, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	topo := opts.topology()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.Shards > 1 && opts.BER > 0 {
		return nil, fmt.Errorf("core: Options.BER is not supported with Shards > 1 (the symbol-error RNG is a single stream shards cannot share deterministically)")
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
		// Every shard derives its seed from the run seed; only shard 0's
		// stream is consumed (BER, one shard only), the rest are kept
		// distinct for any future per-shard noise.
		kernels[i] = sim.NewKernel(opts.Seed + uint64(i)<<32)
		nets[i] = phys.NewNet(kernels[i])
		nets[i].DeepPHY = opts.DeepPHY
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
	c := &Cluster{Opts: opts, Phys: ph, Net: nets[0], Nets: nets, eng: eng}
	if opts.Shards == 1 {
		// What needs the one kernel: direct kernel access for the
		// one-shard-only loads, and the BER stream.
		c.K = kernels[0]
		if opts.BER > 0 {
			rng := c.K.RNG().Split()
			ber := opts.BER
			c.Net.Corrupt = func(_ phys.Frame, syms []enc8b10b.Symbol) {
				for i := range syms {
					if rng.Float64() < ber {
						syms[i] ^= 1 << rng.Intn(10)
					}
				}
			}
		}
	}
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

// buildNodes assembles the per-node software stacks, each on its
// shard's kernel.
func (c *Cluster) buildNodes() {
	opts := c.Opts
	for i := 0; i < opts.Nodes; i++ {
		ver := opts.Version
		if opts.VersionOf != nil {
			ver = opts.VersionOf(i)
		}
		shard := c.Phys.ShardOfNode(i)
		nd := ampdk.NewNode(c.eng.Kernels[shard], c.Phys, ampdk.Config{
			ID: i, Version: ver, Regions: opts.Regions,
			HeartbeatInterval: opts.HeartbeatInterval,
			JoinTimeout:       opts.JoinTimeout,
			FiberM:            opts.FiberMeters,
		})
		nd.Agent.Shard = shard
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
		nd := nd
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

// Run advances virtual time by d.
func (c *Cluster) Run(d sim.Time) { c.eng.RunUntil(c.eng.Now() + d) }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }

// Err returns the engine's sticky failure, if any (a shard panic).
// Once set, the simulation refuses to advance; Scenario.Run surfaces it
// as the run's error.
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
// AmpNet MACs); Lost returns frames destroyed by failures; Delivered
// returns frames handed to receivers — each read from the fabric-wide
// ledger.
func (c *Cluster) Drops() uint64     { a := c.FrameAcct(); return a.CongestionDrops() }
func (c *Cluster) Lost() uint64      { a := c.FrameAcct(); return a.FailureLosses() }
func (c *Cluster) Delivered() uint64 { return c.FrameAcct().WireDelivered }

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
