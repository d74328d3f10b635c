package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/rostering"
	"repro/internal/sim"
	"repro/internal/wire"
)

// mallocs is alloctest.Count(runs, f), the allocations of runs calls
// of f in all, for an f that drives c, failing the test if the engine
// failed while measuring: a dead engine refuses to advance, so every
// run after a model panic would measure 0 and pass.
func mallocs(t testing.TB, c *Cluster, runs int, f func()) uint64 {
	t.Helper()
	n := alloctest.Count(runs, f)
	if err := c.Err(); err != nil {
		t.Fatalf("engine failed while measuring allocations: %v", err)
	}
	return n
}

// fatalRecorder is a testing.TB whose Fatalf records the failure
// instead of ending the test.
type fatalRecorder struct {
	testing.TB
	fatal string
}

func (f *fatalRecorder) Helper() {}
func (f *fatalRecorder) Fatalf(format string, args ...any) {
	f.fatal = fmt.Sprintf(format, args...)
}

// TestAllocsPerRunFailsOnModelPanic: a model panic inside an allocation
// loop fails the measurement at 1 and 2 shards. The panic becomes the
// engine's sticky error, every later run is a no-op, and the loop alone
// reports 0 allocations.
func TestAllocsPerRunFailsOnModelPanic(t *testing.T) {
	for _, shards := range []int{1, 2} {
		topo := phys.Sharded(2, 4, 2, 50)
		c := New(Options{Fabric: &topo, Shards: shards})
		defer c.Close()
		if err := c.Boot(0); err != nil {
			t.Fatal(err)
		}
		c.Nodes[1].K.After(sim.Millisecond, func() { panic("injected model fault") })
		rec := &fatalRecorder{TB: t}
		n := mallocs(rec, c, 10, func() { c.Run(sim.Millisecond) })
		if !strings.Contains(rec.fatal, "injected model fault") {
			t.Errorf("shards=%d: a model panic in the loop measured %d allocations and failed with %q, want the panic named", shards, n, rec.fatal)
		}
		if n != 0 {
			t.Errorf("shards=%d: the dead engine's runs measured %d allocations, want 0", shards, n)
		}
	}
}

// TestHealedAllocatesNoStrings: Healed is polled by every wait loop, so
// a settled fabric must answer at the cost of liveComponents and one
// ideal-roster build — 28 allocations on 32 × 4, 29 when a fabric view
// was allocated — not by rendering every node's roster (4 330
// allocations when it compared strings).
func TestHealedAllocatesNoStrings(t *testing.T) {
	c := New(Options{Nodes: 32, Switches: 4, Seed: 5})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c, 5*sim.Millisecond)
	if !c.Healed() {
		t.Fatalf("32 x 4 did not settle: %v", c.InvariantViolations())
	}
	if n := testing.AllocsPerRun(10, func() { c.Healed() }); n > 28 {
		t.Fatalf("Healed allocates %.0f times on a settled 32 x 4 fabric, want <= 28", n)
	}
}

// TestIdleRingAllocationsPerMillisecond: a booted, idle 16 × 4 ring
// allocates nothing: its heartbeat MicroPackets (16 nodes × 4 beats a
// virtual millisecond) come from the Net's packet pool and go back to it
// after their tour. The bound is per virtual time, not per event: a
// change that fires fewer events for the same millisecond must not fail
// an allocation test. It was 64 when every beat built a packet; with a
// Timer per tick and a keepalive packet per interval it was 0.17 an
// event, some 1 400 a millisecond.
func TestIdleRingAllocationsPerMillisecond(t *testing.T) {
	c := New(Options{Nodes: 16, Switches: 4, Seed: 5})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c, 5*sim.Millisecond)
	if allocs := mallocs(t, c, 10, func() { c.Run(sim.Millisecond) }); allocs != 0 {
		t.Fatalf("idle 16 x 4 ring: %d allocations in 10 virtual milliseconds, want 0", allocs)
	}
}

// TestPublishedMessageAllocatesNothing: a header-only message from one
// node to the 15 other subscribers of a 16 × 4 ring is copied once —
// into its MicroPacket, which every station lends to its subscriber and
// which goes back to its Net's pool when the broadcast is stripped — so
// publish to last delivery allocates nothing: 0 measured, 1 when every
// message built a fresh packet, 17 with a clone in Write and a copy per
// delivery (19 from PubSubLoad, which made a buffer and a Timer per
// message as well).
func TestPublishedMessageAllocatesNothing(t *testing.T) {
	if n := publishedMessageAllocs(t, pubSubHeader, 50*sim.Microsecond); n != 0 {
		t.Fatalf("50 published messages delivered to 15 subscribers allocate %d times, want 0", n)
	}
}

// TestPublishedKiBMessageAllocatesNothing: a 1 KiB message is sixteen
// segments, most still queued when Publish returns; they are kept in
// the sender's channel slab, and each subscriber assembles into its
// reused dma.Assembly buffer, so it allocates nothing either. It was 1
// when every Write kept its queued segments in a buffer of their own.
func TestPublishedKiBMessageAllocatesNothing(t *testing.T) {
	if n := publishedMessageAllocs(t, 1<<10, 100*sim.Microsecond); n != 0 {
		t.Fatalf("50 published 1 KiB messages delivered to 15 subscribers allocate %d times, want 0", n)
	}
}

// publishedMessageAllocs measures the allocations of publishing 50
// size-byte messages from node 0 of a booted 16 × 4 ring, each followed
// by a run of d, by which the 15 other subscribers must have it.
func publishedMessageAllocs(t *testing.T, size int, d sim.Time) uint64 {
	t.Helper()
	// Heartbeats slowed so none falls into the measured windows.
	c := New(Options{Nodes: 16, Switches: 4, Seed: 5, HeartbeatInterval: 50 * sim.Millisecond})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 1; i < 16; i++ {
		c.Services[i].Sub.Subscribe(1, func(_ micropacket.NodeID, data []byte) { delivered += len(data) })
	}
	msg := make([]byte, size)
	publish := func() {
		c.Services[0].Sub.Publish(1, msg)
		c.Run(d)
	}
	publish()
	if delivered != 15*size {
		t.Fatalf("%d bytes delivered, want %d", delivered, 15*size)
	}
	return mallocs(t, c, 50, publish)
}

// TestCrossShardUnicastAllocatesNothing: a 256-byte DMA write from a
// node on shard 0 to one on shard 1 is four pooled segments built on
// shard 0 and freed where they end, on shard 1. The dying pool keeps
// them as strays and the next window barrier sends them home
// (micropacket.Pool.SendHome), so once warm the write allocates
// nothing. It was 4, a packet per segment, when a packet that died on
// another shard was left to the GC.
func TestCrossShardUnicastAllocatesNothing(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	c := New(Options{Fabric: &topo, Shards: 2, Seed: 5,
		HeartbeatInterval: 50 * sim.Millisecond, Regions: map[uint8]int{1: 4096}})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c, 5*sim.Millisecond)
	src, dst := -1, -1
	for n, sh := range c.Phys.Assign.NodeShard {
		if sh == 0 && src < 0 {
			src = n
		}
		if sh == 1 && dst < 0 {
			dst = n
		}
	}
	if src < 0 || dst < 0 {
		t.Fatalf("no node on shard 0 or 1: %v", c.Phys.Assign.NodeShard)
	}
	msg := make([]byte, 256)
	from := c.Nodes[src]
	// One Timer for every send: a closure per send would allocate.
	send := from.K.NewTimer(func() { from.DMA.Write(0, micropacket.NodeID(dst), 1, 0, msg, nil) })
	runs := 0
	write := func() {
		runs++
		for i := range msg {
			msg[i] = byte(runs)
		}
		send.Reset(0)
		c.Run(100 * sim.Microsecond)
	}
	applied := c.Nodes[dst].Cache.Applied
	allocs := mallocs(t, c, 20, write)
	if got := c.Nodes[dst].Cache.Applied - applied; got != 4*uint64(runs) {
		t.Fatalf("%d segments applied at node %d in %d writes, want %d", got, dst, runs, 4*runs)
	}
	if got := c.Nodes[dst].Cache.Snapshot(1)[:256]; !bytes.Equal(got, msg) {
		t.Fatalf("node %d region 1 holds % x, want the last write % x", dst, got[:8], msg[:8])
	}
	if allocs != 0 {
		t.Fatalf("20 256 B DMA writes from node %d (shard 0) to node %d (shard 1): %d allocations, want 0", src, dst, allocs)
	}
}

// TestCollectiveLoadAllocatesNothing: a CollectiveLoad's rank is one
// record whose callbacks are built in begin, and an AmpIP op is a pooled
// record, so a 4-node job iterating without end allocates nothing a
// virtual millisecond once warm — with a closure per op and per
// callback it was 1 121.
func TestCollectiveLoadAllocatesNothing(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2, Seed: 5})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	a := c.StartLoad(&CollectiveLoad{})
	mustRun(t, c, 5*sim.Millisecond)
	before := a.rep.Iters
	allocs := mallocs(t, c, 10, func() { c.Run(sim.Millisecond) })
	if a.rep.Iters == before {
		t.Fatal("the job made no progress")
	}
	if allocs != 0 {
		t.Fatalf("a 4-node CollectiveLoad: %d allocations in 10 virtual milliseconds, want 0", allocs)
	}
}

// TestHealRoundAllocations: a heal round allocates only its
// announcements and its roster. One cycle fails switch 0 of a booted
// 16 × 4 ring and restores it, 3 ms each: two rounds in which every
// node floods its link state, adopts the roster its shard built once,
// keeps its keepalive unless its neighbour changed, and certifies the
// new ring with pooled probes on one Timer. What is left is 7 a cycle:
// one of the 32-packet blocks the Net's pool cuts announcements from
// (Agent.Announced: 32 a cycle; many copies share a packet and no site
// sees it die, so a block goes to the GC whole), and three per roster
// built (a cycle builds two). Heartbeats are slowed so that none is in flight
// when a fault cuts a fiber: a pooled packet a fault destroys is left to
// the GC and replaced (micropacket.Pool), which is the fault's cost, not
// the round's. With a packet per flood it was 38; with a roster built
// per agent, a View per build, a closure per status observation and a
// Timer per certification it was 610.
func TestHealRoundAllocations(t *testing.T) {
	c := New(Options{Nodes: 16, Switches: 4, Seed: 5, HeartbeatInterval: 50 * sim.Millisecond})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	// One shard, so a roster adopted unlike the one adopted before it
	// was built: Rounds memoises only the last.
	var last *rostering.Roster
	var floods, builds uint64
	for _, nd := range c.Nodes {
		nd.OnRoster = func(r *rostering.Roster) {
			if r != last {
				last = r
				builds++
			}
		}
	}
	cycle := func() {
		c.FailSwitch(0)
		c.Run(3 * sim.Millisecond)
		c.RestoreSwitch(0)
		c.Run(3 * sim.Millisecond)
	}
	cycle()
	cycle()
	for _, nd := range c.Nodes {
		floods -= nd.Agent.Announced
	}
	builds = 0
	const runs = 10
	allocs := float64(mallocs(t, c, runs, cycle)) / runs // a warm-up cycle, then runs more
	for _, nd := range c.Nodes {
		floods += nd.Agent.Announced
	}
	if !c.Healed() {
		t.Fatalf("16 x 4 did not heal: %v", c.InvariantViolations())
	}
	if builds != 2*(runs+1) {
		t.Fatalf("%d rosters built in %d cycles, want one a round", builds, runs+1)
	}
	// micropacket.Pool cuts Rostering packets 32 at a time; the cycles
	// may begin inside a block.
	const announcementBlock = 32
	bound := float64(floods/announcementBlock+1+3*builds) / (runs + 1)
	t.Logf("%.0f allocations a cycle; %d floods and %d rosters built in %d cycles", allocs, floods, builds, runs+1)
	if floods == 0 || allocs > bound {
		t.Fatalf("a fail/restore cycle of switch 0 on 16 x 4: %.0f allocations, want <= %.0f (%d floods, %d rosters built in %d cycles)",
			allocs, bound, floods, builds, runs+1)
	}
}

// TestClusterAssemblyAllocations: assembling the scale-idle-128 fabric
// (Sharded(8, 16, 1, 50), wire v2, one shard, no boot) and closing it
// costs 7 472 allocations, 58.4 a node. It was 13 535 (105.7 a node)
// when every switch made a port per node id, attached or not, a node
// held its periodic activities' Timers as pointers, and its services
// made their maps before their first write. The bound is the measured
// count per node plus 5 %.
func TestClusterAssemblyAllocations(t *testing.T) {
	topo := phys.Sharded(8, 16, 1, 50)
	n := testing.AllocsPerRun(5, func() {
		c := New(Options{Fabric: &topo, Seed: 7, Shards: 1, Wire: wire.V2})
		c.Close()
	})
	perNode := n / float64(topo.Nodes)
	if bound := 7472.0 / 128 * 1.05; perNode > bound {
		t.Fatalf("assembling Sharded(8, 16, 1, 50): %.0f allocations, %.1f a node, want <= %.1f a node", n, perNode, bound)
	}
}

// TestClusterAssemblyBytesPerNode: assembling a cluster (wire v2, one
// shard, no boot) and closing it allocates 12 160 bytes a node at 128
// nodes (Sharded(8, 16, 1, 50)) and 29 034 at 1 024 (Sharded(8, 128, 1,
// 50)); ROADMAP item 2(d)'s scale evidence. Every node keeps id-indexed
// tables of every peer, so the figure grows with N. It was 17 534 and
// 55 658 when a peer row was 32 bytes, a Frame 24 and every node held a
// 256-entry region-handler table. The bounds are the measured figures
// plus 5 %.
func TestClusterAssemblyBytesPerNode(t *testing.T) {
	for _, tc := range []struct {
		topo  phys.Topology
		bytes float64
	}{
		{phys.Sharded(8, 16, 1, 50), 12160},
		{phys.Sharded(8, 128, 1, 50), 29034},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := New(Options{Fabric: &tc.topo, Seed: 7, Shards: 1, Wire: wire.V2})
		c.Close()
		runtime.ReadMemStats(&after)
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(tc.topo.Nodes)
		if bound := tc.bytes * 1.05; perNode > bound {
			t.Errorf("assembling %d nodes: %.0f bytes a node, want <= %.0f", tc.topo.Nodes, perNode, bound)
		}
	}
}
