package core

import (
	"bytes"
	"testing"

	"repro/internal/phys"
	"repro/internal/sim"
)

// TestDualRingSwitchLossHealsTraffic is the acceptance scenario: a
// dual counter-rotating ring loses an entire switch mid-run; the ring
// re-forms on the surviving switch, traffic keeps being delivered
// after the event, and the report is byte-identical across same-seed
// runs.
func TestDualRingSwitchLossHealsTraffic(t *testing.T) {
	run := func() (*Report, int) {
		var c *Cluster
		var eventAt sim.Time
		afterEvent := 0
		topo := phys.DualRing(6, 50)
		rep, err := Scenario{
			Name: "dualring-switch-loss",
			Opts: Options{Fabric: &topo, Seed: 7},
			Plan: Plan{FailSwitch(10*sim.Millisecond, 0)},
			Loads: []Load{&PubSubLoad{
				Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond,
				OnDeliver: func(sub int, _ uint64, _ []byte) {
					if eventAt != 0 && c.Nodes[sub].K.Now() > eventAt {
						afterEvent++
					}
				},
			}},
			For:       30 * sim.Millisecond,
			OnCluster: func(cl *Cluster) { c = cl },
			OnEvent:   func(Event) { eventAt = c.Now() },
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep, afterEvent
	}
	rep, afterEvent := run()
	if rep.Fabric != "dualring" || rep.Trunks != 1 {
		t.Fatalf("report fabric = %q/%d trunks, want dualring/1", rep.Fabric, rep.Trunks)
	}
	if !rep.Healed || rep.RingSize != 6 {
		t.Fatalf("not healed after switch loss: healed=%v ring=%d (%s)", rep.Healed, rep.RingSize, rep.Roster)
	}
	if afterEvent == 0 {
		t.Fatal("no deliveries after the switch failure — traffic did not heal")
	}
	if rep.Drops != 0 {
		t.Fatalf("congestion drops = %d, want 0", rep.Drops)
	}
	rep2, _ := run()
	if !bytes.Equal(rep.JSON(), rep2.JSON()) {
		t.Fatalf("same-seed reports differ:\n%s\n---\n%s", rep.JSON(), rep2.JSON())
	}
}

// TestShardedRingSpansTrunks boots a sharded two-ring cluster whose
// cluster-wide ring can only exist across the inter-shard trunks, and
// checks the roster routes at least one hop over a multi-switch path.
func TestShardedRingSpansTrunks(t *testing.T) {
	topo := phys.Sharded(2, 3, 2, 50)
	c := New(Options{Fabric: &topo})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitHealed(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := c.RingSize(); got != 6 {
		t.Fatalf("ring size = %d, want all 6 nodes (%s)", got, c.Roster())
	}
	r := c.Nodes[0].Agent.Roster()
	crossings := 0
	for _, p := range r.Paths {
		if len(p) > 1 {
			crossings++
		}
	}
	if crossings < 2 {
		t.Fatalf("expected >=2 hops across inter-shard trunks, got %d (%s)", crossings, r)
	}
}

// TestTrunkPartitionAndRemerge cuts every inter-shard trunk: the two
// shards must each settle into their own healed ring (a partitioned
// fabric is healed per live partition), then re-merge into one ring
// when the trunks are restored.
func TestTrunkPartitionAndRemerge(t *testing.T) {
	topo := phys.Sharded(2, 3, 2, 50)
	c := New(Options{Fabric: &topo})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if n := c.Phys.NumTrunks(); n != 2 {
		t.Fatalf("sharded(2,3,2) built %d trunks, want 2", n)
	}
	if err := c.Install(Plan{
		FailTrunk(sim.Millisecond, 0),
		FailTrunk(sim.Millisecond, 1),
	}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c, 2*sim.Millisecond) // let the cuts fire and be detected
	if err := c.WaitUntil(func() bool { return c.Healed() && c.RingSize() == 3 }, 30*sim.Millisecond); err != nil {
		t.Fatalf("partitioned fabric never settled: %v (violations %v)", err, c.InvariantViolations())
	}
	// Two partitions, each a 3-node ring.
	r0, r1 := c.Nodes[0].Agent.Roster(), c.Nodes[3].Agent.Roster()
	if r0.Size() != 3 || r1.Size() != 3 || r0.Contains(3) || r1.Contains(0) {
		t.Fatalf("partition rosters wrong: shard0 %s, shard1 %s", r0, r1)
	}
	if err := c.Install(Plan{
		RestoreTrunk(0, 0),
		RestoreTrunk(0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitUntil(func() bool { return c.Healed() && c.RingSize() == 6 }, 30*sim.Millisecond); err != nil {
		t.Fatalf("fabric never re-merged: %v (ring %s)", err, c.Roster())
	}
}

// TestMeshHealsAroundSwitchLoss: in a trunked mesh no single switch
// sees every node; killing one must still leave a full ring.
func TestMeshHealsAroundSwitchLoss(t *testing.T) {
	topo := phys.Mesh(8, 4, 50)
	c := New(Options{Fabric: &topo})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitHealed(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(Plan{FailSwitch(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitUntil(func() bool { return c.Healed() && c.RingSize() == 8 }, 40*sim.Millisecond); err != nil {
		t.Fatalf("mesh did not heal around the dead switch: %v (ring %s, violations %v)",
			err, c.Roster(), c.InvariantViolations())
	}
}

// TestCounterRotation: on a dual-ring fabric the backup ring (lowest
// live switch odd) runs in the opposite rotation from the primary.
func TestCounterRotation(t *testing.T) {
	topo := phys.DualRing(5, 50)
	c := New(Options{Fabric: &topo})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	before := c.Nodes[0].Agent.Roster()
	primary := append([]int{}, before.Nodes...)
	if err := c.Install(Plan{FailSwitch(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitUntil(func() bool { return c.Healed() && c.RingSize() == 5 }, 30*sim.Millisecond); err != nil {
		t.Fatalf("backup ring never settled: %v (%s)", err, c.Roster())
	}
	after := c.Nodes[0].Agent.Roster()
	// Same node set, reversed rotation: after[k] == primary[(n-k) mod n]
	// up to rotation. Check by walking primary backwards from after[0].
	n := len(primary)
	if len(after.Nodes) != n {
		t.Fatalf("backup ring size %d != %d", len(after.Nodes), n)
	}
	start := -1
	for i, v := range primary {
		if v == after.Nodes[0] {
			start = i
		}
	}
	for k := 0; k < n; k++ {
		want := primary[((start-k)%n+n)%n]
		if after.Nodes[k] != want {
			t.Fatalf("backup ring is not counter-rotated: primary %v, backup %v", primary, after.Nodes)
		}
	}
}
