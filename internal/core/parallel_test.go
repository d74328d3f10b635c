package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/rostering"
	"repro/internal/sim"
)

// equivalenceFabrics are the five shapes of the serial/parallel
// equivalence battery.
func equivalenceFabrics() []phys.Topology {
	return []phys.Topology{
		phys.Uniform(8, 4, 50),
		phys.DualRing(6, 50),
		phys.Mesh(8, 4, 50),
		phys.Sharded(2, 4, 2, 50),
		phys.Sharded(4, 3, 1, 50),
	}
}

// equivalenceScenario is the common scenario of the battery: a fault
// plan spanning node crash/reboot and switch death/restore, a paced
// pub/sub stream, a Poisson pub/sub stream and cache churn.
func equivalenceScenario(topo *phys.Topology, seed uint64, shards int) Scenario {
	return Scenario{
		Name: "equivalence",
		Opts: Options{Fabric: topo, Seed: seed, Shards: shards, Regions: map[uint8]int{2: 1024}},
		Plan: Plan{
			CrashNode(4*sim.Millisecond, topo.Nodes-1),
			FailSwitch(8*sim.Millisecond, topo.Switches-1),
			RebootNode(14*sim.Millisecond, topo.Nodes-1),
			RestoreSwitch(18*sim.Millisecond, topo.Switches-1),
		},
		Loads: []Load{
			&PubSubLoad{Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond},
			&PubSubLoad{Name: "poisson", Publisher: 1, Topic: 2, Every: 80 * sim.Microsecond, Poisson: true},
			&CacheChurn{Writer: 2, Record: netcache.Record{Region: 2, Off: 0, Size: 64}, Every: 70 * sim.Microsecond},
		},
		For: 25 * sim.Millisecond,
	}
}

// middlewareScenario is the battery's middleware leg: the common
// scenario plus an AmpIP collective over four nodes on three rings, a
// two-file AmpFiles stream from ring 0 to ring 2 with a gap between the
// files, and DeepPHY with bit errors on every link. On
// phys.Sharded(4, 3, 1, …) each ring hangs off its own switch, so at 2
// and 4 shards both loads span shards; ring 3, whose switch and node
// the plan fail, carries neither.
func middlewareScenario(topo *phys.Topology, seed uint64, shards int) Scenario {
	s := equivalenceScenario(topo, seed, shards)
	s.Name = "middleware"
	s.Opts.DeepPHY, s.Opts.BER = true, 1e-5
	s.Loads = append(s.Loads,
		&CollectiveLoad{Ranks: []int{0, 1, 4, 7}},
		&FileStream{From: 1, To: 7, Size: 64 << 10, Repeat: 2, Gap: 200 * sim.Microsecond})
	return s
}

// TestEquivalenceBattery is the serial/parallel determinism property:
// for every fabric shape × seed, a sharded run's Report JSON is
// byte-identical to the serial run's — the defining guarantee of
// internal/parsim. The middleware leg adds the collective, the file
// stream and the bit-error streams, and checks that each ran.
// CI runs it under -race, which also exercises the engine's barrier
// discipline (shared fabric state must only change while the shards
// are parked).
func TestEquivalenceBattery(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, topo := range equivalenceFabrics() {
		t.Run(topo.Name+fmt.Sprintf("%dx%d", topo.Nodes, topo.Switches), func(t *testing.T) {
			sameAtEveryShardCount(t, &topo, seeds, equivalenceScenario)
		})
	}
	t.Run("middleware", func(t *testing.T) {
		topo := phys.Sharded(4, 3, 1, 50)
		for _, shards := range []int{2, 4} {
			assign, err := phys.AssignShards(&topo, shards)
			if err != nil {
				t.Fatal(err)
			}
			// Node 1 is a rank and the sender; node 7 a rank and the receiver.
			if on := assign.NodeShard; on[1] == on[7] {
				t.Fatalf("at %d shards nodes 1 and 7 share a shard (%v): the leg would test no load spanning shards", shards, on)
			}
		}
		serial := sameAtEveryShardCount(t, &topo, seeds, middlewareScenario)
		for _, rep := range serial {
			coll, files := rep.Loads[3], rep.Loads[4]
			// Sent == 2: a file was queued and the next-file step ran;
			// Files > 0: the receiver, on another shard, counted one.
			// Bit errors may leave a file incomplete or corrupt; that is
			// the model, and it too must not depend on the shard count.
			if coll.Iters == 0 || files.Sent != 2 || files.Files == 0 || rep.Frames.Losses["crc"] == 0 {
				t.Fatalf("seed=%d: the leg did not do its work: %d collective iterations, %d files sent, %d received, %d CRC losses",
					rep.Seed, coll.Iters, files.Sent, files.Files, rep.Frames.Losses["crc"])
			}
		}
	})
}

// sameAtEveryShardCount runs scenario at 1, 2 and 4 shards (as many as
// the fabric has switches) for every seed, fails on the first Report
// that differs from the serial run's, and returns the serial Reports.
func sameAtEveryShardCount(t *testing.T, topo *phys.Topology, seeds []uint64,
	scenario func(*phys.Topology, uint64, int) Scenario) []*Report {
	t.Helper()
	var serials []*Report
	for _, seed := range seeds {
		serialRep, err := scenario(topo, seed, 1).Run()
		if err != nil {
			t.Fatalf("serial seed=%d: %v", seed, err)
		}
		serials = append(serials, serialRep)
		serial := serialRep.JSON()
		for _, shards := range []int{2, 4} {
			if shards > topo.Switches {
				continue
			}
			parRep, err := scenario(topo, seed, shards).Run()
			if err != nil {
				t.Fatalf("seed=%d shards=%d: %v", seed, shards, err)
			}
			if par := parRep.JSON(); !bytes.Equal(serial, par) {
				t.Fatalf("seed=%d shards=%d: report diverged from serial\n--- serial ---\n%s--- shards=%d ---\n%s",
					seed, shards, serial, shards, par)
			}
		}
	}
	return serials
}

// TestAgentsShareOneRosterPerShard: the rostering agents of a shard
// share one Rounds, so after boot they hold one *Roster; a Rounds is
// never shared across shards, so each shard built its own, and every
// one renders the same ring.
func TestAgentsShareOneRosterPerShard(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	c := New(Options{Fabric: &topo, Seed: 7, Shards: 2})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c, 2*sim.Millisecond)
	var held [2]*rostering.Roster
	for i, nd := range c.Nodes {
		r, sh := nd.Agent.Roster(), c.Phys.ShardOfNode(i)
		switch {
		case r == nil:
			t.Fatalf("node %d has no roster", i)
		case held[sh] == nil:
			held[sh] = r
		case r != held[sh]:
			t.Fatalf("node %d on shard %d holds its own roster %v, not its shard's", i, sh, r)
		}
	}
	if held[0] == nil || held[1] == nil {
		t.Fatalf("a shard without nodes: %v", c.Phys.Assign.NodeShard)
	}
	if held[0] == held[1] {
		t.Fatal("two shards share one roster")
	}
	if !held[0].Identical(held[1]) || held[0].Size() != topo.Nodes {
		t.Fatalf("the shards adopted different rings:\n %v\n %v", held[0], held[1])
	}
}

// TestOnGridFaultEquivalence pins the same-instant plan-action ordering
// contract: a fault scheduled at the exact instant of a model event
// (here, the fleet-wide keepalive tick, armed before boot) must still
// produce byte-identical one-shard and sharded reports. The engine
// fires plan actions at a window fence before any model event at that
// instant, at every shard count (see parsim.Engine.Schedule), so fault
// instants need no skew off the timer grid; this test aims dead-on.
func TestOnGridFaultEquivalence(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	const keepalive = 2 * sim.Millisecond
	build := func(shards int, plan Plan) Scenario {
		return Scenario{
			Name: "ongrid",
			Opts: Options{Fabric: &topo, Seed: 7, Shards: shards,
				KeepaliveInterval: keepalive},
			Plan:  plan,
			Loads: []Load{&PubSubLoad{Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond}},
			For:   12 * sim.Millisecond,
		}
	}
	// Probe run: learn when boot ends, so the fault offset can land the
	// absolute fault instant exactly on the next keepalive grid point
	// (keepalive loops are armed at t=0, before boot completes).
	probe, err := build(1, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	boot := sim.Time(probe.BootNS)
	crashAt := keepalive - boot%keepalive // boot + crashAt ≡ 0 mod keepalive
	plan := Plan{
		CrashNode(crashAt, topo.Nodes-1),
		RebootNode(crashAt+2*keepalive, topo.Nodes-1),
	}
	serialRep, err := build(1, plan).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Time(serialRep.BootNS); got != boot {
		t.Fatalf("probe boot %v vs plan-run boot %v: fault no longer on-grid", boot, got)
	}
	parRep, err := build(2, plan).Run()
	if err != nil {
		t.Fatal(err)
	}
	if serial, par := serialRep.JSON(), parRep.JSON(); !bytes.Equal(serial, par) {
		t.Errorf("on-grid fault at boot+%v diverged serial vs 2 shards\n--- serial ---\n%s--- parallel ---\n%s",
			crashAt, serial, par)
	}
}

// TestDecoupledPartitionRuns pins the sim.MaxTime lookahead sentinel:
// a zero-trunk fabric whose shards share nothing gives
// phys.Lookahead = sim.MaxTime ("any window is safe"), and the engine's
// window arithmetic (start + lookahead) must clamp instead of
// overflowing sim.Time. The run must terminate, report the sentinel,
// and still be byte-identical to serial.
func TestDecoupledPartitionRuns(t *testing.T) {
	// Two isolated 3-node islands: no trunks, nodes attached only to
	// their island's switch. Nothing ever crosses shards.
	topo := phys.Topology{
		Name: "islands", Nodes: 6, Switches: 2, FiberM: 50,
		Attached: func(n, s int) bool { return n/3 == s },
	}
	run := func(shards int) *Report {
		rep, err := Scenario{
			Name: "decoupled",
			Opts: Options{Fabric: &topo, Seed: 5, Shards: shards},
			For:  8 * sim.Millisecond,
		}.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return rep
	}
	serial := run(1)
	par := run(2)
	if !bytes.Equal(serial.JSON(), par.JSON()) {
		t.Errorf("decoupled run diverged serial vs 2 shards\n--- serial ---\n%s--- parallel ---\n%s",
			serial.JSON(), par.JSON())
	}
	// Decoupled two ways — two shards nothing crosses, one shard — and
	// both say so.
	for _, rep := range []*Report{par, serial} {
		if rep.Det.Lookahead != sim.MaxTime {
			t.Fatalf("shards=%d: decoupled lookahead = %d, want sim.MaxTime sentinel", rep.Det.Assign.Shards, rep.Det.Lookahead)
		}
		if !strings.Contains(rep.Summary(), "lookahead unbounded") {
			t.Fatalf("shards=%d: Summary does not surface the decoupled partition:\n%s", rep.Det.Assign.Shards, rep.Summary())
		}
	}
	if p, s := par.Det.Assign, serial.Det.Assign; p.Shards != 2 || p.Partition() != "0,1" || s.Shards != 1 || s.Partition() != "0,0" {
		t.Fatalf("partition observability: %d shards [%s] and %d shards [%s], want 2 [0,1] and 1 [0,0]",
			p.Shards, p.Partition(), s.Shards, s.Partition())
	}
}

// TestParallelRejectsUnsupportedLoads pins the shard contract on one
// table. A default cluster is one shard: everything assigned to shard
// 0, the engine's stats one shard wide. Under Shards: 2, BER and every
// load run, a collective over every node included, and a fabric with
// fewer switches than shards is refused.
func TestParallelRejectsUnsupportedLoads(t *testing.T) {
	c := New(Options{})
	defer c.Close()
	if c.Phys.Assign.Shards != 1 || len(c.Nets) != 1 || c.ParStats() == nil ||
		len(c.ShardParStats()) != 1 || c.Lookahead() != sim.MaxTime {
		t.Fatalf("New(Options{}): Assign=%+v Nets=%d ParStats=%v ShardParStats=%v Lookahead=%v; want the one-shard contract",
			c.Phys.Assign, len(c.Nets), c.ParStats(), c.ShardParStats(), c.Lookahead())
	}

	topo := phys.Uniform(4, 2, 50)
	assign, err := phys.AssignShards(&topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	var on [2][]int // the nodes of each shard
	for n, sh := range assign.NodeShard {
		on[sh] = append(on[sh], n)
	}
	if len(on[0]) < 2 || len(on[1]) < 1 {
		t.Fatalf("partition %v leaves no shard pair to test", assign.NodeShard)
	}
	a, b := on[0][0], on[0][1] // a, b share a shard
	cases := []struct {
		name  string
		apply func(*Scenario)
	}{
		{"BER", func(s *Scenario) { s.Opts.DeepPHY, s.Opts.BER = true, 1e-6 }},
		{"collective on one shard", func(s *Scenario) { s.Loads = []Load{&CollectiveLoad{Ranks: on[0], Iters: 1}} }},
		{"filestream on one shard", func(s *Scenario) { s.Loads = []Load{&FileStream{From: a, To: b, Size: 4096}} }},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			sc := Scenario{Opts: Options{Fabric: &topo, Shards: shards}, For: 2 * sim.Millisecond}
			tc.apply(&sc)
			if _, err := sc.Run(); err != nil {
				t.Errorf("%s at %d shards: %v, want accepted", tc.name, shards, err)
			}
		}
	}
	// StartLoad runs a collective over every node at 2 shards.
	func() {
		c := New(Options{Fabric: &topo, Shards: 2})
		defer c.Close()
		if err := c.Boot(0); err != nil {
			t.Fatal(err)
		}
		job := c.StartLoad(&CollectiveLoad{Iters: 1})
		if err := c.WaitUntil(job.Done, 5*sim.Millisecond); err != nil || job.Report().Iters != 1 {
			t.Errorf("a collective over every node at 2 shards: %v, %d iterations, want 1", err, job.Report().Iters)
		}
	}()
	over := Scenario{Opts: Options{Fabric: &topo, Shards: 3}} // only 2 switches: a shard would own none
	if _, err := over.Run(); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("more shards than switches: err = %v, want error", err)
	}
}

// TestQuiescedCollectiveClosesEveryOp: Quiesce stops a collective's
// ranks at one common iteration, the highest any of them has in flight,
// so every op some rank issued completes. After the settle no rank's
// Comm holds an open op, and from then on nothing is retransmitted and
// no iteration completes. Ranks straddle an iteration boundary at some
// instants and not at others, so the job is quiesced at several.
func TestQuiescedCollectiveClosesEveryOp(t *testing.T) {
	topo := phys.Uniform(8, 2, 50)
	for _, shards := range []int{1, 2} {
		for at := 3 * sim.Millisecond; at < 3*sim.Millisecond+40*sim.Microsecond; at += 5 * sim.Microsecond {
			c := New(Options{Fabric: &topo, Seed: 3, Shards: shards})
			if err := c.Boot(0); err != nil {
				t.Fatal(err)
			}
			job := c.StartLoad(&CollectiveLoad{})
			mustRun(t, c, at)
			job.Quiesce()
			mustRun(t, c, 2*sim.Millisecond)
			resends := func() (n uint64) {
				for _, r := range job.ranks {
					n += r.comm.Resends
				}
				return n
			}
			for i, r := range job.ranks {
				if n := r.comm.Open(); n != 0 {
					t.Fatalf("%d shards, quiesced %v after boot: rank %d holds %d open ops after the settle", shards, at, i, n)
				}
			}
			iters, sent := job.rep.Iters, resends()
			mustRun(t, c, 5*sim.Millisecond)
			if job.rep.Iters != iters || resends() != sent {
				t.Fatalf("%d shards, quiesced %v after boot: iterations %d → %d and resends %d → %d after the settle, want both still",
					shards, at, iters, job.rep.Iters, sent, resends())
			}
			c.Close()
		}
	}
}

// TestInstallFromEventCallbackRefused: Install and Now are
// driver-context only. From inside a model event the action queue and
// the engine clock are coordinator state (a data race under shards),
// an action landing before the running window's end would pull the
// clock backwards, and the engine clock is the window's start, not the
// event's instant. So the engine refuses with one named error, sticky,
// naming the shard and window — at one shard as at two.
func TestInstallFromEventCallbackRefused(t *testing.T) {
	const want = "parsim: engine clock or action queue used from inside a window"
	topo := phys.Sharded(2, 4, 2, 50)
	for _, shards := range []int{1, 2} {
		for _, tc := range []struct {
			name string
			call func(c *Cluster)
		}{
			{"Install", func(c *Cluster) { _ = c.Install(Plan{CrashNode(sim.Millisecond, topo.Nodes-1)}) }},
			{"Now", func(c *Cluster) { _ = c.Now() }},
		} {
			c := New(Options{Fabric: &topo, Shards: shards})
			defer c.Close()
			if err := c.Boot(0); err != nil {
				t.Fatal(err)
			}
			c.Nodes[0].K.After(sim.Millisecond, func() { tc.call(c) })
			start := c.Now()
			err := c.Run(5 * sim.Millisecond)
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "shard 0 panicked in window") {
				t.Errorf("shards=%d: in-window %s ended with %v, want %q naming shard 0 and its window", shards, tc.name, err, want)
			}
			if again := c.Run(5 * sim.Millisecond); again != err {
				t.Errorf("shards=%d: %s: second Run returned %v, want the sticky %v", shards, tc.name, again, err)
			}
			if c.Now() < start || len(c.Applied()) != 0 {
				t.Errorf("shards=%d: %s: clock %v (started %v), applied %v; the refused plan must not run", shards, tc.name, c.Now(), start, c.Applied())
			}
		}
	}
}

// TestPoissonLoadDeterministicAndBursty verifies the Poisson arrival
// option: same seed ⇒ identical report; different seed ⇒ different
// arrival pattern; and the inter-arrival stream is actually bursty
// (not the fixed cadence).
func TestPoissonLoadDeterministicAndBursty(t *testing.T) {
	topo := phys.Uniform(4, 2, 50)
	run := func(seed uint64) *Report {
		rep, err := Scenario{
			Opts:  Options{Fabric: &topo, Seed: seed},
			Loads: []Load{&PubSubLoad{Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond, Poisson: true}},
			For:   10 * sim.Millisecond,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(3), run(3)
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatal("same-seed Poisson runs diverge")
	}
	c := run(4)
	if a.Loads[0].Sent == c.Loads[0].Sent && a.Loads[0].MaxLatencyNS == c.Loads[0].MaxLatencyNS {
		t.Fatal("different seeds produced an identical Poisson stream (suspicious)")
	}
	// A 10 ms run at a 100 µs mean holds ~100 arrivals; a fixed cadence
	// would send exactly 100. Expect the Poisson count to differ.
	if a.Loads[0].Sent == 100 {
		t.Fatalf("Poisson stream sent exactly the fixed-cadence count (%d): not bursty", a.Loads[0].Sent)
	}
}

// TestLargeFabricSmoke boots the largest addressable fabric — 248
// nodes over 8 sharded switch groups, the ceiling of the one-byte
// MicroPacket address space — on 8 shards, and requires it
// to heal to a full ring within a wall-clock budget. This is the
// scale smoke CI runs; the serial-vs-parallel speedup at this size is
// recorded by the E14 benchmarks.
func TestLargeFabricSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large fabric smoke skipped in -short")
	}
	topo := phys.Sharded(8, 31, 1, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
	start := time.Now()
	rep, err := Scenario{
		Name: "large-fabric",
		Opts: Options{Fabric: &topo, Seed: 1, Shards: 8,
			HeartbeatInterval: 2 * sim.Millisecond},
		BootWindow: 200 * sim.Millisecond,
		Loads:      []Load{&PubSubLoad{Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond, Subscribers: []int{31, 62, 124, 247}}},
		For:        5 * sim.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RingSize != topo.Nodes || !rep.Healed {
		t.Fatalf("large fabric did not heal: ring=%d healed=%v", rep.RingSize, rep.Healed)
	}
	if rep.Drops != 0 {
		t.Fatalf("congestion drops at scale: %d", rep.Drops)
	}
	if wall := time.Since(start); wall > 5*time.Minute {
		t.Fatalf("large fabric smoke took %v, budget 5m", wall)
	}
}
