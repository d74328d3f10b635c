package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/sim"
)

// E15Scenario is one E15 run on a RingsFabric of 8 rings: a
// crash+reboot of the highest node and a Poisson pub-sub stream spanning
// the rings. It is exported so BenchmarkE15WireScale* time exactly the
// scenario the E15 table describes (the core scale tests mirror it by
// hand — they cannot import this package without a cycle).
func E15Scenario(topo phys.Topology, seed uint64, shards int) core.Scenario {
	nodes := topo.Nodes
	return core.Scenario{
		Name: "e15-scale",
		// The liveness cadences are slowed to big-fabric values: the
		// defaults are calibrated for room-sized rings and would drown a
		// thousand-node fabric in heartbeat and keepalive chatter.
		Opts: core.Options{Fabric: &topo, Seed: seed, Shards: shards,
			HeartbeatInterval: 5 * sim.Millisecond,
			JoinTimeout:       20 * sim.Millisecond,
			KeepaliveInterval: 2 * sim.Millisecond,
			SilenceTimeout:    10 * sim.Millisecond},
		BootWindow: sim.Time(nodes) * 2 * sim.Millisecond,
		Plan: core.Plan{
			core.CrashNode(2*sim.Millisecond, nodes-1),
			core.RebootNode(4*sim.Millisecond, nodes-1),
		},
		Loads: []core.Load{&core.PubSubLoad{
			Publisher: 0, Topic: 1, Every: 200 * sim.Microsecond, Poisson: true,
			Subscribers: []int{1, nodes / 4, nodes / 2, nodes - 2},
		}},
		For: 12 * sim.Millisecond,
		// Settle outlasts the post-reboot re-roster churn (~17 ms at
		// 1024 nodes) plus join-retry margin; see the scale tests.
		Settle: 20 * sim.Millisecond,
	}
}

// E15WireScale measures scaling past the one-byte MicroPacket address
// space: fabrics the v1 wire format cannot address at all (>255 nodes,
// auto-selecting wire v2) booting, healing through a node crash and
// delivering seeded Poisson pub-sub traffic — serial vs sharded, with
// the defining byte-identical-Report check at every size. It is the
// E14 story continued past the address ceiling the seed recorded in
// ROADMAP.md; wall-clock speedup is machine-bound and measured on
// demand by BenchmarkE15WireScale* (bench_test.go).
//
// Nodes must divide over the 8 shard rings and exceed the v1 ceiling
// to be meaningful (default 320); shard counts swept are 1 (serial)
// and 8.
func E15WireScale(p Params) *Table {
	p = p.Merged(Params{Nodes: 320})
	t := &Table{
		ID:     "E15",
		Title:  "wire v2 scaling past 255 nodes: boot, heal and Poisson delivery, serial vs sharded",
		Header: []string{"nodes", "wire", "shards", "boot", "heal", "delivered", "drops", "identical"},
	}
	nodes := fmt.Sprint(p.Nodes)
	topo, err := RingsFabric(8, p.Nodes, 50)
	if err != nil {
		t.Add(nodes, "-", "-", "ERROR", err.Error(), "", "", "")
		t.Metric("all_identical", 0)
		return t
	}
	var delivered uint64
	healNS := sim.NewSample("heal")
	run := func(shards int) (*core.Report, error) {
		return E15Scenario(topo, p.seed(), shards).Run()
	}
	row := func(shards int, rep *core.Report, err error, verdict string) {
		if err != nil {
			t.Add(nodes, "-", fmt.Sprint(shards), "ERROR", err.Error(), "", "", "")
			return
		}
		worst := worstHeal(rep)
		healNS.Observe(float64(worst))
		delivered = rep.Loads[0].Delivered
		t.Add(nodes, rep.Wire, fmt.Sprint(shards),
			sim.Time(rep.BootNS).String(), worst.String(),
			fmt.Sprint(delivered), fmt.Sprint(rep.Drops), verdict)
	}
	identical := shardSweep([]int{1, 8}, run, row)
	t.Metric("heal_ns_max", healNS.Max())
	t.Metric("delivered_total", float64(delivered))
	t.Metric("all_identical", boolMetric(identical))
	t.Note("every row is beyond the v1 wire format's 255-node address space (wire v2, uint16 addresses)")
	t.Note("identical=yes: the sharded Report JSON is byte-identical to the serial engine's at this scale")
	t.Note("liveness cadences are retuned for fabric size (join/keepalive/heartbeat), as real deployments do")
	return t
}
