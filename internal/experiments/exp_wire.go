package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/sim"
)

// E15Scenario is one E15 run: an 8-ring sharded fabric (200 m
// inter-shard trunks), a crash+reboot of the highest node, and a
// Poisson pub-sub stream spanning the shards. It is exported so
// BenchmarkE15WireScale* time exactly the scenario the E15 table and
// BENCH_baseline.json describe (the core scale tests mirror it by
// hand — they cannot import this package without a cycle).
func E15Scenario(nodes int, seed uint64, shards int) core.Scenario {
	topo := phys.Sharded(8, nodes/8, 1, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
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
// ROADMAP.md; wall-clock speedup is machine-bound and measured by
// BenchmarkE15* (BENCH_baseline.json).
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
	nodes := p.Nodes
	if nodes%8 != 0 {
		t.Add(fmt.Sprint(nodes), "-", "-", "ERROR", "node count must divide over 8 shard rings", "", "", "")
		t.Metric("all_identical", 0)
		return t
	}
	identicalAll := 1.0
	var serial []byte
	var delivered uint64
	healNS := sim.NewSample("heal")
	for _, shards := range []int{1, 8} {
		rep, err := E15Scenario(nodes, p.seed(), shards).Run()
		if err != nil {
			t.Add(fmt.Sprint(nodes), "-", fmt.Sprint(shards), "ERROR", err.Error(), "", "", "")
			identicalAll = 0
			continue
		}
		var worst int64
		for _, e := range rep.Events {
			if e.HealNS > worst {
				worst = e.HealNS
			}
		}
		healNS.Observe(float64(worst))
		identical := "serial"
		if shards == 1 {
			serial = rep.JSON()
		} else if bytes.Equal(serial, rep.JSON()) {
			identical = "yes"
		} else {
			identical = "NO"
			identicalAll = 0
		}
		delivered = rep.Loads[0].Delivered
		t.Add(fmt.Sprint(nodes), rep.Wire, fmt.Sprint(shards),
			sim.Time(rep.BootNS).String(), sim.Time(worst).String(),
			fmt.Sprint(rep.Loads[0].Delivered), fmt.Sprint(rep.Drops), identical)
	}
	t.Metric("heal_ns_max", healNS.Max())
	t.Metric("delivered_total", float64(delivered))
	t.Metric("all_identical", identicalAll)
	t.Note("every row is beyond the v1 wire format's 255-node address space (wire v2, uint16 addresses)")
	t.Note("identical=yes: the sharded Report JSON is byte-identical to the serial engine's at this scale")
	t.Note("liveness cadences are retuned for fabric size (join/keepalive/heartbeat), as real deployments do")
	return t
}
