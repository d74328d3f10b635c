package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/sim"
)

// The engine studies — E14 to E17 and the root benchmarks named after
// them — run one kind of scenario: a fabric of rings, a fault in the
// middle of a pub/sub stream, the same run at rising shard counts with
// every Report compared to the one-shard run's bytes. This file spells
// that once; each experiment keeps its columns and its notes.

// RingsFabric is the studies' fabric: `nodes` nodes spread evenly over
// `rings` one-switch rings on fiberM of fiber, adjacent rings joined by
// 200 m trunks (the longer trunk is the realistic machine-room
// assumption — and a deeper lookahead for the engine).
func RingsFabric(rings, nodes int, fiberM float64) (phys.Topology, error) {
	if rings < 1 || nodes < rings || nodes%rings != 0 {
		return phys.Topology{}, fmt.Errorf("experiments: %d nodes do not divide over %d rings", nodes, rings)
	}
	t := phys.Sharded(rings, nodes/rings, 1, fiberM)
	for i := range t.Trunks {
		t.Trunks[i].FiberM = 200
	}
	return t, nil
}

// studyFabric builds one of the two shapes E14 and E16 sweep: the
// paper's uniform segment, or the rings fabric with one ring per switch.
func studyFabric(shape string, p Params) (phys.Topology, error) {
	if shape == "uniform" {
		return phys.Uniform(p.Nodes, p.Switches, p.FiberM), nil
	}
	return RingsFabric(p.Switches, p.Nodes, p.FiberM)
}

// studyShapes are studyFabric's shape names, in table order.
var studyShapes = []string{"uniform", "sharded"}

// Study is the fault and load an engine study runs on a fabric: the
// highest switch dies at FailAt and returns at RestoreAt (offsets from
// the end of boot) while node 0 publishes every 100 µs to nodes 1,
// Nodes/2 and Nodes−LastSub, for For. There are exactly two.
type Study struct {
	FailAt, RestoreAt, For sim.Time
	LastSub                int
	Poisson                bool // exponential inter-arrival times instead of a fixed cadence
}

var (
	// E14Study is E14's run. BenchmarkE14Parsim* time it at a fixed
	// cadence (Poisson off), as they always have.
	E14Study = Study{FailAt: 5 * sim.Millisecond, RestoreAt: 15 * sim.Millisecond, For: 20 * sim.Millisecond,
		LastSub: 1, Poisson: true}
	// E16Study is the run of E16, E17 and BenchmarkE16Scaling*.
	E16Study = Study{FailAt: 6 * sim.Millisecond, RestoreAt: 12 * sim.Millisecond, For: 18 * sim.Millisecond,
		LastSub: 2}
)

// Scenario is the study on topo at one shard count. A sweep gives every
// shard count the same name: the Report must be byte-identical across
// them, name included.
func (s Study) Scenario(name string, topo phys.Topology, seed uint64, shards int) core.Scenario {
	last := topo.Switches - 1
	return core.Scenario{
		Name: name,
		Opts: core.Options{Fabric: &topo, Seed: seed, Shards: shards,
			HeartbeatInterval: 1 * sim.Millisecond},
		BootWindow: 200 * sim.Millisecond,
		// FailSwitch/RestoreSwitch exercises heal + reroute under load
		// and is byte-identical at every shard count at these sizes.
		Plan: core.Plan{core.FailSwitch(s.FailAt, last), core.RestoreSwitch(s.RestoreAt, last)},
		Loads: []core.Load{&core.PubSubLoad{
			Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond, Poisson: s.Poisson,
			Subscribers: []int{1, topo.Nodes / 2, topo.Nodes - s.LastSub},
		}},
		For: s.For,
	}
}

// shardCounts is the sweep 1, 2, 4, switches, clamped to the switch
// budget: a shard must own at least one switch.
func shardCounts(switches int) []int {
	var counts []int
	for _, n := range []int{1, 2, 4, switches} {
		if n <= switches && (len(counts) == 0 || n > counts[len(counts)-1]) {
			counts = append(counts, n)
		}
	}
	return counts
}

// shardSweep calls run at each shard count, one shard first, and hands
// row every outcome with its verdict: "serial" for the one-shard run,
// "yes" when a sharded Report's JSON equals that run's byte for byte,
// "NO" when it does not ("" beside an error).
func shardSweep(counts []int, run func(shards int) (*core.Report, error),
	row func(shards int, rep *core.Report, err error, verdict string)) {
	var serial []byte
	for _, shards := range counts {
		rep, err := run(shards)
		verdict := ""
		switch {
		case err != nil:
		case shards == 1:
			verdict, serial = "serial", rep.JSON()
		case bytes.Equal(serial, rep.JSON()):
			verdict = "yes"
		default:
			verdict = "NO"
		}
		row(shards, rep, err, verdict)
	}
}

// worstHeal is the longest self-healing window any plan event caused.
func worstHeal(rep *core.Report) sim.Time {
	var worst int64
	for _, e := range rep.Events {
		worst = max(worst, e.HealNS)
	}
	return sim.Time(worst)
}
