package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/sim"
)

// e14Fabric builds the shape for one row: the paper's uniform segment,
// or the sharded multi-ring cluster with 200 m inter-shard trunks
// (the longer trunk fiber is the realistic machine-room assumption —
// and a deeper lookahead for the engine).
func e14Fabric(shape string, nodes, switches int, fiberM float64) (phys.Topology, error) {
	switch shape {
	case "uniform":
		return phys.Uniform(nodes, switches, fiberM), nil
	case "sharded":
		if nodes%switches != 0 {
			return phys.Topology{}, fmt.Errorf("e14: %d nodes do not divide over %d shard groups", nodes, switches)
		}
		t := phys.Sharded(switches, nodes/switches, 1, fiberM)
		for i := range t.Trunks {
			t.Trunks[i].FiberM = 200
		}
		return t, nil
	default:
		return phys.Topology{}, fmt.Errorf("e14: unknown shape %q", shape)
	}
}

// E14ParsimScale measures what the parallel sharded engine
// (internal/parsim) does to a scenario as shards multiply: the
// cross-shard exchange volume, the window count the conservative
// lookahead dictates, the total event work, the heal time under a
// switch fault — and, the defining property, whether the sharded
// Report stays byte-identical to the one-shard run's.
//
// Everything in the table is a pure function of the seed, so the sweep
// harness can aggregate it; wall-clock speedup is inherently
// machine-bound and is measured by the E14 benchmarks in bench_test.go
// (ns/event, serial vs sharded, recorded in BENCH_baseline.json).
//
// Nodes sizes both shapes (default 64); Switches fixes the
// switch/shard-group count (default 8, the link-state ceiling). Shard
// counts swept are 1 (the serial engine), 2, 4 and Switches.
func E14ParsimScale(p Params) *Table {
	p = p.Merged(Params{Nodes: 64, Switches: 8, FiberM: 50})
	t := &Table{
		ID:     "E14",
		Title:  "parallel sharded engine: fidelity and exchange volume vs fabric shape × shard count",
		Header: []string{"fabric", "nodes", "shards", "windows", "xframes", "events", "heal", "identical"},
	}
	// A shard must own at least one switch, so the sweep clamps to the
	// switch budget (mirroring E13) instead of erroring on small
	// -switches overrides.
	var shardCounts []int
	for _, sc := range []int{1, 2, 4, p.Switches} {
		if sc <= p.Switches && (len(shardCounts) == 0 || sc > shardCounts[len(shardCounts)-1]) {
			shardCounts = append(shardCounts, sc)
		}
	}
	var totalEvents, totalFrames uint64
	identicalAll := 1.0
	healNS := sim.NewSample("heal")
	for _, shape := range []string{"uniform", "sharded"} {
		topo, err := e14Fabric(shape, p.Nodes, p.Switches, p.FiberM)
		if err != nil {
			t.Add(shape, fmt.Sprint(p.Nodes), "-", "ERROR", err.Error(), "", "", "")
			identicalAll = 0
			continue
		}
		var serial []byte
		for _, shards := range shardCounts {
			var cl *core.Cluster
			rep, err := core.Scenario{
				// One name for every shard count: the Report must be
				// byte-identical across engines, name included.
				Name: "e14-" + shape,
				Opts: core.Options{Fabric: &topo, Seed: p.seed(), Shards: shards,
					HeartbeatInterval: 1 * sim.Millisecond, Telemetry: p.Telemetry},
				BootWindow: 100 * sim.Millisecond,
				Plan:       core.Plan{core.FailSwitch(5*sim.Millisecond, p.Switches-1), core.RestoreSwitch(15*sim.Millisecond, p.Switches-1)},
				Loads: []core.Load{&core.PubSubLoad{
					Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond, Poisson: true,
					Subscribers: []int{1, p.Nodes / 2, p.Nodes - 1},
				}},
				For:       20 * sim.Millisecond,
				OnCluster: func(c *core.Cluster) { cl = c },
			}.Run()
			if err != nil {
				t.Add(shape, fmt.Sprint(p.Nodes), fmt.Sprint(shards), "ERROR", err.Error(), "", "", "")
				identicalAll = 0
				continue
			}
			events := cl.EventsFired()
			windows, xframes := rep.Det.Windows, rep.Det.Frames
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
			totalEvents += events
			totalFrames += xframes
			t.Add(shape, fmt.Sprint(p.Nodes), fmt.Sprint(shards),
				fmt.Sprint(windows), fmt.Sprint(xframes), fmt.Sprint(events),
				sim.Time(worst).String(), identical)
		}
	}
	t.Metric("events_total", float64(totalEvents))
	t.Metric("cross_shard_frames_total", float64(totalFrames))
	t.Metric("heal_ns_max", healNS.Max())
	t.Metric("all_identical", identicalAll)
	t.Note("identical=yes: the sharded run's Report JSON is byte-identical to the serial engine's —")
	t.Note("conservative lookahead windows + canonical wire-order tie-breaks, see DESIGN.md")
	t.Note("wall-clock speedup is machine-bound: measured by BenchmarkE14* (BENCH_baseline.json)")
	return t
}
