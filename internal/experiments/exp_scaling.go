package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// E16ScalingEfficiency tabulates the deterministic drivers of parallel
// scaling efficiency as shards multiply over two fabric shapes: the
// partition the cut-aware assigner chose, its cut size and the
// lookahead window it buys, and the window/barrier/exchange volume the
// engine then pays — ending, as always, with the byte-identical check
// against the one-shard run. Wall-clock speedup itself is machine-bound
// and measured by the BenchmarkE16Scaling* family (BENCH_baseline.json,
// enforced by benchguard); this table is the seed-pure part the sweep
// harness can aggregate.
//
// Nodes sizes both shapes (default 96); Switches fixes the
// switch/shard-group count (default 8). Shard counts swept are 1
// (serial), 2, 4 and Switches.
func E16ScalingEfficiency(p Params) *Table {
	p = p.Merged(Params{Nodes: 96, Switches: 8, FiberM: 50})
	t := &Table{
		ID:     "E16",
		Title:  "scaling efficiency: partition, lookahead and barrier economics vs shards × fabric shape",
		Header: []string{"fabric", "shards", "partition", "cut", "lookahead", "windows", "barriers", "xframes", "events", "ev/win", "identical"},
	}
	var shardCounts []int
	for _, sc := range []int{1, 2, 4, p.Switches} {
		if sc <= p.Switches && (len(shardCounts) == 0 || sc > shardCounts[len(shardCounts)-1]) {
			shardCounts = append(shardCounts, sc)
		}
	}
	identicalAll := 1.0
	var minLookahead, maxEvPerWin float64
	for _, shape := range []string{"uniform", "sharded"} {
		topo, err := e14Fabric(shape, p.Nodes, p.Switches, p.FiberM)
		if err != nil {
			t.Add(shape, "-", "ERROR", err.Error(), "", "", "", "", "", "", "")
			identicalAll = 0
			continue
		}
		var serial []byte
		for _, shards := range shardCounts {
			var cl *core.Cluster
			rep, err := core.Scenario{
				Name: "e16-" + shape,
				Opts: core.Options{Fabric: &topo, Seed: p.seed(), Shards: shards,
					HeartbeatInterval: 1 * sim.Millisecond, Telemetry: p.Telemetry},
				BootWindow: 100 * sim.Millisecond,
				// FailSwitch/RestoreSwitch, the E14 fault family: it exercises
				// heal + reroute under load and is byte-identical across engines
				// at this scale. (Crash-node faults at 96 nodes on the sharded
				// shape hit a latent heal-boundary divergence that predates this
				// experiment — see ROADMAP.md.)
				Plan: core.Plan{core.FailSwitch(6*sim.Millisecond, p.Switches-1), core.RestoreSwitch(12*sim.Millisecond, p.Switches-1)},
				Loads: []core.Load{&core.PubSubLoad{
					Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond,
					Subscribers: []int{1, p.Nodes / 2, p.Nodes - 2},
				}},
				For:       18 * sim.Millisecond,
				OnCluster: func(c *core.Cluster) { cl = c },
			}.Run()
			if err != nil {
				t.Add(shape, fmt.Sprint(shards), "ERROR", err.Error(), "", "", "", "", "", "", "")
				identicalAll = 0
				continue
			}
			d := rep.Det
			lookahead := "∞"
			events := cl.EventsFired()
			evPerWin := float64(events) / float64(max(d.Windows, 1))
			// The ev/win metric is about windows the lookahead bounds;
			// an unbounded window (one shard) is as long as the driver's
			// step and would swamp it.
			if d.Lookahead != sim.MaxTime {
				lookahead = d.Lookahead.String()
				maxEvPerWin = max(maxEvPerWin, evPerWin)
				if minLookahead == 0 || float64(d.Lookahead) < minLookahead {
					minLookahead = float64(d.Lookahead)
				}
			}
			identical := "serial"
			if shards == 1 {
				serial = rep.JSON()
			} else if bytes.Equal(serial, rep.JSON()) {
				identical = "yes"
			} else {
				identical = "NO"
				identicalAll = 0
			}
			t.Add(shape, fmt.Sprint(shards), rep.Partition, fmt.Sprint(rep.CutLinks), lookahead,
				fmt.Sprint(d.Windows), fmt.Sprint(d.Barriers), fmt.Sprint(d.Frames),
				fmt.Sprint(events), fmt.Sprintf("%.0f", evPerWin), identical)
		}
	}
	t.Metric("all_identical", identicalAll)
	t.Metric("min_lookahead_ns", minLookahead)
	t.Metric("max_events_per_window", maxEvPerWin)
	t.Note("partition: switch→shard map chosen by the cut-aware assigner (phys.AssignShards);")
	t.Note("cut: links crossing shards; lookahead: the window the shortest cut fiber buys.")
	t.Note("Efficiency rises with ev/win — deeper windows amortize each barrier over more events.")
	t.Note("Wall-clock speedup is machine-bound: BenchmarkE16Scaling* (guarded in BENCH_baseline.json)")
	return t
}
