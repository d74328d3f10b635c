package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// E16ScalingEfficiency shows that sharding is invisible: the same
// faulted, loaded scenario over two fabric shapes at rising shard
// counts, each row giving the partition the cut-aware assigner chose,
// its cut and the lookahead that cut buys (pure functions of the
// topology and the shard count), the worst heal, and whether the
// sharded Report is byte-identical to the one-shard run's. Engine cost
// (events, windows, barriers, frames exchanged) is not a Report
// quantity: TestSummaryGolden and bench/ pin it, and wall-clock speedup
// is measured on demand by the BenchmarkE16Scaling* family
// (bench_test.go, over the same E16Study).
//
// Nodes sizes both shapes (default 96); Switches fixes the
// switch/shard-group count (default 8). Shard counts swept are 1
// (serial), 2, 4 and Switches.
func E16ScalingEfficiency(p Params) *Table {
	p = p.Merged(Params{Nodes: 96, Switches: 8, FiberM: 50})
	t := &Table{
		ID:     "E16",
		Title:  "sharding is invisible: partition, cut and lookahead vs shards × fabric shape, Reports byte-identical",
		Header: []string{"fabric", "shards", "partition", "cut", "lookahead", "heal", "identical"},
	}
	for _, shape := range studyShapes {
		topo, err := studyFabric(shape, p)
		if err != nil {
			t.Add(shape, "-", "ERROR", err.Error(), "", "", "")
			continue
		}
		run := func(shards int) (*core.Report, error) {
			return E16Study.Scenario("e16-"+shape, topo, p.seed(), shards).Run()
		}
		row := func(shards int, rep *core.Report, err error, verdict string) {
			if err != nil {
				t.Add(shape, fmt.Sprint(shards), "ERROR", err.Error(), "", "", "")
				return
			}
			d := rep.Det
			lookahead := "∞"
			if d.Lookahead != sim.MaxTime {
				lookahead = d.Lookahead.String()
			}
			t.Add(shape, fmt.Sprint(shards), d.Assign.Partition(), fmt.Sprint(d.Assign.CutLinks), lookahead,
				worstHeal(rep).String(), verdict)
		}
		shardSweep(shardCounts(p.Switches), run, row)
	}
	t.Note("partition: switch→shard map chosen by the cut-aware assigner (phys.AssignShards);")
	t.Note("cut: links crossing shards; lookahead: the window the shortest cut fiber buys.")
	t.Note("identical=yes: the sharded run's Report JSON is byte-identical to the serial engine's")
	t.Note("Wall-clock speedup is machine-bound: measured on demand by BenchmarkE16Scaling* (bench_test.go)")
	return t
}
