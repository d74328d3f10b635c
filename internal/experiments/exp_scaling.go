package experiments

import (
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
// and measured on demand by the BenchmarkE16Scaling* family
// (bench_test.go, over the same E16Study); this table is the seed-pure
// part.
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
	for _, shape := range studyShapes {
		topo, err := studyFabric(shape, p)
		if err != nil {
			t.Add(shape, "-", "ERROR", err.Error(), "", "", "", "", "", "", "")
			continue
		}
		var cl *core.Cluster
		run := func(shards int) (*core.Report, error) {
			sc := E16Study.Scenario("e16-"+shape, topo, p.seed(), shards)
			sc.OnCluster = func(c *core.Cluster) { cl = c }
			return sc.Run()
		}
		row := func(shards int, rep *core.Report, err error, verdict string) {
			if err != nil {
				t.Add(shape, fmt.Sprint(shards), "ERROR", err.Error(), "", "", "", "", "", "", "")
				return
			}
			d := rep.Det
			lookahead := "∞"
			events := cl.EventsFired()
			evPerWin := float64(events) / float64(max(d.Windows, 1))
			if d.Lookahead != sim.MaxTime {
				lookahead = d.Lookahead.String()
			}
			t.Add(shape, fmt.Sprint(shards), d.Assign.Partition(), fmt.Sprint(d.Assign.CutLinks), lookahead,
				fmt.Sprint(d.Windows), fmt.Sprint(d.Barriers), fmt.Sprint(d.Frames),
				fmt.Sprint(events), fmt.Sprintf("%.0f", evPerWin), verdict)
		}
		shardSweep(shardCounts(p.Switches), run, row)
	}
	t.Note("partition: switch→shard map chosen by the cut-aware assigner (phys.AssignShards);")
	t.Note("cut: links crossing shards; lookahead: the window the shortest cut fiber buys.")
	t.Note("Efficiency rises with ev/win — deeper windows amortize each barrier over more events.")
	t.Note("Wall-clock speedup is machine-bound: measured on demand by BenchmarkE16Scaling* (bench_test.go)")
	return t
}
