package experiments

import (
	"fmt"

	"repro/internal/core"
)

// E14ParsimScale measures what the parallel sharded engine
// (internal/parsim) does to a scenario as shards multiply: the
// cross-shard exchange volume, the window count the conservative
// lookahead dictates, the total event work, the heal time under a
// switch fault — and, the defining property, whether the sharded
// Report stays byte-identical to the one-shard run's.
//
// Everything in the table is a pure function of the seed; wall-clock
// speedup is inherently machine-bound and is measured on demand by BenchmarkE14Parsim* in
// bench_test.go (ns/event, serial vs sharded, over the same E14Study).
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
	for _, shape := range studyShapes {
		topo, err := studyFabric(shape, p)
		if err != nil {
			t.Add(shape, fmt.Sprint(p.Nodes), "-", "ERROR", err.Error(), "", "", "")
			continue
		}
		var cl *core.Cluster
		run := func(shards int) (*core.Report, error) {
			sc := E14Study.Scenario("e14-"+shape, topo, p.seed(), shards)
			sc.OnCluster = func(c *core.Cluster) { cl = c }
			return sc.Run()
		}
		row := func(shards int, rep *core.Report, err error, verdict string) {
			if err != nil {
				t.Add(shape, fmt.Sprint(p.Nodes), fmt.Sprint(shards), "ERROR", err.Error(), "", "", "")
				return
			}
			t.Add(shape, fmt.Sprint(p.Nodes), fmt.Sprint(shards),
				fmt.Sprint(rep.Det.Windows), fmt.Sprint(rep.Det.Frames), fmt.Sprint(cl.EventsFired()),
				worstHeal(rep).String(), verdict)
		}
		shardSweep(shardCounts(p.Switches), run, row)
	}
	t.Note("identical=yes: the sharded run's Report JSON is byte-identical to the serial engine's —")
	t.Note("conservative lookahead windows + canonical wire-order tie-breaks, see DESIGN.md")
	t.Note("wall-clock speedup is machine-bound: measured on demand by BenchmarkE14Parsim* (bench_test.go)")
	return t
}
