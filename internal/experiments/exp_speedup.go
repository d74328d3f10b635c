package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// E17Speedup measures the multi-core speedup of the sharded engine:
// one faulted, loaded scenario run on one shard and then at rising
// shard counts, recording the wall time, the speedup against the
// one-shard run, and the busy/wait decomposition
// from the telemetry recorder's span timeline — how much of the engine
// wall the shards spent executing events versus waiting at barriers,
// and what share the coordinator's exchange/action work took.
//
// Unlike every other experiment, E17's table contains wall-clock
// numbers: it is machine-bound by construction (Spec.Wall), kept out
// of the committed golden, and labeled with the host's core count so a
// single-core run never masquerades as a parallelism result. The
// deterministic half of the run is still checked: every sharded report
// must be byte-identical to the one-shard one.
//
// Nodes/Switches size the sharded fabric (default 96×8); shard counts
// swept are 1, 2, 4 and Switches. The recorder is E17's own; `ampsim
// -timeline` exports the spans of any one run.
func E17Speedup(p Params) *Table {
	p = p.Merged(Params{Nodes: 96, Switches: 8, FiberM: 50})
	cores := runtime.NumCPU()
	procs := runtime.GOMAXPROCS(0)
	t := &Table{
		ID: "E17",
		Title: fmt.Sprintf("multi-core speedup: wall time and busy/wait decomposition vs shards (%d cores, GOMAXPROCS %d)",
			cores, procs),
		Header: []string{"shards", "wall", "speedup", "busy", "wait", "coord", "identical"},
	}
	rec := telemetry.NewRecorder(nil)

	topo, err := RingsFabric(p.Switches, p.Nodes, p.FiberM)
	if err != nil {
		t.Add("-", "ERROR", err.Error(), "", "", "", "")
		return t
	}

	var serialWallNS, wallNS int64
	var d0, d1 telemetry.Decomposition
	run := func(shards int) (*core.Report, error) {
		sc := E16Study.Scenario("e17", topo, p.seed(), shards)
		if shards > 1 {
			sc.Opts.Telemetry = rec
		}
		// Decomposition by difference: the recorder accumulates across
		// runs, so each run's spans are the delta between snapshots.
		d0 = telemetry.Decompose(rec.Spans())
		sw := telemetry.StartStopwatch(nil)
		rep, err := sc.Run()
		wallNS = int64(sw.Elapsed())
		d1 = telemetry.Decompose(rec.Spans())
		return rep, err
	}
	row := func(shards int, rep *core.Report, err error, verdict string) {
		if err != nil {
			t.Add(fmt.Sprint(shards), "ERROR", err.Error(), "", "", "", "")
			return
		}
		speedup, busy, wait, coord := "-", "-", "-", "-"
		if shards == 1 {
			serialWallNS = wallNS
		} else {
			if serialWallNS > 0 && wallNS > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(serialWallNS)/float64(wallNS))
			}
			dRun := d1.RunNS - d0.RunNS
			dEngine := (d1.WindowNS + d1.ExchangeNS + d1.ActionNS) -
				(d0.WindowNS + d0.ExchangeNS + d0.ActionNS)
			if dEngine > 0 {
				b := min(float64(dRun)/(float64(shards)*float64(dEngine)), 1)
				busy = fmt.Sprintf("%.0f%%", b*100)
				wait = fmt.Sprintf("%.0f%%", (1-b)*100)
				coord = fmt.Sprintf("%.0f%%",
					float64((d1.ExchangeNS+d1.ActionNS)-(d0.ExchangeNS+d0.ActionNS))/float64(dEngine)*100)
			}
		}
		t.Add(fmt.Sprint(shards), fmt.Sprintf("%.1fms", float64(wallNS)/1e6),
			speedup, busy, wait, coord, verdict)
	}
	shardSweep(shardCounts(p.Switches), run, row)
	t.Note("Wall numbers are machine-bound: this table is kept out of the committed golden (Spec.Wall)")
	t.Note("and only comparable across runs on the same host; the cores/GOMAXPROCS header keeps it honest.")
	t.Note("busy = shard run-span time / (shards × engine wall); wait = 1 − busy (barrier waiting);")
	t.Note("coord = the coordinator-serial share (exchange + action spans) of engine wall.")
	t.Note("Speedup needs busy shards AND spare cores: on a single-core host expect ≤1x at any shard count.")
	return t
}
