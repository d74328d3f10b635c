package experiments

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/sim"
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
// numbers: it is machine-bound by construction (Spec.Wall), excluded
// from default sweeps, and labeled with the host's core count so a
// single-core run never masquerades as a parallelism result. The
// deterministic half of the run is still checked: every sharded report
// must be byte-identical to the one-shard one.
//
// Nodes/Switches size the sharded fabric (default 96×8); shard counts
// swept are 1, 2, 4 and Switches. When Params.Telemetry is set, its
// recorder (and clock) is used — the hook that makes the table
// reproducible under an injected telemetry.ManualClock, and that lets
// cmd/ampbench export the accumulated spans as a timeline profile.
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
	rec := p.Telemetry
	if rec == nil {
		rec = telemetry.NewRecorder(nil)
	}
	clock := rec.Clock()

	var shardCounts []int
	for _, sc := range []int{1, 2, 4, p.Switches} {
		if sc <= p.Switches && (len(shardCounts) == 0 || sc > shardCounts[len(shardCounts)-1]) {
			shardCounts = append(shardCounts, sc)
		}
	}

	topo, err := e14Fabric("sharded", p.Nodes, p.Switches, p.FiberM)
	if err != nil {
		t.Add("-", "ERROR", err.Error(), "", "", "", "")
		t.Metric("all_identical", 0)
		return t
	}

	identicalAll := 1.0
	var serialJSON []byte
	var serialWallNS int64
	var maxSpeedup float64
	for _, shards := range shardCounts {
		opts := core.Options{Fabric: &topo, Seed: p.seed(), Shards: shards,
			HeartbeatInterval: 1 * sim.Millisecond}
		if shards > 1 {
			opts.Telemetry = rec
		}
		// Decomposition by difference: the recorder accumulates across
		// runs, so each run's spans are the delta between snapshots.
		d0 := telemetry.Decompose(rec.Spans())
		sw := telemetry.StartStopwatch(clock)
		rep, err := core.Scenario{
			Name: "e17",
			Opts: opts,
			Plan: core.Plan{core.FailSwitch(6*sim.Millisecond, p.Switches-1),
				core.RestoreSwitch(12*sim.Millisecond, p.Switches-1)},
			Loads: []core.Load{&core.PubSubLoad{
				Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond,
				Subscribers: []int{1, p.Nodes / 2, p.Nodes - 2},
			}},
			For: 18 * sim.Millisecond,
		}.Run()
		wallNS := int64(sw.Elapsed())
		d1 := telemetry.Decompose(rec.Spans())
		if err != nil {
			t.Add(fmt.Sprint(shards), "ERROR", err.Error(), "", "", "", "")
			identicalAll = 0
			continue
		}

		speedup := "-"
		identical := "serial"
		if shards == 1 {
			serialJSON = rep.JSON()
			serialWallNS = wallNS
		} else {
			if serialWallNS > 0 && wallNS > 0 {
				s := float64(serialWallNS) / float64(wallNS)
				speedup = fmt.Sprintf("%.2fx", s)
				if s > maxSpeedup {
					maxSpeedup = s
				}
			}
			if bytes.Equal(serialJSON, rep.JSON()) {
				identical = "yes"
			} else {
				identical = "NO"
				identicalAll = 0
			}
		}

		busy, wait, coord := "-", "-", "-"
		if shards > 1 {
			dRun := d1.RunNS - d0.RunNS
			dEngine := (d1.WindowNS + d1.ExchangeNS + d1.ActionNS) -
				(d0.WindowNS + d0.ExchangeNS + d0.ActionNS)
			if dEngine > 0 {
				b := float64(dRun) / (float64(shards) * float64(dEngine))
				if b > 1 {
					b = 1
				}
				busy = fmt.Sprintf("%.0f%%", b*100)
				wait = fmt.Sprintf("%.0f%%", (1-b)*100)
				coord = fmt.Sprintf("%.0f%%",
					float64((d1.ExchangeNS+d1.ActionNS)-(d0.ExchangeNS+d0.ActionNS))/float64(dEngine)*100)
			}
		}
		t.Add(fmt.Sprint(shards), fmt.Sprintf("%.1fms", float64(wallNS)/1e6),
			speedup, busy, wait, coord, identical)
	}
	t.Metric("cores", float64(cores))
	t.Metric("gomaxprocs", float64(procs))
	t.Metric("max_speedup", maxSpeedup)
	t.Metric("all_identical", identicalAll)
	t.Note("Wall numbers are machine-bound: this table is excluded from default sweeps (Spec.Wall)")
	t.Note("and only comparable across runs on the same host; the cores/GOMAXPROCS header keeps it honest.")
	t.Note("busy = shard run-span time / (shards × engine wall); wait = 1 − busy (barrier waiting);")
	t.Note("coord = the coordinator-serial share (exchange + action spans) of engine wall.")
	t.Note("Speedup needs busy shards AND spare cores: on a single-core host expect ≤1x at any shard count.")
	return t
}
