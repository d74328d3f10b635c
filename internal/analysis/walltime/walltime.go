// Package walltime defines the ampvet analyzer that forbids wall-clock
// time in simulation code.
//
// The rule: model and driver code advances on virtual sim.Time only.
// A wall-clock read (time.Now, time.Since) or wall-clock wait
// (time.Sleep, time.After, timers, tickers) couples simulation
// behavior to host speed and scheduling, so two runs of the same seed
// — or a one-shard run versus a sharded one, whose goroutines
// interleave differently — stop producing byte-identical Reports.
// Durations and constants (time.Duration, time.Millisecond) are fine:
// they are plain arithmetic, not clock reads.
//
// Operator-facing wall-clock prints (a CLI reporting how long a run
// took) are legitimate; waive them per line:
//
//	start := time.Now() //ampvet:allow walltime operator progress print
//
// internal/telemetry is exempt wholesale: it is the one audited
// wall-clock surface in the tree — everything else reaches the wall
// clock through its Clock interface (or a per-line waiver), which is
// what keeps the determinism argument reviewable in one place.
package walltime

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// forbidden lists the package time functions whose call sites read or
// wait on the wall clock.
var forbidden = map[string]string{
	"Now":       "reads the wall clock",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Sleep":     "blocks on host time",
	"After":     "fires on host time",
	"AfterFunc": "fires on host time",
	"Tick":      "fires on host time",
	"NewTimer":  "fires on host time",
	"NewTicker": "fires on host time",
}

// Analyzer rejects wall-clock reads and waits outside test files.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc: "forbid wall-clock time in simulation code: state must advance on virtual sim.Time " +
		"only, or serial and sharded runs of the same seed diverge",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// The telemetry package is the tree's sole sanctioned wall-clock
	// surface (see the package doc); the bare path is the fixture's.
	switch pass.Pkg.Path() {
	case "repro/internal/telemetry", "telemetry":
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			why, bad := forbidden[fn.Name()]
			if !bad {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s %s: simulation state must advance on virtual sim.Time only "+
					"(use the kernel clock), or serial and sharded runs of the same seed diverge; "+
					"for operator-facing wall-clock prints add //ampvet:allow walltime <reason>",
				fn.Name(), why)
			return true
		})
	}
	return nil
}
