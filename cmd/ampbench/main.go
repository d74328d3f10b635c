// Command ampbench regenerates every table, figure and quantitative
// claim of the AmpNet paper (-list prints the experiment index and each
// experiment's topology variants; EXPERIMENTS.md has recorded results,
// internal/experiments/testdata/tables_seed7.golden the authoritative
// tables). An engine span timeline of any one run is `ampsim
// -timeline`'s.
//
// Usage:
//
//	ampbench                               # run every experiment once
//	ampbench -exp e8                       # run one experiment
//	ampbench -exp e8 -seed 7 -nodes 16     # one experiment, custom params
//	ampbench -list                         # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/phys"
	"repro/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "", "experiment id(s), comma-separated (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Uint64("seed", 0, "kernel seed (0 = default)")
	nodes := flag.Int("nodes", 0, "node-count override")
	switches := flag.Int("switches", 0, "switch-count override")
	fiber := flag.Float64("fiber", 0, "fiber-meters override")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ampbench: "+format+"\n", args...)
		os.Exit(1)
	}
	// Surface topology-scale errors here, naming the flag and the limit,
	// instead of letting an experiment panic mid-run. (Node counts past
	// the v1 wire format's 255-node ceiling auto-select wire v2;
	// MaxNodes is the v2 ceiling.) Zero means the experiment's default.
	switch {
	case *nodes < 0:
		fail("negative -nodes %d", *nodes)
	case *switches < 0:
		fail("negative -switches %d", *switches)
	case *nodes > phys.MaxNodes:
		fail("-nodes %d exceeds the wire v2 address space (max %d nodes)", *nodes, phys.MaxNodes)
	case *switches > phys.MaxSwitches:
		fail("-switches %d exceeds the rostering link-state mask (max %d switches)", *switches, phys.MaxSwitches)
	}
	if err := phys.CheckFiberM("-fiber", *fiber); err != nil {
		fail("%v", err)
	}

	if *list {
		for _, s := range experiments.All() {
			variants := ""
			if len(s.Variants) > 0 {
				var labels []string
				for _, v := range s.Variants {
					labels = append(labels, v.Merged(s.Defaults).Label())
				}
				variants = "  [" + strings.Join(labels, " ") + "]"
			}
			fmt.Printf("  %-4s %s%s\n", s.ID, s.Short, variants)
		}
		return
	}

	p := experiments.Params{Seed: *seed, Nodes: *nodes, Switches: *switches, FiberM: *fiber}
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			s := experiments.ByID(strings.TrimSpace(id))
			if s == nil {
				fail("unknown experiment %q (try -list)", id)
			}
			run(*s, p)
		}
		return
	}
	fmt.Println("AmpNet reproduction — all experiments (deterministic; see EXPERIMENTS.md)")
	for _, s := range experiments.All() {
		run(s, p)
	}
}

func run(s experiments.Spec, p experiments.Params) {
	sw := telemetry.StartStopwatch(nil)
	t := s.Run(p.Merged(s.Defaults))
	t.Fprint(os.Stdout)
	fmt.Printf("  [%s completed in %v wall time]\n", s.ID, sw.Elapsed().Round(time.Millisecond))
}
