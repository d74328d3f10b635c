// Command ampbench regenerates every table, figure and quantitative
// claim of the AmpNet paper (-list prints the experiment index and each
// experiment's topology variants; EXPERIMENTS.md has recorded results,
// internal/experiments/testdata/tables_seed7.golden the authoritative
// tables).
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
	timeline := flag.String("timeline", "",
		"write each run's engine span timeline as Chrome trace-event JSON to this file (multiple experiments insert their id before the extension); e13, e14, e16 and e17 record spans at every shard count")
	flag.Parse()

	// Surface topology-scale errors here, naming the limit, instead of
	// letting a direct-cluster experiment panic mid-run. (Node counts
	// past the v1 wire format's 255-node ceiling auto-select wire v2;
	// MaxNodes is the v2 ceiling.)
	if *nodes > phys.MaxNodes {
		fmt.Fprintf(os.Stderr, "ampbench: -nodes %d exceeds the wire v2 address space (max %d nodes)\n", *nodes, phys.MaxNodes)
		os.Exit(1)
	}
	if *switches > phys.MaxSwitches {
		fmt.Fprintf(os.Stderr, "ampbench: -switches %d exceeds the rostering link-state mask (max %d switches)\n", *switches, phys.MaxSwitches)
		os.Exit(1)
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
		ids := strings.Split(*exp, ",")
		for _, id := range ids {
			s := experiments.ByID(strings.TrimSpace(id))
			if s == nil {
				fmt.Fprintf(os.Stderr, "ampbench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			run(*s, p, profilePath(*timeline, s.ID, len(ids) > 1))
		}
		return
	}
	fmt.Println("AmpNet reproduction — all experiments (deterministic; see EXPERIMENTS.md)")
	all := experiments.All()
	for _, s := range all {
		run(s, p, profilePath(*timeline, s.ID, len(all) > 1))
	}
}

// profilePath names one experiment's timeline file: the -timeline path
// as given for a single experiment, with the experiment id inserted
// before the extension when several run ("out.json" → "out.e14.json").
func profilePath(base, id string, multi bool) string {
	if base == "" || !multi {
		return base
	}
	if dot := strings.LastIndex(base, "."); dot > strings.LastIndex(base, "/") {
		return base[:dot] + "." + id + base[dot:]
	}
	return base + "." + id
}

func run(s experiments.Spec, p experiments.Params, timeline string) {
	if timeline != "" && p.Telemetry == nil {
		// One recorder per run so each profile holds only its own spans.
		p.Telemetry = telemetry.NewRecorder(nil)
	}
	sw := telemetry.StartStopwatch(nil)
	t := s.Run(p.Merged(s.Defaults))
	t.Fprint(os.Stdout)
	fmt.Printf("  [%s completed in %v wall time]\n", s.ID, sw.Elapsed().Round(time.Millisecond))
	if timeline != "" {
		writeTimeline(timeline, s.ID, p.Telemetry)
	}
}

// writeTimeline exports one run's recorded spans as a Chrome
// trace-event profile (load in Perfetto or chrome://tracing).
func writeTimeline(path, id string, rec *telemetry.Recorder) {
	spans := rec.Spans()
	if len(spans) == 0 {
		fmt.Fprintf(os.Stderr, "ampbench: %s recorded no spans (only e13, e14, e16 and e17 attach the recorder to their clusters)\n", id)
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = telemetry.WriteTrace(f, spans)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ampbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("  [%s timeline: %d spans written to %s]\n", id, len(spans), path)
}
