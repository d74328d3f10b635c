// Command ampbench regenerates every table, figure and quantitative
// claim of the AmpNet paper (-list prints the experiment index,
// EXPERIMENTS.md has recorded results), and sweeps the whole
// experiment matrix over seeds × topology variants in parallel.
//
// Usage:
//
//	ampbench                               # run every experiment once
//	ampbench -exp e8                       # run one experiment
//	ampbench -exp e8 -seed 7 -nodes 16     # one experiment, custom params
//	ampbench -list                         # list experiments
//	ampbench -sweep -seeds 8 -par 4        # full matrix, text aggregates
//	ampbench -sweep -seeds 8 -par 4 -json out.json -csv out.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/phys"
	"repro/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "", "experiment id(s), comma-separated (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Uint64("seed", 0, "kernel seed for single runs (0 = default)")
	nodes := flag.Int("nodes", 0, "node-count override for single runs")
	switches := flag.Int("switches", 0, "switch-count override for single runs")
	fiber := flag.Float64("fiber", 0, "fiber-meters override for single runs")
	shards := flag.Int("shards", 0,
		"run shard-aware experiments (e13, e14) on this many shards (0/1 = one shard; others ignore it)")
	timeline := flag.String("timeline", "",
		"single runs: write each run's engine span timeline as Chrome trace-event JSON to this file (multiple experiments insert their id before the extension); needs a sharded run (-shards > 1) to have spans")

	sweep := flag.Bool("sweep", false, "sweep experiments × seeds × topology variants")
	seeds := flag.Int("seeds", 8, "sweep: seeds per variant")
	baseSeed := flag.Uint64("base-seed", 1, "sweep: first seed")
	par := flag.Int("par", 4, "sweep: parallel workers")
	noVariants := flag.Bool("no-variants", false, "sweep: default topology only")
	jsonOut := flag.String("json", "", "sweep: write the full report as JSON to this file")
	csvOut := flag.String("csv", "", "sweep: write aggregate stats as CSV to this file")
	quiet := flag.Bool("q", false, "sweep: suppress per-run progress")
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

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "ampbench: -seeds %d: a sweep needs at least one seed per variant\n", *seeds)
		os.Exit(1)
	}
	if *par < 1 {
		fmt.Fprintf(os.Stderr, "ampbench: -par %d: a sweep needs at least one worker\n", *par)
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

	if *sweep {
		runSweep(*exp, *seeds, *baseSeed, *par, *noVariants, *shards, *jsonOut, *csvOut, *quiet)
		return
	}

	p := experiments.Params{Seed: *seed, Nodes: *nodes, Switches: *switches, FiberM: *fiber, Shards: *shards}
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
		fmt.Fprintf(os.Stderr, "ampbench: %s recorded no spans (timelines need a sharded run, e.g. -shards 4 or a wall-clock experiment)\n", id)
		return
	}
	writeFile(path, func(w io.Writer) error { return telemetry.WriteTrace(w, spans) })
	fmt.Printf("  [%s timeline: %d spans written to %s]\n", id, len(spans), path)
}

func runSweep(exp string, seeds int, baseSeed uint64, par int, noVariants bool, shards int, jsonOut, csvOut string, quiet bool) {
	cfg := harness.Config{
		Seeds:      seeds,
		BaseSeed:   baseSeed,
		Parallel:   par,
		NoVariants: noVariants,
		Shards:     shards,
	}
	if exp != "" {
		for _, id := range strings.Split(exp, ",") {
			cfg.Experiments = append(cfg.Experiments, strings.TrimSpace(id))
		}
	}
	plan, err := harness.Plan(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ampbench: %v\n", err)
		os.Exit(1)
	}
	done := 0
	if !quiet {
		fmt.Fprintf(os.Stderr, "sweep: %d runs (%d workers)\n", len(plan), par)
		cfg.OnResult = func(r harness.Result) {
			done++
			status := "ok"
			if r.Error != "" {
				status = r.Error
			}
			fmt.Fprintf(os.Stderr, "  [%3d/%d] %-4s %-14s seed=%-3d %s\n",
				done, len(plan), r.Exp, r.Variant, r.Seed, status)
		}
	}
	sw := telemetry.StartStopwatch(nil)
	rep, err := harness.Sweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ampbench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ampbench: %v\n", err)
		os.Exit(1)
	}
	if jsonOut != "" {
		writeFile(jsonOut, rep.WriteJSON)
	}
	if csvOut != "" {
		writeFile(csvOut, rep.WriteCSV)
	}
	errs := 0
	for _, r := range rep.Runs {
		if r.Error != "" {
			errs++
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d runs in %v wall time, %d errors\n",
		len(rep.Runs), sw.Elapsed().Round(time.Millisecond), errs)
	if errs > 0 {
		os.Exit(1)
	}
}

func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ampbench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "ampbench: %v\n", err)
		os.Exit(1)
	}
}
