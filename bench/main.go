// Command bench is the repository's benchmark: six named workloads,
// each one scenario run in a closed loop in this one process, with the
// outputs checked on every iteration. BENCHMARK.json at the repository
// root names the command line, the workloads and every metric; README.md
// in this directory says what each is for.
//
//	go run ./bench -workload steady-ring-16 -seed 7            # end-to-end metrics
//	go run ./bench -workload steady-ring-16 -trace 1 -trace-out t.json
//	go run ./bench -all                                        # all six, in turn
//
// The last line printed for a workload is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries
// facts that are not metrics (report_sha256, iteration count, host).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// repeats both lists with direction and bound; bench_test.go keeps the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees: host time, memory and
// allocation per scenario. Measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"allocs_per_iter", "count"},
	{"alloc_mb_per_iter", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by a traced run. The first four are the
// simulated plane: exact for a seed, and unchanged by any simulator-only
// optimisation.
var perLayer = []metricDef{
	{"sim_heal_us", "us"},
	{"sim_outage_us", "us"},
	{"sim_latency_us", "us"},
	{"fail_share", "ratio"},
	{"telemetry.overhead_share", "ratio"},

	{"sim.events", "count"},
	{"sim.events_boot", "count"},
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_peak", "count"},
	{"phys.frames_offered", "count"},
	{"phys.frames_lost", "count"},
	{"phys.events_per_hop", "count"},
	{"insertion.relaunched", "count"},
	{"insertion.hops_per_origin", "count"},
	{"rostering.control_frames", "count"},
	{"rostering.flood_waste_share", "ratio"},
	{"ampdk.keepalive_frames", "count"},
	{"app.data_frames", "count"},
	{"app.data_share", "ratio"},
	{"parsim.windows", "count"},
	{"parsim.barriers", "count"},
	{"parsim.xframes", "count"},
	{"parsim.events_per_window", "count"},
	{"parsim.busy_window_share", "ratio"},
	{"parsim.shard_imbalance", "ratio"},

	{"core.new_s", "s"},
	{"core.boot_s", "s"},
	{"core.run_s", "s"},
	{"core.report_s", "s"},
	{"core.boot_share", "ratio"},
	{"parsim.busy_share", "ratio"},
	{"parsim.wait_share", "ratio"},
	{"parsim.coord_share", "ratio"},
	{"parsim.window_ns", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},

	{"sim.fire_ns.d1", "ns"},
	{"sim.fire_ns.d4k", "ns"},
	{"sim.fire_ns.d256k", "ns"},
	{"sim.fire_allocs", "count"},
	{"sim.timer_reset_ns", "ns"},
	{"phys.p2p_ns", "ns"},
	{"phys.switch_fwd_ns", "ns"},
	{"phys.deep_frame_ns", "ns"},
	{"phys.partition_ms", "ms"},
	{"wire.codec_v1_ns", "ns"},
	{"wire.codec_v2_ns", "ns"},
	{"wire.codec_var64_ns", "ns"},
	{"enc8b10b.encode_ns_per_byte", "ns"},
	{"enc8b10b.decode_ns_per_byte", "ns"},
	{"insertion.hop_ns", "ns"},
	{"rostering.heal_ns", "ns"},
	{"rostering.heal_events", "count"},
	{"netcache.write_ns", "ns"},
	{"netcache.read_ns", "ns"},
	{"parsim.empty_window_ns", "ns"},

	{"est.sim_queue_share", "ratio"},
	{"est.codec_share", "ratio"},
	{"est.barrier_share", "ratio"},
	{"est.unattributed_share", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the info line and the result line. Every metric of defs
// must have been measured and be finite: a missing name is a bug in the
// benchmark, not a zero.
func (r *result) write(w io.Writer, defs []metricDef) error {
	line := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s not measured (%v)", r.workload, d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.info["workload"], r.info["seed"] = r.workload, r.seed
	info, err := json.Marshal(map[string]any{"info": r.info})
	if err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", info, out)
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	all := flag.Bool("all", false, "run every workload in turn")
	seed := flag.Uint64("seed", 1, "seed for the workload's inputs and the simulation")
	seconds := flag.Float64("seconds", 6, "how long to measure (BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus the layer probes")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace JSON to this file (with -all: into this directory)")
	scale := flag.String("scale", "full", "full, or small for the tier-1 smoke (one iteration of a few ms virtual)")
	flag.Parse()
	if err := run(*name, *all, *seed, *seconds, *trace, *traceOut, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, all bool, seed uint64, seconds float64, trace int, traceOut, scale string) error {
	switch {
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case all == (name != ""):
		return fmt.Errorf("give exactly one of -workload and -all")
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	case scale != "full" && scale != "small":
		return fmt.Errorf("-scale %q: want full or small", scale)
	case seconds <= 0 || seconds > 60:
		return fmt.Errorf("-seconds %v: want 0 < s <= 60", seconds)
	case traceOut != "" && trace == 0:
		return fmt.Errorf("-trace-out needs -trace 1")
	}
	todo := workloads
	if !all {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{*w}
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	correct := true
	for i := range todo {
		w := &todo[i]
		out := traceOut
		if all && out != "" {
			if err := os.MkdirAll(out, 0o755); err != nil {
				return err
			}
			out = filepath.Join(out, w.name+".json")
		}
		res, err := runWorkload(w, seed, seconds, trace == 1, scale == "small", out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.write(os.Stdout, defs); err != nil {
			return err
		}
		correct = correct && res.correct
	}
	if !correct {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}
