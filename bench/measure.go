package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/parsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// iteration is what one timed Scenario.Run + Report.JSON() yields.
type iteration struct {
	rep *core.Report
	js  []byte
	// Wall ns: Run called, Run returned, JSON rendered.
	tStart, tRun, tReport int64
	wallNS                int64
	// Go heap traffic of the iteration (runtime.MemStats deltas).
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNS           uint64
}

// runIteration runs s once. The two ReadMemStats calls stop the world
// for a few microseconds each, outside the timed interval.
func runIteration(s core.Scenario) (iteration, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it := iteration{tStart: telemetry.Wall.Now()}
	rep, err := s.Run()
	if err != nil {
		return it, err
	}
	it.tRun = telemetry.Wall.Now()
	it.rep, it.js = rep, rep.JSON()
	it.tReport = telemetry.Wall.Now()
	runtime.ReadMemStats(&after)
	it.wallNS = it.tReport - it.tStart
	it.mallocs = after.Mallocs - before.Mallocs
	it.allocBytes = after.TotalAlloc - before.TotalAlloc
	it.gcCycles = after.NumGC - before.NumGC
	it.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	return it, nil
}

// counts are the exact counters of one instrumented iteration, read
// from public accessors through the Scenario hooks, plus the host time
// at which assembly and boot ended.
type counts struct {
	iteration
	tNew, tBoot        int64
	events, eventsBoot uint64
	// pendingPeak is the deepest kernel queue seen at a phase end (after
	// assembly, after boot, at each plan event, at the end of the run).
	pendingPeak  int
	opsAttempted uint64
	opsFailed    uint64
	par          *parsim.Stats
	shards       []parsim.ShardStat
}

func (c *counts) bootShare() float64 {
	return float64(c.tBoot-c.tNew) / float64(c.wallNS)
}

func (c *counts) dataFrames() uint64 {
	return c.rep.Frames.Consumed["host"] + c.rep.Frames.Consumed["broadcast_strip"]
}

// runCounted runs s once with the observation hooks attached. tr, if
// set, additionally receives the phase spans; rec, if set, is attached
// as the parallel engine's wall-clock recorder. The hooks only read:
// they schedule nothing and change no Report byte.
func runCounted(s core.Scenario, iter int, tr *tracer, rec *telemetry.Recorder) (*counts, error) {
	c := &counts{}
	var cl *core.Cluster
	var kernels []*sim.Kernel // one on the serial engine, one per shard otherwise
	samplePending := func() {
		for _, k := range kernels {
			c.pendingPeak = max(c.pendingPeak, k.Pending())
		}
	}
	s.Opts.Telemetry = rec
	s.OnCluster = func(cluster *core.Cluster) {
		cl = cluster
		c.tNew = telemetry.Wall.Now()
		for _, nd := range cl.Nodes {
			if !slices.Contains(kernels, nd.K) {
				kernels = append(kernels, nd.K)
			}
		}
		samplePending()
	}
	s.OnBoot = func(*core.Cluster) {
		c.tBoot = telemetry.Wall.Now()
		c.eventsBoot = cl.EventsFired()
		samplePending()
	}
	s.OnEvent = func(e core.Event) {
		tr.instant(iter, e.String(), telemetry.Wall.Now())
		samplePending()
	}
	it, err := runIteration(s)
	if err != nil {
		return nil, err
	}
	c.iteration = it
	samplePending()
	c.events = cl.EventsFired()
	c.par = cl.ParStats()
	c.shards = cl.ShardParStats()
	c.opsAttempted, c.opsFailed = ops(it.rep, s)
	tr.phases(iter, c)
	return c, nil
}

// checkReport applies the per-iteration correctness checks; want, if
// non-nil, is the Report JSON every iteration of the run must equal.
func checkReport(w *workload, rep *core.Report, js, want []byte) error {
	switch {
	case rep.Frames == nil || !rep.Frames.Conserved:
		return fmt.Errorf("frame ledger not conserved")
	case !rep.Healed:
		return fmt.Errorf("cluster did not end healed")
	case w.faultFree && rep.Drops != 0:
		return fmt.Errorf("%d congestion drops on a fault-free workload", rep.Drops)
	case want != nil && !bytes.Equal(js, want):
		return fmt.Errorf("Report JSON differs from the run's first iteration")
	}
	for _, l := range rep.Loads {
		if l.Corrupt != 0 || l.StaleReplicas != 0 {
			return fmt.Errorf("load %s: %d corrupt files, %d stale replicas", l.Name, l.Corrupt, l.StaleReplicas)
		}
	}
	return nil
}

// setupPass is one complete set-up: generate the scenario from the
// seed, run the instrumented warm-up iteration, check it, run the
// control twin and byte-compare, and assert the workload's shape.
func setupPass(w *workload, seed uint64, small bool) (core.Scenario, *counts, error) {
	s := w.gen(seed, small)
	c, err := runCounted(s, 0, nil, nil)
	if err != nil {
		return s, nil, err
	}
	if err := checkReport(w, c.rep, c.js, nil); err != nil {
		return s, nil, err
	}
	var twinWallNS int64
	if w.twin != nil {
		twin, err := runIteration(w.twin(s))
		if err != nil {
			return s, nil, fmt.Errorf("control twin: %w", err)
		}
		if !bytes.Equal(twin.js, c.js) {
			return s, nil, fmt.Errorf("Report JSON differs from the control twin's")
		}
		twinWallNS = twin.wallNS
	}
	if w.shape != nil && !small {
		if err := w.shape(c, twinWallNS); err != nil {
			return s, nil, fmt.Errorf("not the workload it claims to be: %w", err)
		}
	}
	return s, c, nil
}

// setupRepeats is how often a run sets up: setup_s is the median.
const setupRepeats = 3

// minIterations is the fewest timed iterations a run reports on.
const minIterations = 3

// result is one workload run's outcome, before formatting.
type result struct {
	workload          string
	seed              uint64
	correct           bool
	attempted, failed uint64
	metrics           map[string]float64
	// info is printed beside the metrics but is not part of them.
	info map[string]any
}

// runWorkload sets up, then measures for about the given seconds:
// closed loop, one iteration after another. Without trace it reports
// the end-to-end metrics; with trace it spends the time on an untraced
// and a traced batch plus the layer probes and reports the per-layer
// metrics.
func runWorkload(w *workload, seed uint64, seconds float64, trace, small bool, traceOut string) (*result, error) {
	res := &result{workload: w.name, seed: seed, correct: true, metrics: map[string]float64{}, info: map[string]any{}}
	repeats := setupRepeats
	if trace || small {
		repeats = 1 // setup_s is an end-to-end metric only
	}
	var s core.Scenario
	var warm *counts
	var setups []float64
	for i := 0; i < repeats; i++ {
		start := telemetry.Wall.Now()
		var err error
		if s, warm, err = setupPass(w, seed, small); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(telemetry.Wall.Now()-start)/1e9)
	}
	sum := sha256.Sum256(warm.js)
	res.info["report_sha256"] = hex.EncodeToString(sum[:])
	res.info["ops_attempted_per_iter"] = warm.opsAttempted
	res.info["ops_failed_per_iter"] = warm.opsFailed
	res.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.info["go"] = runtime.Version()
	res.info["cores"] = runtime.NumCPU()

	budget := int64(seconds * 1e9)
	minIters := minIterations
	if small {
		budget, minIters = 0, 1
	}
	timed := func(budgetNS int64, run func(i int) (iteration, error)) ([]iteration, error) {
		var its []iteration
		deadline := telemetry.Wall.Now() + budgetNS
		for i := 0; i < minIters || telemetry.Wall.Now() < deadline; i++ {
			it, err := run(i)
			if err != nil {
				return nil, err
			}
			a, f := ops(it.rep, s)
			if err := checkReport(w, it.rep, it.js, warm.js); err != nil {
				fmt.Fprintf(os.Stderr, "%s: iteration %d: %v\n", w.name, i, err)
				res.correct, f = false, a
			}
			res.attempted += a
			res.failed += f
			its = append(its, it)
		}
		return its, nil
	}
	untraced := func(int) (iteration, error) { return runIteration(s) }

	if !trace {
		its, err := timed(budget, untraced)
		if err != nil {
			return nil, err
		}
		walls := column(its, func(it iteration) float64 { return float64(it.wallNS) / 1e9 })
		res.metrics["setup_s"] = median(setups)
		res.metrics["wall_s"] = median(walls)
		res.metrics["allocs_per_iter"] = median(column(its, func(it iteration) float64 { return float64(it.mallocs) }))
		res.metrics["alloc_mb_per_iter"] = median(column(its, func(it iteration) float64 { return float64(it.allocBytes) / 1e6 }))
		res.metrics["peak_rss_mb"] = peakRSSMB()
		res.info["n"] = len(its)
		res.info["wall_s_samples"] = walls
		res.info["wall_s_min"], res.info["wall_s_max"] = slices.Min(walls), slices.Max(walls)
		return res, nil
	}

	// Traced run: a quarter of the time untraced (the overhead baseline),
	// a quarter traced, half on the probes.
	base, err := timed(budget/4, untraced)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	var rec *telemetry.Recorder
	if s.Opts.Shards > 1 {
		rec = telemetry.NewRecorder(telemetry.Wall)
	}
	var last *counts
	traced, err := timed(budget/4, func(i int) (iteration, error) {
		if rec != nil {
			rec.Reset() // keep only the last iteration's engine spans
		}
		c, err := runCounted(s, i, tr, rec)
		if err != nil {
			return iteration{}, err
		}
		last = c
		return c.iteration, nil
	})
	if err != nil {
		return nil, err
	}
	res.info["n"] = len(traced)
	wallOf := func(it iteration) float64 { return float64(it.wallNS) }
	untracedWall, tracedWall := median(column(base, wallOf)), median(column(traced, wallOf))
	res.metrics["telemetry.overhead_share"] = (tracedWall - untracedWall) / untracedWall
	var engine []telemetry.Span
	if rec != nil {
		engine = rec.Spans()
	}
	layerMetrics(res.metrics, last, engine)
	probeBudget := budget / 2
	if small {
		probeBudget = int64(len(probes)) * 2e6
	}
	runProbes(res.metrics, seed, probeBudget)
	estimates(res.metrics, s.Opts.DeepPHY, last)
	if traceOut != "" {
		if err := tr.writeFile(traceOut, engine); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics fills the exact per-iteration counts and the host-time
// phases of the traced iteration c.
func layerMetrics(m map[string]float64, c *counts, engine []telemetry.Span) {
	fr := c.rep.Frames
	var healNS, outageNS, latencyNS int64
	for _, e := range c.rep.Events {
		healNS = max(healNS, e.HealNS)
	}
	for _, l := range c.rep.Loads {
		outageNS = max(outageNS, l.MaxGapNS)
		latencyNS = max(latencyNS, l.MaxLatencyNS)
	}
	m["sim_heal_us"] = float64(healNS) / 1e3
	m["sim_outage_us"] = float64(outageNS) / 1e3
	m["sim_latency_us"] = float64(latencyNS) / 1e3
	m["fail_share"] = ratio(c.opsFailed, c.opsAttempted)

	m["sim.events"] = float64(c.events)
	m["sim.events_boot"] = float64(c.eventsBoot)
	m["sim.events_per_op"] = ratio(c.events, c.opsAttempted)
	m["sim.ns_per_event"] = float64(c.wallNS) / float64(c.events)
	m["sim.pending_peak"] = float64(c.pendingPeak)

	var wireLost uint64
	for _, cause := range []string{"dark_port", "fifo_full", "fifo_clear", "link_cut", "crc"} {
		wireLost += fr.Losses[cause]
	}
	m["phys.frames_offered"] = float64(fr.Offered)
	m["phys.frames_lost"] = float64(wireLost)
	m["phys.events_per_hop"] = ratio(c.events, fr.Offered)
	m["insertion.relaunched"] = float64(fr.Relaunched)
	m["insertion.hops_per_origin"] = ratio(fr.Offered, fr.Origins)

	control := fr.Consumed["control"] + fr.Consumed["flood_fanout"]
	waste := fr.Losses["flood_deduped"] + fr.Losses["stale_round"] + fr.Losses["dup_announce"]
	m["rostering.control_frames"] = float64(control)
	m["rostering.flood_waste_share"] = ratio(waste, waste+control)
	m["ampdk.keepalive_frames"] = float64(fr.Consumed["keepalive"])
	m["app.data_frames"] = float64(c.dataFrames())
	m["app.data_share"] = ratio(c.dataFrames(), fr.Origins)

	for _, name := range []string{"windows", "barriers", "xframes", "events_per_window", "busy_window_share", "shard_imbalance",
		"busy_share", "wait_share", "coord_share", "window_ns"} {
		m["parsim."+name] = 0 // serial engine
	}
	if c.par != nil {
		m["parsim.windows"] = float64(c.par.Windows)
		m["parsim.barriers"] = float64(c.par.Barriers)
		m["parsim.xframes"] = float64(c.par.Frames)
		m["parsim.events_per_window"] = ratio(c.events, c.par.Windows)
		var granted, busy, maxEvents uint64
		for _, sh := range c.shards {
			granted += sh.Windows
			busy += sh.BusyWindows
			maxEvents = max(maxEvents, sh.Events)
		}
		m["parsim.busy_window_share"] = ratio(busy, granted)
		m["parsim.shard_imbalance"] = ratio(maxEvents*uint64(len(c.shards)), c.events)
		d := telemetry.Decompose(engine)
		m["parsim.busy_share"] = d.BusyFrac()
		m["parsim.wait_share"] = d.WaitFrac()
		m["parsim.coord_share"] = d.ExchangeFrac()
		if d.Windows > 0 {
			m["parsim.window_ns"] = float64(d.WindowNS) / float64(d.Windows)
		}
	}

	m["core.new_s"] = float64(c.tNew-c.tStart) / 1e9
	m["core.boot_s"] = float64(c.tBoot-c.tNew) / 1e9
	m["core.run_s"] = float64(c.tRun-c.tBoot) / 1e9
	m["core.report_s"] = float64(c.tReport-c.tRun) / 1e9
	m["core.boot_share"] = c.bootShare()
	m["runtime.gc_cycles"] = float64(c.gcCycles)
	m["runtime.gc_pause_ms"] = float64(c.gcPauseNS) / 1e6
}

// estimates multiplies probe costs by the traced iteration's counts.
// They are estimates: a probe times its layer alone and warm, the
// scenario runs it between other layers' cache misses.
func estimates(m map[string]float64, deepPHY bool, c *counts) {
	wall := float64(c.wallNS)
	fire := m["sim.fire_ns.d1"]
	switch {
	case c.pendingPeak >= 32<<10:
		fire = m["sim.fire_ns.d256k"]
	case c.pendingPeak >= 64:
		fire = m["sim.fire_ns.d4k"]
	}
	queue := float64(c.events) * fire / wall
	var codec, barrier float64
	if deepPHY {
		codec = float64(c.rep.Frames.Offered) * (m["phys.deep_frame_ns"] - m["phys.p2p_ns"]) / wall
	}
	if c.par != nil {
		barrier = float64(c.par.Windows) * m["parsim.empty_window_ns"] / wall
	}
	m["est.sim_queue_share"] = queue
	m["est.codec_share"] = codec
	m["est.barrier_share"] = barrier
	m["est.unattributed_share"] = 1 - queue - codec - barrier
}

// column is f over the iterations, in run order.
func column(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or
// the Go runtime's total obtained from the OS where /proc is missing.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
