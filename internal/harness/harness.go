// Package harness runs the experiment matrix — experiment × seeds ×
// topology variants — across a bounded worker pool and aggregates
// cross-seed statistics.
//
// Each run executes on its own deterministic sim.Kernel (the experiment
// functions build one internally from Params.Seed), so a sweep is
// byte-reproducible: the same Config always produces the same Report,
// regardless of worker count or goroutine interleaving. That invariant
// is what turns the single-run paper tables into a scalable
// scenario-exploration engine, and it is enforced by tests.
package harness

import (
	"fmt"
	"sync"

	"repro/internal/detmap"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// Config selects what to sweep and how wide.
type Config struct {
	// Experiments filters by experiment id; empty means all registered
	// experiments.
	Experiments []string `json:"experiments,omitempty"`
	// Seeds is the number of seeds per variant (0 → 1); each run uses
	// BaseSeed+i for i in [0,Seeds).
	Seeds int `json:"seeds"`
	// BaseSeed is the first seed (0 → 1).
	BaseSeed uint64 `json:"base_seed"`
	// Parallel bounds the worker pool (0 → 4).
	Parallel int `json:"parallel"`
	// NoVariants restricts every experiment to its default topology.
	NoVariants bool `json:"no_variants,omitempty"`
	// Shards, when > 1, runs every variant's cluster-level experiments
	// on the parallel sharded engine (internal/parsim). Reports — and
	// therefore sweep aggregates — are byte-identical to serial runs;
	// this trades sweep-level parallelism (worker pool) for run-level
	// parallelism on big single scenarios.
	Shards int `json:"shards,omitempty"`

	// KeepTables retains each run's rendered table in the Report.
	KeepTables bool `json:"-"`
	// OnResult, if set, is called as each run completes (from worker
	// goroutines, serialized by an internal mutex). For progress output.
	OnResult func(Result) `json:"-"`
}

// normalized resolves zero values to their defaults; a negative count
// is not a default in disguise and is refused.
func (c Config) normalized() (Config, error) {
	if c.Seeds < 0 {
		return c, fmt.Errorf("harness: negative Config.Seeds %d", c.Seeds)
	}
	if c.Parallel < 0 {
		return c, fmt.Errorf("harness: negative Config.Parallel %d", c.Parallel)
	}
	if c.Seeds == 0 {
		c.Seeds = 1
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Parallel == 0 {
		c.Parallel = 4
	}
	return c, nil
}

// Run identifies one (experiment, variant, seed) execution.
type Run struct {
	Exp     string             `json:"exp"`
	Variant string             `json:"variant"`
	Seed    uint64             `json:"seed"`
	Params  experiments.Params `json:"params"`
}

// Result is one completed run.
type Result struct {
	Run
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Error   string             `json:"error,omitempty"`
	Table   string             `json:"table,omitempty"`
}

// MetricSummary is the cross-seed statistics of one metric.
type MetricSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

func summarize(s *sim.Sample) MetricSummary {
	return MetricSummary{
		N:      s.N(),
		Mean:   s.Mean(),
		Stddev: s.Stddev(),
		Min:    s.Min(),
		P50:    s.Percentile(50),
		P99:    s.Percentile(99),
		Max:    s.Max(),
	}
}

// Aggregate holds the cross-seed statistics for one experiment variant.
type Aggregate struct {
	Exp     string                   `json:"exp"`
	Short   string                   `json:"short"`
	Variant string                   `json:"variant"`
	Seeds   int                      `json:"seeds"`
	Errors  int                      `json:"errors,omitempty"`
	Metrics map[string]MetricSummary `json:"metrics,omitempty"`
}

// Report is the full outcome of a sweep. It contains only virtual-time
// quantities — no wall-clock values — so that identical configs yield
// byte-identical serialized reports.
type Report struct {
	Config     Config      `json:"config"`
	Runs       []Result    `json:"runs"`
	Aggregates []Aggregate `json:"aggregates"`
}

// variantsOf expands one spec into its sweep variants (merged over the
// spec defaults), or just the default topology.
func variantsOf(s experiments.Spec, noVariants bool) []experiments.Params {
	if noVariants || len(s.Variants) == 0 {
		return []experiments.Params{s.Defaults}
	}
	out := make([]experiments.Params, 0, len(s.Variants))
	for _, v := range s.Variants {
		out = append(out, v.Merged(s.Defaults))
	}
	return out
}

// Plan expands a Config into the ordered run list without executing
// anything. The order is the deterministic result order of Sweep.
func Plan(cfg Config) ([]Run, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	specs := experiments.All()
	if len(cfg.Experiments) > 0 {
		var filtered []experiments.Spec
		for _, id := range cfg.Experiments {
			s := experiments.ByID(id)
			if s == nil {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			filtered = append(filtered, *s)
		}
		specs = filtered
	}
	var runs []Run
	for _, s := range specs {
		// Wall-clock experiments (Spec.Wall) never join the default
		// all-experiments plan: sweep aggregates must stay
		// byte-reproducible across machines. Naming one explicitly in
		// cfg.Experiments still runs it.
		if s.Wall && len(cfg.Experiments) == 0 {
			continue
		}
		for _, v := range variantsOf(s, cfg.NoVariants) {
			// Only experiments that actually honor Params.Shards get
			// stamped: a "pN" label must never claim the parallel
			// engine for a run that ignored it.
			if cfg.Shards > 1 && v.Shards == 0 && s.Sharded {
				v.Shards = cfg.Shards
			}
			for i := 0; i < cfg.Seeds; i++ {
				p := v
				p.Seed = cfg.BaseSeed + uint64(i)
				runs = append(runs, Run{Exp: s.ID, Variant: v.Label(), Seed: p.Seed, Params: p})
			}
		}
	}
	return runs, nil
}

// Sweep executes the full plan across a bounded worker pool and returns
// the aggregated report. Results are ordered by plan position, never by
// completion time, so the report is independent of scheduling.
func Sweep(cfg Config) (*Report, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	runs, err := Plan(cfg)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(runs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes OnResult
	for w := 0; w < cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = execute(runs[i], cfg.KeepTables)
				if cfg.OnResult != nil {
					mu.Lock()
					cfg.OnResult(results[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	rep := &Report{Config: cfg, Runs: results}
	rep.Config.OnResult = nil
	rep.Aggregates = aggregate(results)
	return rep, nil
}

// execute runs one experiment on its own kernel, capturing panics as
// run errors so a single bad parameter set cannot kill the sweep.
func execute(r Run, keepTable bool) (res Result) {
	res.Run = r
	defer func() {
		if p := recover(); p != nil {
			res.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	spec := experiments.ByID(r.Exp)
	if spec == nil {
		res.Error = fmt.Sprintf("unknown experiment %q", r.Exp)
		return res
	}
	t := spec.Run(r.Params)
	res.Metrics = t.Metrics
	if keepTable {
		res.Table = t.String()
	}
	return res
}

// aggregate folds per-run metrics into per-(exp,variant) cross-seed
// summaries, preserving plan order.
func aggregate(results []Result) []Aggregate {
	type key struct{ exp, variant string }
	order := []key{}
	groups := map[key][]Result{}
	for _, r := range results {
		k := key{r.Exp, r.Variant}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	var aggs []Aggregate
	for _, k := range order {
		rs := groups[k]
		a := Aggregate{Exp: k.exp, Variant: k.variant, Seeds: len(rs)}
		if s := experiments.ByID(k.exp); s != nil {
			a.Short = s.Short
		}
		samples := map[string]*sim.Sample{}
		for _, r := range rs {
			if r.Error != "" {
				a.Errors++
				continue
			}
			//ampvet:allow detmap per-name accumulation is independent across names
			for name, v := range r.Metrics {
				s, ok := samples[name]
				if !ok {
					s = sim.NewSample(name)
					samples[name] = s
				}
				s.Observe(v)
			}
		}
		if len(samples) > 0 {
			a.Metrics = map[string]MetricSummary{}
			for _, name := range detmap.SortedKeys(samples) {
				a.Metrics[name] = summarize(samples[name])
			}
		}
		aggs = append(aggs, a)
	}
	return aggs
}
