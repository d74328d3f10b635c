// Command benchguard gates benchmark regressions: it parses standard
// `go test -bench` output and compares every benchmark that has an
// entry in a committed baseline file, failing (exit 1) when any ns/op
// regresses beyond the tolerance. The baseline pins the E1–E7 hot
// paths (BENCH_baseline.json at the repo root); regenerate it after an
// intentional performance change with -update.
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkE([1-7][A-Z]|14Parsim((Serial|Sharded)(64|128)|64Telemetry)$|16Scaling)' . | go run ./cmd/benchguard -baseline BENCH_baseline.json
//	go test -run '^$' -bench '^BenchmarkE([1-7][A-Z]|14Parsim((Serial|Sharded)(64|128)|64Telemetry)$|16Scaling)' . | go run ./cmd/benchguard -baseline BENCH_baseline.json -update
//
// Host benchmarks are noisy, so the guard compares only ns/op with a
// generous default tolerance (25%) and reports improvements without
// failing. Benchmarks missing from the current run fail the guard —
// a silently deleted hot-path benchmark is itself a regression. The
// baseline also stores on-demand entries the CI guard never runs (the
// 248-node E14 pair, the E15 trio); pass the `-bench` pattern again as
// -only so those don't count as missing.
//
// -speedup asserts parallel-scaling floors against the baseline itself:
// each "NUM/DEN:FLOOR" spec fails the guard unless the baseline ns/op
// of NUM is at least FLOOR times that of DEN. Because it reads the
// committed baseline rather than the current run, it gates heavyweight
// pairs CI never re-times (the E15 512-node trio): a baseline regen
// that loses the parallel speedup cannot land quietly.
//
//	... | go run ./cmd/benchguard -speedup 'BenchmarkE15WireScaleSerial512/BenchmarkE15WireScaleSharded512:1.1'
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/benchparse"
	"repro/internal/detmap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON file")
	tolerance := flag.Float64("tolerance", 0.25,
		"allowed fractional ns/op regression (0.25 = +25%); overrides the baseline's stored tolerance when set explicitly")
	update := flag.Bool("update", false,
		"merge this run into the baseline instead of comparing: present benchmarks are refreshed, absent ones kept")
	prune := flag.Bool("prune", false, "with -update: drop baseline entries missing from this run")
	only := flag.String("only", "",
		"regexp restricting which baseline entries are guarded when comparing (pass the same pattern as -bench, so on-demand entries like the E15 trio don't count as missing); empty = all")
	speedup := flag.String("speedup", "",
		"comma-separated speedup floors \"NUM/DEN:FLOOR\" checked against the baseline when comparing: fail unless baseline ns/op of NUM is at least FLOOR × that of DEN (e.g. 'BenchmarkE15WireScaleSerial512/BenchmarkE15WireScaleSharded512:1.1')")
	flag.Parse()
	toleranceSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "tolerance" {
			toleranceSet = true
		}
	})

	var in io.Reader = os.Stdin
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		log.Fatal("at most one input file (default stdin)")
	}

	results, err := benchparse.Parse(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark results in input")
	}

	if *update {
		// Merge over the existing baseline so a partial run (one new
		// benchmark, one subsystem) can refresh its entries without
		// silently dropping every other guard. -prune restores the old
		// replace-everything behavior.
		fresh := len(results)
		merged := results
		note := "ns/op baseline for the guarded hot paths (E1–E7 experiments, E14 parsim at 64/128 nodes — E14ParsimSharded64 doubles as the accounting-overhead entry — plus the E14Parsim64Telemetry recorder-overhead entry, E16 scaling at 96 nodes); regenerate with: go test -run '^$' -bench '^BenchmarkE([1-7][A-Z]|14Parsim((Serial|Sharded)(64|128)|64Telemetry)$|16Scaling)' . | go run ./cmd/benchguard -update"
		tol := *tolerance
		if prev, err := benchparse.ReadBaseline(*baselinePath); err == nil {
			// The stored tolerance survives a regeneration unless the
			// flag was given explicitly — the regen command in CI notes
			// carries no -tolerance and must not silently retighten it.
			if prev.Tolerance > 0 && !toleranceSet {
				tol = prev.Tolerance
			}
			if !*prune {
				//ampvet:allow detmap map-to-map merge; the baseline writer emits sorted JSON
				for name, r := range prev.Benchmarks {
					if _, ok := merged[name]; !ok {
						merged[name] = r
					}
				}
			}
		}
		base := benchparse.Baseline{
			Note:       note,
			Tolerance:  tol,
			Benchmarks: merged,
		}
		if err := base.Write(*baselinePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchguard: wrote %d baselines to %s (%d from this run)\n", len(merged), *baselinePath, fresh)
		return
	}

	base, err := benchparse.ReadBaseline(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	tol := *tolerance
	if base.Tolerance > 0 && !toleranceSet {
		tol = base.Tolerance
	}
	guarded := base.Benchmarks
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			log.Fatalf("bad -only pattern: %v", err)
		}
		guarded = make(map[string]benchparse.Result)
		//ampvet:allow detmap map-to-map filter; the verdict keys are sorted below
		for name, r := range base.Benchmarks {
			if re.MatchString(name) {
				guarded[name] = r
			}
		}
		if len(guarded) == 0 {
			log.Fatalf("-only %q matches no baseline entry", *only)
		}
	}
	verdicts := benchparse.Compare(guarded, results, tol)
	names := detmap.SortedKeys(verdicts)
	failed := 0
	for _, name := range names {
		v := verdicts[name]
		fmt.Println(v.String())
		if v.Regressed {
			failed++
		}
	}
	// Speedup floors read the full baseline, not the -only subset: the
	// pairs they gate are exactly the heavyweight ones CI excludes.
	for _, spec := range splitSpecs(*speedup) {
		num, den, floor, err := parseSpeedup(spec)
		if err != nil {
			log.Fatal(err)
		}
		nb, ok := base.Benchmarks[num]
		if !ok {
			log.Fatalf("-speedup: %s not in baseline", num)
		}
		db, ok := base.Benchmarks[den]
		if !ok {
			log.Fatalf("-speedup: %s not in baseline", den)
		}
		if db.NsPerOp <= 0 {
			log.Fatalf("-speedup: %s has non-positive ns/op in baseline", den)
		}
		ratio := nb.NsPerOp / db.NsPerOp
		if ratio < floor {
			fmt.Printf("SPEEDUP FAIL  %s / %s = %.2f× (floor %.2f×)\n", num, den, ratio, floor)
			failed++
		} else {
			fmt.Printf("speedup ok    %s / %s = %.2f× (floor %.2f×)\n", num, den, ratio, floor)
		}
	}
	if failed > 0 {
		log.Fatalf("%d guard checks failed (%d benchmarks compared, tolerance %.0f%%)", failed, len(verdicts), tol*100)
	}
	fmt.Printf("benchguard: %d guarded benchmarks within %.0f%% of baseline\n", len(verdicts), tol*100)
}

// splitSpecs splits a comma-separated -speedup value, dropping empties.
func splitSpecs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseSpeedup parses one "NUM/DEN:FLOOR" assertion. Benchmark names
// here never contain ':' or '/' (the guarded families are flat, not
// sub-benchmarks), so the last ':' and the only '/' are unambiguous.
func parseSpeedup(spec string) (num, den string, floor float64, err error) {
	i := strings.LastIndex(spec, ":")
	if i < 0 {
		return "", "", 0, fmt.Errorf("-speedup %q: want NUM/DEN:FLOOR", spec)
	}
	floor, err = strconv.ParseFloat(spec[i+1:], 64)
	if err != nil || floor <= 0 {
		return "", "", 0, fmt.Errorf("-speedup %q: bad floor %q", spec, spec[i+1:])
	}
	num, den, ok := strings.Cut(spec[:i], "/")
	if !ok || num == "" || den == "" {
		return "", "", 0, fmt.Errorf("-speedup %q: want NUM/DEN:FLOOR", spec)
	}
	return num, den, floor, nil
}
