package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the program:
// the same workloads and the same metric names and units, inside the
// limits the benchmark contract sets.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bm := loadBenchmarkFile(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why over 200 characters", w.Name)
		}
	}
	if n := len(bm.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bm.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, defs []metricDef) {
		if i >= len(defs) || defs[i].name != name || defs[i].unit != unit {
			t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program disagrees", kind, i, name, unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s metric %q [%s]: bad or repeated name, or bad unit", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %q: better = %q", kind, name, better)
		}
		seen[name] = true
	}
	if len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(bm.EndToEnd), len(bm.PerLayer), len(endToEnd), len(perLayer))
	}
	var setup bool
	for i, m := range bm.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, m := range bm.PerLayer {
		check("per-layer", i, m.Name, m.Unit, m.Better, perLayer)
	}
}

// TestSmoke runs every workload at the small scale, untraced and
// traced, and checks the printed result against BENCHMARK.json and the
// written trace for well-formedness.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 7, 1, false, true, "")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)

			tracePath := filepath.Join(t.TempDir(), "trace.json")
			res, err = runWorkload(w, 7, 1, true, true, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			checkTrace(t, tracePath)
		})
	}
}

// checkResult asserts the result line holds exactly the metrics of
// defs, each with its unit and a finite value, and no failed operation.
func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.write(&buf, defs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var line resultLine
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: printed %+v (present %v), want a finite value in %s", d.name, m, ok, d.unit)
		}
	}
}

// checkTrace asserts the file is Chrome trace JSON and that every span
// carrying a parent id lies inside its parent and shares its iteration.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent int
				Iter       int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	type interval struct {
		start, end float64
		iter       int
	}
	byID := map[int]interval{}
	for _, e := range file.TraceEvents {
		if e.Args.ID != 0 {
			byID[e.Args.ID] = interval{e.Ts, e.Ts + e.Dur, e.Args.Iter}
		}
	}
	children := 0
	for _, e := range file.TraceEvents {
		if e.Args.Parent == 0 {
			continue
		}
		children++
		p, ok := byID[e.Args.Parent]
		// Timestamps are printed to the nanosecond; allow that rounding.
		if !ok || e.Ts < p.start-0.001 || e.Ts+e.Dur > p.end+0.001 || e.Args.Iter != p.iter {
			t.Errorf("span %q [%v,%v] iter %d does not nest in parent %d %+v", e.Name, e.Ts, e.Ts+e.Dur, e.Args.Iter, e.Args.Parent, p)
		}
	}
	if children < 4 {
		t.Errorf("trace has %d child spans, want at least the four phases", children)
	}
}
