package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func smallConfig(par int) Config {
	return Config{
		Experiments: []string{"e1", "e3", "e7a"},
		Seeds:       2,
		BaseSeed:    1,
		Parallel:    par,
		KeepTables:  true,
	}
}

func TestPlanShape(t *testing.T) {
	runs, err := Plan(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// e1: 1 variant, e3: 3 variants, e7a: 1 variant → 5 variants × 2 seeds.
	if len(runs) != 10 {
		t.Fatalf("plan has %d runs, want 10", len(runs))
	}
	if runs[0].Exp != "e1" || runs[0].Seed != 1 || runs[1].Seed != 2 {
		t.Fatalf("plan order wrong: %+v", runs[:2])
	}
	for _, r := range runs {
		if r.Params.Seed != r.Seed {
			t.Fatalf("params seed %d != run seed %d", r.Params.Seed, r.Seed)
		}
	}
}

func TestPlanUnknownExperiment(t *testing.T) {
	if _, err := Plan(Config{Experiments: []string{"nope"}}); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// Zero counts mean the defaults; negative ones are refused by field
// name rather than run as some default.
func TestConfigRefusesNegativeCounts(t *testing.T) {
	for field, cfg := range map[string]Config{
		"Config.Seeds":    {Experiments: []string{"e1"}, Seeds: -1},
		"Config.Parallel": {Experiments: []string{"e1"}, Parallel: -3},
	} {
		if _, err := Sweep(cfg); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Sweep with negative %s: err = %v, want an error naming it", field, err)
		}
	}
	if runs, err := Plan(Config{Experiments: []string{"e1"}}); err != nil || len(runs) != 1 {
		t.Errorf("zero Config: %d runs, err %v; want the one default-seed run", len(runs), err)
	}
}

// The sweep must be byte-reproducible: same config → same serialized
// report, run after run.
func TestSweepByteReproducible(t *testing.T) {
	encode := func() []byte {
		rep, err := Sweep(smallConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two sweeps with the same config produced different reports")
	}
}

// Worker count must not leak into results: runs and aggregates are
// ordered by plan position, not completion order.
func TestSweepIndependentOfParallelism(t *testing.T) {
	get := func(par int) ([]Result, []Aggregate) {
		rep, err := Sweep(smallConfig(par))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Runs, rep.Aggregates
	}
	r1, a1 := get(1)
	r4, a4 := get(4)
	j1, _ := json.Marshal(r1)
	j4, _ := json.Marshal(r4)
	if !bytes.Equal(j1, j4) {
		t.Fatal("runs differ between 1 and 4 workers")
	}
	k1, _ := json.Marshal(a1)
	k4, _ := json.Marshal(a4)
	if !bytes.Equal(k1, k4) {
		t.Fatal("aggregates differ between 1 and 4 workers")
	}
}

func TestAggregateStats(t *testing.T) {
	rep, err := Sweep(Config{Experiments: []string{"e3"}, Seeds: 3, Parallel: 2, NoVariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Aggregates) != 1 {
		t.Fatalf("aggregates = %d, want 1 (variants disabled)", len(rep.Aggregates))
	}
	a := rep.Aggregates[0]
	if a.Seeds != 3 || a.Errors != 0 {
		t.Fatalf("aggregate %+v", a)
	}
	m, ok := a.Metrics["ampnet_mbps"]
	if !ok {
		t.Fatalf("missing ampnet_mbps in %v", a.Metrics)
	}
	if m.N != 3 || m.Mean <= 0 || m.Min > m.Max || m.P50 < m.Min || m.P99 > m.Max {
		t.Fatalf("inconsistent summary %+v", m)
	}
}

func TestSweepSurvivesPanickingRun(t *testing.T) {
	// An impossible topology (negative node count) must surface as a
	// run error, not kill the process.
	res := execute(Run{Exp: "e3", Variant: "bad", Params: experiments.Params{Nodes: -1}}, false)
	if res.Error == "" {
		t.Fatal("negative node count did not produce a run error")
	}
}

func TestExecuteUnknownExperiment(t *testing.T) {
	res := execute(Run{Exp: "nope"}, false)
	if res.Error == "" {
		t.Fatal("unknown experiment did not produce a run error")
	}
}

func TestCSVAndTextOutputs(t *testing.T) {
	rep, err := Sweep(Config{Experiments: []string{"e1"}, Seeds: 2, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, txtBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteText(&txtBuf); err != nil {
		t.Fatal(err)
	}
	if csvBuf.Len() == 0 || txtBuf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestKeepTables(t *testing.T) {
	rep, err := Sweep(Config{Experiments: []string{"e1"}, Seeds: 1, Parallel: 1, KeepTables: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Table == "" {
		t.Fatal("KeepTables did not retain the rendered table")
	}
}
