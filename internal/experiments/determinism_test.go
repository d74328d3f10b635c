package experiments

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// Every experiment must be a pure function of its Params: a run at seed
// 7 must render, byte for byte, the table committed in
// testdata/tables_seed7.golden — on any machine, at any commit that does
// not mean to move it. This is the property the sweep harness builds on
// (without it, cross-seed aggregates would mix run-to-run noise into the
// statistics), and the file is where the authoritative tables live:
// `ampbench -seed 7 -exp <id>` prints the same bytes between its
// wall-time lines. Regenerate with
//
//	go test ./internal/experiments -run TestAllSpecsDeterministic -update
//
// (a `-run …/e14` subset rewrites only the tables it ran). Wall-clock
// experiments (Spec.Wall) are excluded for the same reason the sweep
// harness excludes them: their tables time concurrent shard goroutines,
// whose clock reads interleave differently run to run even under an
// injected manual clock. TestE17SpeedupStructure covers their
// deterministic half.
func TestAllSpecsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	var specs []Spec
	for _, s := range All() {
		if !s.Wall {
			specs = append(specs, s)
		}
	}
	data, err := os.ReadFile(tablesGolden)
	if err != nil && !*updateGolden {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestAllSpecsDeterministic -update` to create it)", err)
	}
	want := splitTables(string(data))
	got := make([]string, len(specs))
	if *updateGolden {
		// The parent's cleanup runs once every parallel subtest is done.
		t.Cleanup(func() {
			for i, s := range specs {
				if got[i] == "" {
					got[i] = want[s.ID] // not run this time: keep
				}
			}
			if err := os.WriteFile(tablesGolden, []byte(strings.Join(got, "")), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i, s := range specs {
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			got[i] = s.Run(Params{Seed: 7}.Merged(s.Defaults)).String()
			if !*updateGolden && got[i] != want[s.ID] {
				t.Fatalf("%s at seed 7 is not the committed table; if the change is intentional, regenerate with -update\n--- got\n%s\n--- %s\n%s",
					s.ID, got[i], tablesGolden, want[s.ID])
			}
		})
	}
}

const tablesGolden = "testdata/tables_seed7.golden"

var updateGolden = flag.Bool("update", false, "rewrite "+tablesGolden)

// tableHead matches the line Table.Fprint opens a table with.
var tableHead = regexp.MustCompile(`(?m)^\n(E\w+) — `)

// splitTables cuts concatenated table renderings apart, keyed by spec
// id (the table id in lower case).
func splitTables(all string) map[string]string {
	out := map[string]string{}
	heads := tableHead.FindAllStringSubmatchIndex(all, -1)
	for i, h := range heads {
		end := len(all)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		out[strings.ToLower(all[h[2]:h[3]])] = all[h[0]:end]
	}
	return out
}

// TestE17SpeedupStructure checks the speedup study's deterministic
// half on a scaled-down fabric: every sharded report byte-matches the
// one-shard one, and the machine-honesty metrics (cores, GOMAXPROCS)
// are present. Wall numbers themselves are machine-bound
// and not asserted.
func TestE17SpeedupStructure(t *testing.T) {
	tab := E17Speedup(Params{
		Seed: 7, Nodes: 12, Switches: 4,
		Telemetry: telemetry.NewRecorder(telemetry.NewManualClock(0, 1000)),
	})
	if tab.Metrics["all_identical"] != 1 {
		t.Fatalf("sharded reports diverged from serial:\n%s", tab.String())
	}
	if tab.Metrics["cores"] < 1 || tab.Metrics["gomaxprocs"] < 1 {
		t.Fatalf("machine-honesty metrics missing: %v", tab.Metrics)
	}
	var sawSerial, sawSharded bool
	for _, row := range tab.Rows {
		switch row[6] {
		case "serial":
			sawSerial = true
		case "yes":
			sawSharded = true
			if row[3] == "-" || row[4] == "-" {
				t.Fatalf("sharded row missing busy/wait decomposition: %v", row)
			}
		}
	}
	if !sawSerial || !sawSharded {
		t.Fatalf("rows missing (serial %v, sharded %v):\n%s", sawSerial, sawSharded, tab.String())
	}
}

// A different seed must not corrupt the paper's invariant verdicts: the
// qualitative claims hold for every seed, only the noisy quantities
// move. Spot-check the two claims that are most seed-sensitive.
func TestSeededRunsKeepInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple seeded experiment runs")
	}
	for _, seed := range []uint64{2, 9} {
		tab := E4AllToAll(Params{Seed: seed, Nodes: 8}, 40)
		if tab.Rows[0][6] != "LOSSLESS" {
			t.Fatalf("seed %d: AmpNet dropped frames: %v", seed, tab.Rows[0])
		}
		tab = E10Failover(Params{Seed: seed})
		for _, row := range tab.Rows {
			if row[5] != "NONE" {
				t.Fatalf("seed %d: data loss: %v", seed, row)
			}
		}
	}
}

// Params.Merged fills only zero fields; Label excludes the seed.
func TestParamsMergeAndLabel(t *testing.T) {
	d := Params{Nodes: 8, Switches: 4, FiberM: 50}
	p := Params{Seed: 3, Nodes: 16}.Merged(d)
	if p.Seed != 3 || p.Nodes != 16 || p.Switches != 4 || p.FiberM != 50 {
		t.Fatalf("merged = %+v", p)
	}
	if got := p.Label(); got != "n16.sw4.f50" {
		t.Fatalf("label = %q", got)
	}
	if got := (Params{Seed: 9}).Label(); got != "default" {
		t.Fatalf("label of seed-only params = %q, want default", got)
	}
}

// Registry variants must merge into runnable parameter sets.
func TestRegistryVariantsRunnable(t *testing.T) {
	for _, s := range All() {
		for _, v := range s.Variants {
			m := v.Merged(s.Defaults)
			if m.Nodes < 0 || m.Switches < 0 || m.FiberM < 0 {
				t.Fatalf("%s variant %+v merges to invalid %+v", s.ID, v, m)
			}
		}
	}
}
