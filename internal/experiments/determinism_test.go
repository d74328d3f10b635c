package experiments

import (
	"testing"

	"repro/internal/telemetry"
)

// Every experiment must be a pure function of its Params: two runs with
// the same seed must render byte-identical tables. This is the property
// the sweep harness builds on — without it, cross-seed aggregates would
// mix run-to-run noise into the statistics. Wall-clock experiments
// (Spec.Wall) are excluded for the same reason the sweep harness
// excludes them: their tables time concurrent shard goroutines, whose
// clock reads interleave differently run to run even under an injected
// manual clock. TestE17SpeedupStructure covers their deterministic
// half.
func TestAllSpecsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite twice")
	}
	for _, s := range All() {
		s := s
		if s.Wall {
			continue
		}
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			p := Params{Seed: 7}.Merged(s.Defaults)
			a := s.Run(p).String()
			b := s.Run(p).String()
			if a != b {
				t.Fatalf("two same-seed runs of %s differ:\n--- first\n%s\n--- second\n%s", s.ID, a, b)
			}
		})
	}
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
