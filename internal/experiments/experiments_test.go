package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/phys"
)

// The experiment suite doubles as an integration test layer: each test
// runs an experiment (scaled down where the default is slow) and
// asserts the verdict cells that encode the paper's claims.

func TestE1TableMatchesSlide4(t *testing.T) {
	tab := E1TypeTable()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] != "ok" {
			t.Fatalf("codec failure: %v", row)
		}
	}
	if tab.Rows[5][2] != "No" {
		t.Fatal("D64 Atomic must be optional")
	}
}

func TestE2Sizes(t *testing.T) {
	tab := E2WireFormats()
	// Six rows per wire-format version: fixed + five variable sizes.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "v1" || tab.Rows[0][3] != "24" {
		t.Fatalf("v1 fixed wire size: %v", tab.Rows[0])
	}
	if tab.Rows[5][3] != "88" {
		t.Fatalf("v1 max variable wire size: %v", tab.Rows[5])
	}
	if tab.Rows[6][1] != "v2" || tab.Rows[6][3] != "28" {
		t.Fatalf("v2 fixed wire size: %v", tab.Rows[6])
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[3] != "92" {
		t.Fatalf("v2 max variable wire size: %v", last)
	}
	for _, row := range tab.Rows {
		if row[6] != "ok" {
			t.Fatalf("symbol round trip: %v", row)
		}
	}
}

func TestE3InsertionBeatsTokenRing(t *testing.T) {
	tab := E3MultiStream(Params{}, 100)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	if tab.Rows[0][5] != "0" {
		t.Fatalf("AmpNet drops: %v", tab.Rows[0])
	}
}

func TestE4Lossless(t *testing.T) {
	tab := E4AllToAll(Params{Nodes: 8}, 40)
	if tab.Rows[0][6] != "LOSSLESS" {
		t.Fatalf("AmpNet verdict: %v", tab.Rows[0])
	}
	if tab.Rows[1][6] == "LOSSLESS" {
		t.Fatalf("baseline should drop: %v", tab.Rows[1])
	}
}

func TestE5NoTornValues(t *testing.T) {
	tab := E5Seqlock(Params{})
	for _, row := range tab.Rows {
		if row[5] != "0" {
			t.Fatalf("torn values: %v", row)
		}
	}
}

func TestE6Exact(t *testing.T) {
	tab := E6Semaphores(Params{Nodes: 3}, 5)
	if tab.Rows[0][4] != "YES" {
		t.Fatalf("mutual exclusion: %v", tab.Rows[0])
	}
}

// percentile is E6's lock-latency p50/p99: nearest rank ⌈p/100·n⌉ over
// a sorted slice, clamped to the first and last value, 0 when empty.
func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		vals    []float64
		p, want float64
	}{
		{hundred, 0, 1}, {hundred, 50, 50}, {hundred, 99, 99}, {hundred, 100, 100},
		{[]float64{3, 7}, 50, 3}, {[]float64{3, 7}, 51, 7}, {[]float64{5}, 99, 5},
		{nil, 0, 0}, {nil, 50, 0}, {nil, 100, 0},
	} {
		if got := percentile(tc.vals, tc.p); got != tc.want {
			t.Errorf("percentile(%d values, %v) = %v, want %v", len(tc.vals), tc.p, got, tc.want)
		}
	}
}

func TestE6aCompletes(t *testing.T) {
	tab := E6aWriteThrough(Params{Nodes: 4})
	for _, row := range tab.Rows {
		if row[2] == "INCOMPLETE" {
			t.Fatalf("replication incomplete: %v", row)
		}
	}
}

func TestE7QuadSurvivesThree(t *testing.T) {
	tab := E7Redundancy(Params{Nodes: 6})
	for _, row := range tab.Rows {
		if row[3] != "yes" {
			t.Fatalf("ring not full: %v", row)
		}
	}
}

func TestE7aConsistent(t *testing.T) {
	tab := E7aLinkFailures(Params{Nodes: 6, Switches: 4}, 4, 2)
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Fatalf("inconsistent rosters: %v", row)
		}
	}
}

func TestE8TwoTours(t *testing.T) {
	hb := NewHealBench(1, 8, 4, 1000)
	heal, tour := hb.HealOnce()
	ratio := float64(heal) / float64(tour)
	if ratio < 1 || ratio > 3 {
		t.Fatalf("heal = %.2f ring tours, want ≈2", ratio)
	}
}

func TestE9VersionGate(t *testing.T) {
	// Run only the version-gate portion cheaply via the full table
	// (the sweep itself is bounded).
	tab := E9Assimilation(Params{})
	last := tab.Rows[len(tab.Rows)-1]
	if last[3] != "rejected (correct)" {
		t.Fatalf("version gate: %v", last)
	}
	for _, row := range tab.Rows[:len(tab.Rows)-1] {
		if row[3] != "online" {
			t.Fatalf("assimilation failed: %v", row)
		}
	}
}

func TestE10NoDataLoss(t *testing.T) {
	tab := E10Failover(Params{})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[5] != "NONE" {
			t.Fatalf("data loss: %v", row)
		}
	}
}

// TestE11AmpNetBeatsBaseline: AmpNet's outage is µs-scale, and the
// static net's is held to its closed form, to the nanosecond. Switch 0
// fails at F, on the send grid Δ, so the last frame through is the one
// sent at F − Δ (the one sent at F dies at the dead switch). Routes
// return at F + detection + ReconvergeDelay, and the first frame through
// again is the first sent at or after that, at B. Both cross the same
// two 50 m hops, so the outage is B − (F − Δ), and the (B − F)/Δ frames
// sent from F on are lost.
func TestE11AmpNetBeatsBaseline(t *testing.T) {
	tab := E11SelfHealVsBaseline(Params{})
	if !strings.Contains(tab.Rows[0][1], "µs") && !strings.Contains(tab.Rows[0][1], "ms") {
		t.Fatalf("AmpNet outage: %v", tab.Rows[0])
	}
	F, D := e11FailTime, e11SendEvery
	B := (F + phys.DefaultDetect + baseline.DefaultReconverge + D - 1) / D * D
	outage, lost := B-(F-D), int64((B-F)/D)
	if row := tab.Rows[1]; row[1] != outage.String() || row[2] != fmt.Sprint(lost) || row[3] != "after protection delay" {
		t.Fatalf("baseline row %v, want outage %v and %d frames lost", row, outage, lost)
	}
}

func TestE12AllComplete(t *testing.T) {
	tab := E12Collectives(Params{Nodes: 4})
	for _, row := range tab.Rows {
		if row[2] == "INCOMPLETE" {
			t.Fatalf("incomplete: %v", row)
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 14 {
		t.Fatalf("registry has %d specs", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.ID] {
			t.Fatalf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Run == nil || s.Short == "" {
			t.Fatalf("incomplete spec %s", s.ID)
		}
	}
	if ByID("e8") == nil || ByID("nope") != nil {
		t.Fatal("ByID broken")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "test", Header: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Add("3", "4")
	tab.Note("n=%d", 5)
	s := tab.String()
	for _, want := range []string{"X — test", "a", "bb", "1", "4", "note: n=5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestE15RejectsIndivisibleNodeCounts(t *testing.T) {
	tab := E15WireScale(Params{Nodes: 300}) // not divisible over 8 rings
	if len(tab.Rows) != 1 || tab.Rows[0][3] != "ERROR" {
		t.Fatalf("expected an error row: %v", tab.Rows)
	}
}

// TestE15ScalesPast255Nodes runs the scaled-down form of E15: a
// 264-node fabric (past the v1 wire ceiling), serial vs 8 shards,
// byte-identical reports. The default 320-node table is the ampbench
// form; this keeps the property in the test suite at tolerable cost.
func TestE15ScalesPast255Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("264-node serial+sharded runs skipped in -short")
	}
	tab := E15WireScale(Params{Nodes: 264})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		if row[1] != "v2" {
			t.Fatalf("row not on wire v2: %v", row)
		}
	}
	if tab.Rows[1][7] != "yes" {
		t.Fatalf("sharded report diverged from serial: %v", tab.Rows[1])
	}
}
