package experiments

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/detmap"
)

// Every experiment must be a pure function of its Params: a run at seed
// 7 must render, byte for byte, the table committed in
// testdata/tables_seed7.golden — on any machine, at any commit that does
// not mean to move it. The file is where the authoritative tables live:
// one section per spec at its Defaults, and one per topology variant
// (Spec.Variants), headed "[<id>/<Params.Label()>]". `ampbench -seed 7
// -exp <id>` (with the variant's -nodes/-switches/-fiber) prints the
// same bytes between its wall-time lines. Regenerate with
//
//	go test ./internal/experiments -run TestAllSpecsDeterministic -update
//
// (a `-run …/e16` subset rewrites only the tables it ran). The golden
// holds model numbers only, so it moves when a Report or the partition
// does: no column may name an engine cost (engineCosts).
func TestAllSpecsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	type section struct {
		key  string // golden key: the spec id, or id/label for a variant
		spec Spec
		p    Params
	}
	var sections []section
	for _, s := range All() {
		sections = append(sections, section{s.ID, s, s.Defaults})
		for _, v := range s.Variants {
			p := v.Merged(s.Defaults)
			sections = append(sections, section{s.ID + "/" + p.Label(), s, p})
		}
	}
	data, err := os.ReadFile(tablesGolden)
	if err != nil && !*updateGolden {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestAllSpecsDeterministic -update` to create it)", err)
	}
	want := splitTables(string(data))
	if !*updateGolden {
		known := map[string]bool{}
		for _, sec := range sections {
			known[sec.key] = true
		}
		for _, key := range detmap.SortedKeys(want) {
			if !known[key] {
				t.Errorf("%s has a section %q no spec renders; regenerate with -update", tablesGolden, key)
			}
		}
	}
	got := make([]string, len(sections))
	if *updateGolden {
		// The parent's cleanup runs once every parallel subtest is done.
		t.Cleanup(func() {
			for i, sec := range sections {
				if got[i] == "" {
					got[i] = want[sec.key] // not run this time: keep
				}
			}
			if err := os.WriteFile(tablesGolden, []byte(strings.Join(got, "")), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i, sec := range sections {
		t.Run(sec.key, func(t *testing.T) {
			t.Parallel()
			tab := sec.spec.Run(Params{Seed: 7}.Merged(sec.p))
			for _, h := range tab.Header {
				if slices.Contains(engineCosts, h) {
					t.Errorf("%s: column %q is an engine cost; TestSummaryGolden and bench/ pin those, not the experiment golden", sec.key, h)
				}
			}
			got[i] = tab.String()
			if sec.key != sec.spec.ID {
				got[i] = "\n[" + sec.key + "]\n" + got[i]
			}
			if !*updateGolden && got[i] != want[sec.key] {
				t.Fatalf("%s at seed 7 is not the committed table; if the change is intentional, regenerate with -update\n--- got\n%s\n--- %s\n%s",
					sec.key, got[i], tablesGolden, want[sec.key])
			}
		})
	}
}

const tablesGolden = "testdata/tables_seed7.golden"

// engineCosts are the column names the experiment golden may not carry:
// they count the engine's work, which moves with every scheduling
// change while no Report byte does.
var engineCosts = []string{"events", "windows", "barriers", "ev/win", "xframes"}

var updateGolden = flag.Bool("update", false, "rewrite "+tablesGolden)

// tableHead matches the line Table.Fprint opens a table with, and the
// "[id/label]" line a variant's section puts in front of it.
var tableHead = regexp.MustCompile(`(?m)^\n(?:\[(\w+/[\w.]+)\]\n\n)?(E\w+) — `)

// splitTables cuts concatenated table renderings apart, keyed by spec
// id (the table id in lower case) or, for a variant, by its head line.
func splitTables(all string) map[string]string {
	out := map[string]string{}
	heads := tableHead.FindAllStringSubmatchIndex(all, -1)
	for i, h := range heads {
		end := len(all)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		key := strings.ToLower(all[h[4]:h[5]])
		if h[2] >= 0 {
			key = all[h[2]:h[3]]
		}
		out[key] = all[h[0]:end]
	}
	return out
}

// tableRows parses one rendered table back into its rows of trimmed
// cells, header first. Fprint pads every cell to its column's width, and
// the dash line under the header marks where each column starts (in
// runes: fmt pads by rune count).
func tableRows(section string) [][]string {
	lines := strings.Split(section, "\n")
	dash := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "  -") && strings.Trim(l, "- ") == "" {
			dash = i
			break
		}
	}
	if dash < 1 {
		return nil
	}
	var starts []int
	sep := []rune(lines[dash])
	for i, r := range sep {
		if r == '-' && sep[i-1] == ' ' {
			starts = append(starts, i)
		}
	}
	cells := func(line string) []string {
		rs := []rune(line)
		out := make([]string, len(starts))
		for i, from := range starts {
			to := len(rs)
			if i+1 < len(starts) {
				to = min(starts[i+1], to)
			}
			if from < to {
				out[i] = strings.TrimSpace(string(rs[from:to]))
			}
		}
		return out
	}
	rows := [][]string{cells(lines[dash-1])}
	for _, l := range lines[dash+1:] {
		if l == "" || strings.HasPrefix(l, "  note: ") {
			break
		}
		rows = append(rows, cells(l))
	}
	return rows
}

// EXPERIMENTS.md quotes the golden: every row of a markdown table under
// a "### E<n>" heading of a spec is, cell for cell, a row (or
// the header) of that spec's seed-7 table, so a number in the prose
// cannot outlive the behaviour it describes.
func TestExperimentsDocQuotesGolden(t *testing.T) {
	const doc = "../../EXPERIMENTS.md"
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	tables := splitTables(string(golden))
	heading := regexp.MustCompile(`^### (E\d+a?)\b`)
	quoted := map[string]int{} // section id → rows checked
	var id string
	rows := map[string]bool{}
	fence := false
	for n, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "```") {
			fence = !fence
		}
		if fence {
			continue
		}
		if strings.HasPrefix(line, "#") {
			id = ""
			if m := heading.FindStringSubmatch(line); m != nil {
				if s := ByID(strings.ToLower(m[1])); s != nil {
					id = s.ID
					if _, seen := quoted[id]; !seen {
						quoted[id] = 0
					}
					rows = map[string]bool{}
					for _, r := range tableRows(tables[id]) {
						rows[strings.Join(r, "|")] = true
					}
				}
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.Trim(strings.Join(cells, ""), "-:") == "" {
			continue // the |---|---| line
		}
		quoted[id]++
		if !rows[strings.Join(cells, "|")] {
			t.Errorf("%s:%d: this row is not a row of %s's table in %s:\n%s",
				doc, n+1, id, tablesGolden, line)
		}
	}
	if len(quoted) == 0 {
		t.Fatalf("%s has no ### E<n> section to check", doc)
	}
	for _, sid := range detmap.SortedKeys(quoted) {
		if quoted[sid] == 0 {
			t.Errorf("%s: the %s section quotes no table row", doc, sid)
		}
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
