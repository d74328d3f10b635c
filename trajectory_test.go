package ampnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchFile is one BENCH_<pr>.json, a tree's cost vector at seed 7 as
// scripts/trajectory.sh writes it.
type benchFile struct {
	PR        int             `json:"pr"`
	Seed      uint64          `json:"seed"`
	Workloads []benchWorkload `json:"workloads"`
	Host      struct {
		Go         string             `json:"go"`
		OS         string             `json:"os"`
		CPU        string             `json:"cpu"`
		Cores      int                `json:"cores"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Wall       map[string]float64 `json:"wall_s_median_host_bound"`
	} `json:"host"`
}

// benchWorkload is one workload's row of a BENCH_<pr>.json.
type benchWorkload struct {
	Name         string  `json:"name"`
	ReportSHA256 string  `json:"report_sha256"`
	Events       float64 `json:"sim.events"`
	EventsBoot   float64 `json:"sim.events_boot"`
	EventsPerHop float64 `json:"phys.events_per_hop"`
	PendingPeak  float64 `json:"sim.pending_peak"`
	XFrames      float64 `json:"parsim.xframes"`
	Allocs       float64 `json:"allocs_per_iter"`
	AllocMB      float64 `json:"alloc_mb_per_iter"`
}

// benchFiles decodes every committed BENCH_*.json, with unknown fields
// refused, by PR number.
func benchFiles(t *testing.T) map[int]benchFile {
	t.Helper()
	names, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no BENCH_*.json committed")
	}
	files := map[int]benchFile{}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var f benchFile
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dec.More() {
			t.Fatalf("%s: data after the object", name)
		}
		if got := fmt.Sprintf("BENCH_%d.json", f.PR); got != name || f.Seed != 7 {
			t.Fatalf("%s: says pr %d seed %d", name, f.PR, f.Seed)
		}
		files[f.PR] = f
	}
	return files
}

// TestBenchTrajectoryFiles: every committed BENCH_*.json decodes with
// unknown fields refused, is the PR its name says, and names exactly
// BENCHMARK.json's workloads, in its order, each with a report hash and
// its counts.
func TestBenchTrajectoryFiles(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	files := benchFiles(t)
	for _, pr := range slices.Sorted(maps.Keys(files)) {
		f, name := files[pr], fmt.Sprintf("BENCH_%d.json", pr)
		var got []string
		for _, w := range f.Workloads {
			got = append(got, w.Name)
			if len(w.ReportSHA256) != 64 || w.Events <= 0 || w.Allocs <= 0 || w.AllocMB <= 0 {
				t.Fatalf("%s: %s lacks a report hash or a count: %+v", name, w.Name, w)
			}
			if _, ok := f.Host.Wall[w.Name]; !ok {
				t.Fatalf("%s: no wall median for %s", name, w.Name)
			}
		}
		if !slices.Equal(got, want) || len(f.Host.Wall) != len(want) {
			t.Fatalf("%s: workloads %v (wall for %d), want %v", name, got, len(f.Host.Wall), want)
		}
	}
}

// TestTrajectoryTableQuotesFiles: EXPERIMENTS.md's "Cost trajectory"
// table quotes the BENCH_*.json files cell for cell. A column is
// "<metric> <pr>" for sim.events, allocs_per_iter or alloc_mb_per_iter,
// a row is a workload, counts are exact with digits grouped by spaces
// if at all, megabytes are rounded to three decimals, and the newest
// file has a column of each metric.
func TestTrajectoryTableQuotesFiles(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## Cost trajectory")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "## Cost trajectory" section`)
	}
	var rows [][]string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break // the table ended
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i, c := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(c), "`")
		}
		rows = append(rows, cells)
	}
	if len(rows) < 3 {
		t.Fatalf("the cost trajectory table has %d lines, want a header, a rule and rows", len(rows))
	}
	files := benchFiles(t)
	newest := slices.Max(slices.Collect(maps.Keys(files)))
	column := regexp.MustCompile(`^(sim\.events|allocs_per_iter|alloc_mb_per_iter) (\d+)$`)
	quoted := map[string]bool{}
	for _, row := range rows[2:] {
		if len(row) != len(rows[0]) {
			t.Fatalf("row %v has %d cells, the header %d", row, len(row), len(rows[0]))
		}
		for i, head := range rows[0][1:] {
			m := column.FindStringSubmatch(head)
			if m == nil {
				t.Fatalf("column %q is not \"<sim.events|allocs_per_iter|alloc_mb_per_iter> <pr>\"", head)
			}
			pr, _ := strconv.Atoi(m[2])
			f, ok := files[pr]
			if !ok {
				t.Fatalf("column %q quotes BENCH_%d.json, which is not committed", head, pr)
			}
			at := slices.IndexFunc(f.Workloads, func(w benchWorkload) bool { return w.Name == row[0] })
			if at < 0 {
				t.Fatalf("BENCH_%d.json has no workload %q", pr, row[0])
			}
			w := f.Workloads[at]
			var want string
			switch m[1] {
			case "sim.events":
				want = strconv.FormatFloat(w.Events, 'f', -1, 64)
			case "allocs_per_iter":
				want = strconv.FormatFloat(w.Allocs, 'f', -1, 64)
			default:
				want = strconv.FormatFloat(w.AllocMB, 'f', 3, 64)
			}
			if got := strings.ReplaceAll(row[i+1], " ", ""); got != want {
				t.Errorf("%s, %s: the table says %s, BENCH_%d.json %s", row[0], head, row[i+1], pr, want)
			}
			quoted[head] = true
		}
	}
	for _, metric := range []string{"sim.events", "allocs_per_iter", "alloc_mb_per_iter"} {
		if head := fmt.Sprintf("%s %d", metric, newest); !quoted[head] {
			t.Errorf("the table has no column %q for the newest file", head)
		}
	}
	if len(rows)-2 != len(files[newest].Workloads) {
		t.Errorf("the table has %d workload rows, BENCH_%d.json %d", len(rows)-2, newest, len(files[newest].Workloads))
	}
}
