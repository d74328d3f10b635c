package ampnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchFile is one BENCH_<pr>.json, a tree's cost vector at seed 7 as
// scripts/trajectory.sh writes it.
type benchFile struct {
	PR        int    `json:"pr"`
	Seed      uint64 `json:"seed"`
	Workloads []struct {
		Name         string  `json:"name"`
		ReportSHA256 string  `json:"report_sha256"`
		Events       float64 `json:"sim.events"`
		EventsBoot   float64 `json:"sim.events_boot"`
		EventsPerHop float64 `json:"phys.events_per_hop"`
		PendingPeak  float64 `json:"sim.pending_peak"`
		XFrames      float64 `json:"parsim.xframes"`
		Allocs       float64 `json:"allocs_per_iter"`
		AllocMB      float64 `json:"alloc_mb_per_iter"`
	} `json:"workloads"`
	Host struct {
		Go         string             `json:"go"`
		OS         string             `json:"os"`
		CPU        string             `json:"cpu"`
		Cores      int                `json:"cores"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Wall       map[string]float64 `json:"wall_s_median_host_bound"`
	} `json:"host"`
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
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json committed")
	}
	for _, name := range files {
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
