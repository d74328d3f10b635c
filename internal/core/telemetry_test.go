package core

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/telemetry"
)

// TestTelemetryEquivalence is the telemetry plane's battery leg: at
// every shard count — one included — attaching a wall-clock recorder
// must change NOTHING in the Report bytes: telemetry-on and
// telemetry-off runs are byte-identical to each other and to the
// one-shard run. This is the structural guarantee that lets the
// recorder stay on in production runs without weakening the
// determinism story the engine is built on. Report.Det, the engine's
// own counters, is held to the same standard at a fixed shard count.
func TestTelemetryEquivalence(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	const seed = 1

	var serial []byte
	for _, shards := range []int{1, 2} {
		off, err := equivalenceScenario(&topo, seed, shards).Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards == 1 {
			serial = off.JSON()
		}
		rec := telemetry.NewRecorder(telemetry.NewManualClock(1000, 7))
		onSc := equivalenceScenario(&topo, seed, shards)
		onSc.Opts.Telemetry = rec
		var cl *Cluster
		onSc.OnCluster = func(c *Cluster) { cl = c }
		on, err := onSc.Run()
		if err != nil {
			t.Fatalf("telemetry shards=%d: %v", shards, err)
		}
		if rec.Len() == 0 {
			t.Fatalf("shards=%d: recorder attached but no spans recorded", shards)
		}
		if !bytes.Equal(off.JSON(), on.JSON()) {
			t.Fatalf("shards=%d: telemetry-on report diverged from telemetry-off", shards)
		}
		if !bytes.Equal(serial, on.JSON()) {
			t.Fatalf("shards=%d: telemetry-on report diverged from serial", shards)
		}
		if on.Det == nil || len(on.Det.Shards) != shards {
			t.Fatalf("shards=%d: deterministic plane missing or wrong width: %+v", shards, on.Det)
		}
		if shards == 1 && (on.Det.Frames != 0 || on.Det.Routes != 0) {
			t.Fatalf("one shard: %d frames and %d routes crossed shards", on.Det.Frames, on.Det.Routes)
		}
		// What makes Det a deterministic plane: two same-seed runs at
		// one shard count yield deeply equal planes (the recorder
		// notwithstanding), no window holds more than its shard's events,
		// and the shards' events add up to every event the kernels fired.
		if !reflect.DeepEqual(off.Det, on.Det) {
			t.Fatalf("shards=%d: deterministic plane differs across same-seed runs:\n%+v\n%+v", shards, off.Det, on.Det)
		}
		var events uint64
		for _, s := range on.Det.Shards {
			events += s.Events
			if s.Windows == 0 || s.MaxWindow > s.Events {
				t.Fatalf("shards=%d shard %d: max window %d, %d events, %d windows",
					shards, s.Shard, s.MaxWindow, s.Events, s.Windows)
			}
		}
		if events == 0 || events != cl.EventsFired() {
			t.Fatalf("shards=%d: per-shard events sum to %d, the kernels fired %d", shards, events, cl.EventsFired())
		}
		if !strings.Contains(on.Summary(), "engine:") {
			t.Fatalf("shards=%d: Summary does not surface the deterministic plane:\n%s", shards, on.Summary())
		}
	}
}

const summaryGolden = "testdata/summary.golden"

var updateSummary = flag.Bool("update", false, "rewrite "+summaryGolden)

// TestSummaryGolden pins Summary() text, engine lines included, for one
// faulted, loaded run at one shard and at four: the partition, engine,
// per-shard occupancy and heal-span lines are formatted from the
// deterministic plane, so they are as byte-stable as the Report JSON.
// A change to what the engine spends regenerates it:
// `go test ./internal/core -run TestSummaryGolden -update`.
func TestSummaryGolden(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	var got strings.Builder
	for _, shards := range []int{1, 4} {
		rep, err := equivalenceScenario(&topo, 1, shards).Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got.WriteString(rep.Summary())
	}
	if *updateSummary {
		if err := os.WriteFile(summaryGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(summaryGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("Summary() drifted from %s:\n--- got\n%s--- want\n%s", summaryGolden, got.String(), want)
	}
}
