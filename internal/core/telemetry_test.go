package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/phys"
	"repro/internal/telemetry"
)

// TestTelemetryEquivalence is the telemetry plane's battery leg: for
// one-shard and sharded runs of the same scenario, attaching a
// wall-clock recorder must change NOTHING in the Report bytes —
// telemetry-on and telemetry-off runs are byte-identical to each other
// and to the one-shard run. This is the structural
// guarantee that lets the recorder stay on in production runs without
// weakening the determinism story the engine is built on.
func TestTelemetryEquivalence(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	const seed = 1

	serialRep, err := equivalenceScenario(&topo, seed, 1).Run()
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	serial := serialRep.JSON()
	if serialRep.Det != nil {
		t.Fatal("one-shard run grew a deterministic telemetry plane (must be sharded-only)")
	}

	for _, shards := range []int{2} {
		off, err := equivalenceScenario(&topo, seed, shards).Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		rec := telemetry.NewRecorder(telemetry.NewManualClock(1000, 7))
		onSc := equivalenceScenario(&topo, seed, shards)
		onSc.Opts.Telemetry = rec
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
		if !strings.Contains(on.Summary(), "engine:") {
			t.Fatalf("Summary does not surface the deterministic plane:\n%s", on.Summary())
		}
	}
}

// TestTelemetryInReportOptIn pins the JSON opt-in: by default the
// deterministic plane stays out of the Report bytes (Det is json:"-"),
// and only Options.TelemetryInReport copies it into a "telemetry"
// object — whose per-shard sections make the JSON shard-count-specific
// by design.
func TestTelemetryInReportOptIn(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	base, err := equivalenceScenario(&topo, 1, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(base.JSON(), []byte(`"telemetry"`)) {
		t.Fatal("telemetry section present without the opt-in")
	}

	sc := equivalenceScenario(&topo, 1, 2)
	sc.Opts.TelemetryInReport = true
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Telemetry *TelemetryReport `json:"telemetry"`
	}
	if err := json.Unmarshal(rep.JSON(), &decoded); err != nil {
		t.Fatal(err)
	}
	d := decoded.Telemetry
	if d == nil || d.Windows == 0 || len(d.Shards) != 2 {
		t.Fatalf("opted-in telemetry section malformed: %+v", d)
	}
	var events uint64
	for _, s := range d.Shards {
		events += s.Events
		if s.EvPerWindow.Count != s.Windows {
			t.Fatalf("shard %d: occupancy histogram count %d != windows %d",
				s.Shard, s.EvPerWindow.Count, s.Windows)
		}
	}
	if events == 0 {
		t.Fatal("per-shard event counts are all zero")
	}
	// The opted-in JSON must itself be reproducible for a fixed shard
	// count: the plane is virtual-time-only.
	sc2 := equivalenceScenario(&topo, 1, 2)
	sc2.Opts.TelemetryInReport = true
	rep2, err := sc2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.JSON(), rep2.JSON()) {
		t.Fatal("opted-in telemetry JSON is not reproducible across same-seed runs")
	}
}
