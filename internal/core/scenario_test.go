package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// scenarioTable is the determinism suite: one scenario per canonical
// fault shape, each carrying loads so the report exercises every
// accounting path.
func scenarioTable() []Scenario {
	regions := map[uint8]int{1: 8192}
	return []Scenario{
		{
			Name: "crash",
			Opts: Options{Nodes: 6, Switches: 4, Seed: 11, Regions: regions},
			Plan: Plan{CrashNode(5*sim.Millisecond, 3)},
			Loads: []Load{
				&PubSubLoad{Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond},
				&CacheChurn{Writer: 1, Record: netcache.Record{Region: 1, Off: 0, Size: 16}},
			},
			For: 20 * sim.Millisecond,
		},
		{
			Name:  "switch-fail",
			Opts:  Options{Nodes: 6, Switches: 4, Seed: 11},
			Plan:  Plan{FailSwitch(5*sim.Millisecond, 0)},
			Loads: []Load{&PubSubLoad{Publisher: 2, Topic: 3, Every: 20 * sim.Microsecond, Payload: 32}},
			For:   20 * sim.Millisecond,
		},
		{
			Name: "link-flap",
			Opts: Options{Nodes: 8, Switches: 2, Seed: 7},
			Plan: Plan{
				FailLink(4*sim.Millisecond, 3, 0),
				RestoreLink(10*sim.Millisecond, 3, 0),
			},
			Loads: []Load{&CollectiveLoad{Iters: 6}},
			For:   40 * sim.Millisecond,
		},
		{
			Name: "crash-reboot",
			Opts: Options{Nodes: 4, Switches: 2, Seed: 3, Regions: regions},
			Plan: Plan{
				CrashNode(5*sim.Millisecond, 2),
				RebootNode(15*sim.Millisecond, 2),
			},
			Loads: []Load{
				&CacheChurn{Writer: 0, Record: netcache.Record{Region: 1, Off: 64, Size: 8}, Count: 200, Every: 40 * sim.Microsecond},
				&FileStream{From: 0, To: 1, Size: 64 * 1024},
			},
			For: 40 * sim.Millisecond,
		},
	}
}

// Same seed + same plan ⇒ byte-identical Report JSON. This is the
// property CI regresses (and the race job re-runs under -race).
func TestScenarioReportDeterminism(t *testing.T) {
	for _, s := range scenarioTable() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			first, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			second, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			a, b := first.JSON(), second.JSON()
			if !bytes.Equal(a, b) {
				t.Fatalf("same-seed reports differ:\n--- first\n%s\n--- second\n%s", a, b)
			}
		})
	}
}

// The reports must also mean something: traffic flows, faults fire,
// heal windows are attributed, and the no-congestion-drop guarantee
// holds through every fault shape.
func TestScenarioReportsAreSane(t *testing.T) {
	for _, s := range scenarioTable() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Events) != len(s.Plan) {
				t.Fatalf("fired %d events, want %d", len(rep.Events), len(s.Plan))
			}
			if rep.Drops != 0 {
				t.Fatalf("congestion drops = %d, want 0", rep.Drops)
			}
			if !rep.Healed {
				t.Fatalf("scenario ended unhealed: ring %s", rep.Roster)
			}
			if rep.Events[0].HealNS <= 0 {
				t.Fatalf("first fault has no heal window: %+v", rep.Events[0])
			}
			for _, l := range rep.Loads {
				switch l.Kind {
				case "pubsub":
					if l.Sent == 0 || l.Delivered == 0 {
						t.Fatalf("pubsub load moved nothing: %+v", l)
					}
				case "cache-churn":
					if l.Sent == 0 {
						t.Fatalf("cache churn wrote nothing: %+v", l)
					}
					if l.StaleReplicas != 0 {
						t.Fatalf("stale replicas after settle: %+v", l)
					}
				case "collective":
					if l.Iters == 0 {
						t.Fatalf("collective load iterated zero times: %+v", l)
					}
				case "filestream":
					if l.Files == 0 || l.Corrupt != 0 {
						t.Fatalf("file stream incomplete or corrupt: %+v", l)
					}
				}
			}
		})
	}
}

// Scenario.Run returns malformed input as an error naming the field —
// a negative size or duration is never run as the default — and New
// panics with the same error.
func TestScenarioRejectsInvalidPlan(t *testing.T) {
	opts := Options{Nodes: 4, Switches: 2}
	trunk := phys.Topology{Name: "x", Nodes: 2, Switches: 2, Trunks: []phys.TrunkSpec{{A: 0, B: 1, FiberM: -1}}}
	const short = 2 * sim.Millisecond
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Opts: opts, Plan: Plan{CrashNode(0, 99)}}, "out of range"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, Shards: -3}}, "negative Options.Shards -3"},
		{Scenario{Opts: Options{Fabric: &phys.Topology{Nodes: 4, Switches: 2, FiberM: -10}}}, "negative Topology.FiberM -10"},
		{Scenario{Opts: Options{Fabric: &trunk}}, "negative TrunkSpec.FiberM -1"},
		{Scenario{Opts: Options{Fabric: &phys.Topology{Nodes: 4, Switches: 2, FiberM: math.NaN()}}}, "out-of-range Topology.FiberM NaN"},
		{Scenario{Opts: Options{Fabric: &phys.Topology{Nodes: 4, Switches: 2, FiberM: 1e30}}}, "out-of-range Topology.FiberM 1e+30"},
		{Scenario{Opts: Options{Fabric: &phys.Topology{Nodes: 4, Switches: 2, FiberM: math.Inf(1)}}}, "out-of-range Topology.FiberM +Inf"},
		{Scenario{Opts: opts, For: -5 * sim.Millisecond}, "negative Scenario.For -5"},
		{Scenario{Opts: opts, Settle: -1}, "negative Scenario.Settle"},
		{Scenario{Opts: opts, BootWindow: -1}, "negative Scenario.BootWindow"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, BER: 1e-3}}, "Options.BER 0.001 needs Options.DeepPHY"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, DeepPHY: true, BER: -0.5}}, "Options.BER -0.5 is not a probability in [0, 1]"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, DeepPHY: true, BER: 2}}, "Options.BER 2 is not a probability in [0, 1]"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, DeepPHY: true, BER: math.NaN()}}, "Options.BER NaN is not a probability in [0, 1]"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, HeartbeatInterval: -sim.Millisecond}, For: short}, "negative Options.HeartbeatInterval -1"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, KeepaliveInterval: -sim.Millisecond}, For: short}, "negative Options.KeepaliveInterval -1"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, SilenceTimeout: -sim.Millisecond}, For: short}, "negative Options.SilenceTimeout -1"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, JoinTimeout: -sim.Millisecond}, For: short}, "negative Options.JoinTimeout -1"},
		{Scenario{Opts: Options{Nodes: 4, Switches: 2, Regions: map[uint8]int{2: 64, 3: -64}}, For: short}, "negative Options.Regions[3] size -64"},
		{Scenario{Opts: opts, Loads: []Load{&PubSubLoad{Payload: -100}}, For: short}, "negative PubSubLoad.Payload -100"},
		{Scenario{Opts: opts, Loads: []Load{&PubSubLoad{Every: -sim.Microsecond}}, For: short}, "core: pubsub load: negative PubSubLoad.Every -1.000µs"},
		{Scenario{Opts: opts, Loads: []Load{&PubSubLoad{Count: -2}}, For: short}, "core: pubsub load: negative PubSubLoad.Count -2"},
		{Scenario{Opts: opts, Loads: []Load{&CacheChurn{Every: -sim.Microsecond}}, For: short}, "core: cache-churn load: negative CacheChurn.Every -1.000µs"},
		{Scenario{Opts: opts, Loads: []Load{&CacheChurn{Count: -2}}, For: short}, "core: cache-churn load: negative CacheChurn.Count -2"},
		{Scenario{Opts: opts, Loads: []Load{&CollectiveLoad{Iters: -3}}, For: short}, "core: collective load: negative CollectiveLoad.Iters -3"},
		{Scenario{Opts: opts, Loads: []Load{&FileStream{To: 1, Size: -4}}, For: short}, "core: filestream load: negative FileStream.Size -4"},
		{Scenario{Opts: opts, Loads: []Load{&FileStream{To: 1, Repeat: -5}}, For: short}, "core: filestream load: negative FileStream.Repeat -5"},
		{Scenario{Opts: opts, Loads: []Load{&FileStream{To: 1, Gap: -sim.Millisecond}}, For: short}, "core: filestream load: negative FileStream.Gap -1.000ms"},
	} {
		if _, err := tc.sc.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Scenario.Run: err = %v, want %q", err, tc.want)
		}
	}
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Shards: -3}, "negative Options.Shards -3"},
		{Options{BER: 1e-3}, "Options.BER 0.001 needs Options.DeepPHY"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Errorf("New: panic = %v, want %q", r, tc.want)
				}
			}()
			New(tc.opts)
		}()
	}
}

// A ring of one node — booted that way or left by crashes — has no
// hops, and still reports itself healed.
func TestScenarioOneNodeRing(t *testing.T) {
	for _, sc := range []Scenario{
		{Opts: Options{Nodes: 1}, For: 10 * sim.Millisecond},
		{Opts: Options{Nodes: 3}, Plan: Plan{CrashNode(5*sim.Millisecond, 1), CrashNode(6*sim.Millisecond, 2)}, For: 10 * sim.Millisecond},
	} {
		rep, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.RingSize != 1 || !rep.Healed {
			t.Errorf("%d nodes, plan %v: ring_size %d, healed %v; want 1, true", sc.Opts.Nodes, sc.Plan, rep.RingSize, rep.Healed)
		}
	}
}

// A keepalive slowed on its own must not keep the 60 µs default
// watchdog: an idle ring would re-roster between every two keepalives
// (14 adoptions per node in these 20 ms). The silence timeout follows
// the keepalive, and a pair that spells the same mistake out is refused
// by name.
func TestSlowKeepaliveAloneKeepsIdleRingQuiet(t *testing.T) {
	var c *Cluster
	sc := Scenario{
		Opts:      Options{Nodes: 16, Switches: 4, Seed: 7, KeepaliveInterval: 2 * sim.Millisecond},
		For:       20 * sim.Millisecond,
		OnCluster: func(cl *Cluster) { c = cl },
	}
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Opts.SilenceTimeout; got != 6*sim.Millisecond {
		t.Errorf("derived SilenceTimeout = %v, want 3 × the keepalive", got)
	}
	for i, nd := range c.Nodes {
		if nd.Agent.Adoptions != 1 {
			t.Errorf("node %d adopted %d rosters on an idle ring, want the boot roster only", i, nd.Agent.Adoptions)
		}
	}

	sc.Opts.SilenceTimeout = 3 * sim.Millisecond
	_, err := sc.Run()
	if err == nil || !strings.Contains(err.Error(), "Options.SilenceTimeout") || !strings.Contains(err.Error(), "Options.KeepaliveInterval") {
		t.Errorf("SilenceTimeout under 2 × KeepaliveInterval: err = %v, want an error naming both fields", err)
	}
}

// An event scheduled past For+Settle would never fire; the scenario
// must refuse it instead of reporting a fault-free run.
func TestScenarioRejectsEventsBeyondRun(t *testing.T) {
	_, err := Scenario{
		Opts: Options{Nodes: 4, Switches: 2},
		Plan: Plan{CrashNode(40*sim.Millisecond, 3)},
		For:  30 * sim.Millisecond,
	}.Run()
	if err == nil {
		t.Fatal("Scenario.Run with never-firing event = nil error")
	}
}

// Loads over nonexistent nodes are rejected up front: an error from
// Scenario.Run, an immediate descriptive panic from StartLoad — never
// an index panic mid-simulation.
func TestLoadValidation(t *testing.T) {
	bad := []Load{
		&PubSubLoad{Publisher: 9},
		&PubSubLoad{Publisher: 0, Subscribers: []int{-1}},
		&CacheChurn{Writer: 4},
		&CollectiveLoad{Ranks: []int{0, 7}},
		&FileStream{From: 0, To: 12},
	}
	for _, l := range bad {
		if _, err := (Scenario{
			Opts:  Options{Nodes: 4, Switches: 2},
			Loads: []Load{l},
			For:   sim.Millisecond,
		}).Run(); err == nil {
			t.Errorf("Scenario.Run with bad %T = nil error", l)
		}
	}
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("StartLoad with out-of-range publisher did not panic")
		}
	}()
	c.StartLoad(&PubSubLoad{Publisher: 9})
}

func TestWaitHelpers(t *testing.T) {
	c := New(Options{Nodes: 6, Switches: 4})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if !c.Healed() {
		t.Fatal("cluster not healed right after boot")
	}
	// A crash must unsettle then re-heal the ring at size 5.
	if err := c.Install(Plan{CrashNode(sim.Millisecond, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRingSize(5, 20*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitHealed(20 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The rebooted node must assimilate back to a healed 6-ring.
	if err := c.Install(Plan{RebootNode(0, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitRingSize(6, 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitHealed(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !c.Node(4).Online() {
		t.Fatal("node 4 not online after reboot + WaitHealed")
	}
	// A condition that never comes true must time out exactly at the
	// window, not past it.
	start := c.Now()
	err := c.WaitUntil(func() bool { return false }, 3*sim.Millisecond)
	if err == nil {
		t.Fatal("WaitUntil(false) = nil error")
	}
	if got := c.Now() - start; got != 3*sim.Millisecond {
		t.Fatalf("WaitUntil advanced %v, want exactly 3ms", got)
	}
}

func TestEvery(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	var ticks []sim.Time
	if err := c.Every(3, sim.Millisecond, func() bool {
		ticks = append(ticks, c.Nodes[3].K.Now())
		return len(ticks) < 3
	}); err != nil {
		t.Fatal(err)
	}
	// A node out of range and a non-positive interval are named errors,
	// not panics, and schedule nothing.
	for _, tc := range []struct {
		node int
		d    sim.Time
		want string
	}{
		{4, sim.Millisecond, "core: Every: node 4 out of range [0,4)"},
		{-1, sim.Millisecond, "core: Every: node -1 out of range [0,4)"},
		{0, 0, "core: Every: non-positive interval 0"},
		{0, -sim.Millisecond, "core: Every: non-positive interval"},
	} {
		if err := c.Every(tc.node, tc.d, func() bool { panic("scheduled") }); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Every(%d, %v): err = %v, want %q", tc.node, tc.d, err, tc.want)
		}
	}
	mustRun(t, c, 10*sim.Millisecond)
	want := []sim.Time{0, sim.Millisecond, 2 * sim.Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestHandleAccessors(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2, Regions: map[uint8]int{1: 4096}})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	h := c.Node(2)
	if h.ID() != 2 {
		t.Fatalf("ID() = %d", h.ID())
	}
	if h.Sub() != c.Services[2].Sub || h.Files() != c.Services[2].Files ||
		h.Threads() != c.Services[2].Threads || h.Stack() != c.Stacks[2] ||
		h.Manager() != c.Managers[2] || h.DK() != c.Nodes[2] ||
		h.Sem() != c.Nodes[2].Sem || h.Cache() != c.Nodes[2].Cache ||
		h.CacheW() != c.Nodes[2].CacheW {
		t.Fatal("handle accessors disagree with the cluster slices")
	}
	if !h.Online() {
		t.Fatal("Online() = false after boot")
	}
	h.Crash()
	if h.Online() || h.State().String() != "offline" {
		t.Fatalf("after Crash: online=%v state=%v", h.Online(), h.State())
	}
	h.Reboot()
	if err := c.WaitUntil(h.Online, 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Node(99) did not panic")
		}
	}()
	c.Node(99)
}
