package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestPlanValidation(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	cases := []struct {
		name    string
		plan    Plan
		wantErr string // "" = valid
	}{
		{"empty", Plan{}, ""},
		{"valid crash+reboot", Plan{CrashNode(0, 1), RebootNode(sim.Millisecond, 1)}, ""},
		{"valid fault mix", Plan{
			FailSwitch(sim.Millisecond, 0),
			FailLink(2*sim.Millisecond, 3, 1),
			RestoreLink(3*sim.Millisecond, 3, 1),
			RestoreSwitch(4*sim.Millisecond, 0),
		}, ""},
		{"node out of range", Plan{CrashNode(0, 4)}, "node id out of range"},
		{"negative node", Plan{CrashNode(0, -1)}, "node id out of range"},
		{"switch out of range", Plan{FailSwitch(0, 2)}, "switch id out of range"},
		{"link switch out of range", Plan{FailLink(0, 0, 5)}, "switch id out of range"},
		{"before now", Plan{CrashNode(-sim.Millisecond, 0)}, "before now"},
		{"double crash", Plan{CrashNode(0, 2), CrashNode(sim.Millisecond, 2)}, "already crashed"},
		{"reboot of live node", Plan{RebootNode(0, 1)}, "not crashed"},
		{"double switch failure", Plan{FailSwitch(0, 1), FailSwitch(sim.Millisecond, 1)}, "already failed"},
		{"restore healthy switch", Plan{RestoreSwitch(0, 0)}, "not failed"},
		{"double link cut", Plan{FailLink(0, 1, 0), FailLink(sim.Millisecond, 1, 0)}, "already cut"},
		{"restore intact link", Plan{RestoreLink(0, 1, 0)}, "not cut"},
		{"order by time not position", Plan{
			// Listed reboot-first, but the crash fires earlier, so the
			// sequence is coherent.
			RebootNode(2*sim.Millisecond, 1),
			CrashNode(sim.Millisecond, 1),
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(c)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// An invalid plan must install nothing: no event may fire later.
func TestInstallIsAtomic(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	bad := Plan{
		CrashNode(sim.Millisecond, 0),   // valid on its own...
		CrashNode(2*sim.Millisecond, 9), // ...but this one is out of range
	}
	if err := c.Install(bad); err == nil {
		t.Fatal("Install(bad) = nil, want error")
	}
	mustRun(t, c, 5*sim.Millisecond)
	if !c.Nodes[0].Online() {
		t.Fatal("node 0 crashed: the invalid plan was partially installed")
	}
	if len(c.Applied()) != 0 {
		t.Fatalf("Applied() = %v, want empty", c.Applied())
	}
}

func TestInstallAppliesEventsInOrder(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	var seen []string
	c.OnEvent = func(e Event) { seen = append(seen, e.String()) }
	plan := Plan{
		FailSwitch(sim.Millisecond, 0),
		CrashNode(2*sim.Millisecond, 3),
		RestoreSwitch(3*sim.Millisecond, 0),
	}
	if err := c.Install(plan); err != nil {
		t.Fatal(err)
	}
	mustRun(t, c, 5*sim.Millisecond)
	want := []string{"fail-switch 0", "crash-node 3", "restore-switch 0"}
	if len(seen) != len(want) {
		t.Fatalf("fired %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("fired %v, want %v", seen, want)
		}
	}
	if got := len(c.Applied()); got != 3 {
		t.Fatalf("Applied() has %d events, want 3", got)
	}
	if c.Nodes[3].Online() {
		t.Fatal("node 3 still online after planned crash")
	}
}

// Validation must see events pending from earlier installs: a crash
// already scheduled both legitimizes a later reboot-only plan and
// forbids a second crash of the same node.
func TestValidateAgainstPendingEvents(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(Plan{CrashNode(sim.Millisecond, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(Plan{CrashNode(2*sim.Millisecond, 3)}); err == nil {
		t.Fatal("second crash of node 3 accepted despite the pending first crash")
	} else if !strings.Contains(err.Error(), "already crashed") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := c.Install(Plan{RebootNode(2*sim.Millisecond, 3)}); err != nil {
		t.Fatalf("reboot after a pending crash rejected: %v", err)
	}
	// Once fired, the events leave the pending set and the cluster's
	// real state takes over.
	mustRun(t, c, 5*sim.Millisecond)
	if got := len(c.Applied()); got != 2 {
		t.Fatalf("applied %d events, want 2", got)
	}
	if err := c.WaitHealed(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(Plan{CrashNode(0, 3)}); err != nil {
		t.Fatalf("crash after completed crash+reboot rejected: %v", err)
	}
}

// A zero-offset install followed immediately by a wait must observe
// the fault: the current instant's events fire before the first probe.
func TestWaitSeesZeroOffsetEvents(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Install(Plan{FailSwitch(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitHealed(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(c.Applied()) != 1 {
		t.Fatalf("applied %d events, want 1 — WaitHealed returned before the fault fired", len(c.Applied()))
	}
	if !c.Phys.Switches[0].Failed() {
		t.Fatal("switch 0 not failed after WaitHealed")
	}
	// And the heal is real: the agreed roster routes around switch 0.
	if r := c.Roster(); strings.Contains(r, "-s0->") {
		t.Fatalf("healed roster still routes through failed switch 0: %s", r)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("10ms fail-switch 0; 20ms restore-switch 0\n5ms crash-node 3;15ms reboot-node 3; 1ms fail-link 2 1; 2ms restore-link 2 1")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		FailSwitch(10*sim.Millisecond, 0),
		RestoreSwitch(20*sim.Millisecond, 0),
		CrashNode(5*sim.Millisecond, 3),
		RebootNode(15*sim.Millisecond, 3),
		FailLink(sim.Millisecond, 2, 1),
		RestoreLink(2*sim.Millisecond, 2, 1),
	}
	if len(p) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(p), len(want))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, p[i], want[i])
		}
	}
	for _, bad := range []string{
		"10ms", "10ms crash-node", "xs crash-node 1", "10ms crash-node one",
		"10ms melt-node 1", "10ms fail-link 1", "10ms crash-node 1 2",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) = nil error, want error", bad)
		}
	}
	// Blank entries are ignored.
	if p, err := ParsePlan(" ; \n ;"); err != nil || len(p) != 0 {
		t.Fatalf("ParsePlan(blanks) = %v, %v", p, err)
	}
}

// Boot must not overshoot a sub-millisecond (or non-integral-ms)
// window: the poll step is clamped to the deadline.
func TestBootWindowNotOvershot(t *testing.T) {
	for _, window := range []sim.Time{500 * sim.Microsecond, 1500 * sim.Microsecond} {
		c := New(Options{Nodes: 6, Switches: 4})
		_ = c.Boot(window) // too short to settle — the error is expected
		if c.Now() > window {
			t.Fatalf("Boot(%v) left the clock at %v — overshot its deadline", window, c.Now())
		}
	}
}
