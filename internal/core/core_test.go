package core

import (
	"testing"

	"repro/internal/ampdk"
	"repro/internal/sim"
)

// mustRun is c.Run for tests: a run the engine failed (a model panic,
// a refused call from an event callback) fails the test where it
// happened. A failed engine refuses to advance, so a test that drops
// Run's error asserts against a frozen world.
func mustRun(t testing.TB, c *Cluster, d sim.Time) {
	t.Helper()
	if err := c.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsArePaperTopology(t *testing.T) {
	c := New(Options{})
	if c.Opts.Nodes != 6 || c.Opts.Switches != 4 {
		t.Fatalf("defaults = %d×%d, want the slide-14 6×4", c.Opts.Nodes, c.Opts.Switches)
	}
	if len(c.Nodes) != 6 || len(c.Services) != 6 || len(c.Stacks) != 6 || len(c.Managers) != 6 {
		t.Fatal("per-node components missing")
	}
}

func TestBootAllOnline(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	for i, nd := range c.Nodes {
		if !nd.Online() {
			t.Fatalf("node %d offline", i)
		}
	}
	if c.RingSize() != 4 {
		t.Fatalf("ring size = %d", c.RingSize())
	}
	if c.Roster() == "<no roster>" {
		t.Fatal("no roster string")
	}
}

func TestBootWithRejectedNodeStillSettles(t *testing.T) {
	c := New(Options{Nodes: 3, Switches: 2, VersionOf: func(id int) ampdk.Version {
		if id == 2 {
			return 0x0900
		}
		return 0x0100
	}})
	if err := c.Boot(0); err != nil {
		t.Fatalf("boot should settle with a rejected node: %v", err)
	}
	if c.Nodes[2].State != ampdk.StateRejected {
		t.Fatalf("node 2 state = %v", c.Nodes[2].State)
	}
}

func TestFailureHelpers(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	c.FailLink(1, 0)
	mustRun(t, c, 10*sim.Millisecond)
	if c.RingSize() != 4 {
		t.Fatalf("ring after link cut = %d", c.RingSize())
	}
	c.RestoreLink(1, 0)
	mustRun(t, c, 10*sim.Millisecond)

	c.FailSwitch(1)
	mustRun(t, c, 10*sim.Millisecond)
	if c.RingSize() != 4 {
		t.Fatalf("ring after switch fail = %d", c.RingSize())
	}
	c.RestoreSwitch(1)
	mustRun(t, c, 10*sim.Millisecond)

	c.CrashNode(3)
	mustRun(t, c, 20*sim.Millisecond)
	if c.RingSize() != 3 {
		t.Fatalf("ring after crash = %d", c.RingSize())
	}
	c.RebootNode(3)
	mustRun(t, c, 40*sim.Millisecond)
	if c.RingSize() != 4 {
		t.Fatalf("ring after reboot = %d", c.RingSize())
	}
	if c.Drops() != 0 {
		t.Fatalf("congestion drops = %d", c.Drops())
	}
}

func TestRunAdvancesClock(t *testing.T) {
	c := New(Options{Nodes: 2, Switches: 2})
	t0 := c.Now()
	mustRun(t, c, 5*sim.Millisecond)
	if c.Now() != t0+5*sim.Millisecond {
		t.Fatalf("clock = %v", c.Now())
	}
}
