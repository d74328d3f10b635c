package core

import (
	"testing"

	"repro/internal/frameacct"
	"repro/internal/sim"
)

// TestRebootLeavesOneChainPerLoop: a node that crashes and reboots
// before its pending loop events have fired must come back with one
// chain of every periodic activity, not the crashed incarnation's chain
// beside the new one. After the rejoin, the victim's heartbeats, the
// ring's keepalives and the events fired over 20 heartbeat intervals
// must equal those of a twin that never crashed.
func TestRebootLeavesOneChainPerLoop(t *testing.T) {
	opts := Options{
		Nodes: 6, Switches: 2, Seed: 3,
		HeartbeatInterval: 2 * sim.Millisecond,
		KeepaliveInterval: 200 * sim.Microsecond,
		SilenceTimeout:    sim.Millisecond,
	}
	const victim = 4
	window := 20 * opts.HeartbeatInterval

	type counts struct{ hb, keepalives, events uint64 }
	measure := func(crash bool) counts {
		c := New(opts)
		defer c.Close()
		if err := c.Boot(0); err != nil {
			t.Fatal(err)
		}
		mustRun(t, c, 5*sim.Millisecond)
		if crash {
			// Down for 50 µs: inside one heartbeat interval, one keepalive
			// interval and one watchdog period.
			c.CrashNode(victim)
			mustRun(t, c, 50*sim.Microsecond)
			c.RebootNode(victim)
		}
		if err := c.WaitHealed(50 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		mustRun(t, c, 10*sim.Millisecond)
		acct := c.FrameAcct()
		before := counts{c.Nodes[victim].HBSent, acct.Consumed[frameacct.ConsumeKeepalive], c.EventsFired()}
		mustRun(t, c, window)
		acct = c.FrameAcct()
		return counts{
			c.Nodes[victim].HBSent - before.hb,
			acct.Consumed[frameacct.ConsumeKeepalive] - before.keepalives,
			c.EventsFired() - before.events,
		}
	}
	twin, got := measure(false), measure(true)
	if twin.hb != 20 {
		t.Fatalf("twin sent %d heartbeats in 20 intervals", twin.hb)
	}
	if got != twin {
		t.Fatalf("over 20 heartbeat intervals after the reboot: %+v, never-crashed twin: %+v", got, twin)
	}
}
