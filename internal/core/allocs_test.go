package core

import (
	"testing"

	"repro/internal/micropacket"
	"repro/internal/sim"
)

// TestHealedAllocatesNoStrings: Healed is polled by every wait loop, so
// a settled fabric must answer at the cost of liveComponents and one
// idealRoster build — 29 allocations on 32 × 4 — not by rendering every
// node's roster (4 330 allocations when it compared strings).
func TestHealedAllocatesNoStrings(t *testing.T) {
	c := New(Options{Nodes: 32, Switches: 4, Seed: 5})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * sim.Millisecond)
	if !c.Healed() {
		t.Fatalf("32 x 4 did not settle: %v", c.InvariantViolations())
	}
	if n := testing.AllocsPerRun(10, func() { c.Healed() }); n > 40 {
		t.Fatalf("Healed allocates %.0f times on a settled 32 x 4 fabric, want <= 40", n)
	}
}

// TestIdleRingAllocationsPerMillisecond: a booted, idle 16 × 4 ring
// allocates nothing: its heartbeat MicroPackets (16 nodes × 4 beats a
// virtual millisecond) come from the Net's packet pool and go back to it
// after their tour. The bound is per virtual time, not per event: a
// change that fires fewer events for the same millisecond must not fail
// an allocation test. It was 64 when every beat built a packet; with a
// Timer per tick and a keepalive packet per interval it was 0.17 an
// event, some 1 400 a millisecond.
func TestIdleRingAllocationsPerMillisecond(t *testing.T) {
	c := New(Options{Nodes: 16, Switches: 4, Seed: 5})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * sim.Millisecond)
	if allocs := testing.AllocsPerRun(10, func() { c.Run(sim.Millisecond) }); allocs > 0 {
		t.Fatalf("idle 16 x 4 ring: %.0f allocations a virtual millisecond, want 0", allocs)
	}
}

// TestPublishedMessageAllocatesNothing: a header-only message from one
// node to the 15 other subscribers of a 16 × 4 ring is copied once —
// into its MicroPacket, which every station lends to its subscriber and
// which goes back to its Net's pool when the broadcast is stripped — so
// publish to last delivery allocates nothing: 0 measured, 1 when every
// message built a fresh packet, 17 with a clone in Write and a copy per
// delivery (19 from PubSubLoad, which made a buffer and a Timer per
// message as well).
func TestPublishedMessageAllocatesNothing(t *testing.T) {
	// Heartbeats slowed so none falls into the measured windows.
	c := New(Options{Nodes: 16, Switches: 4, Seed: 5, HeartbeatInterval: 50 * sim.Millisecond})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 1; i < 16; i++ {
		c.Services[i].Sub.Subscribe(1, func(_ micropacket.NodeID, data []byte) { delivered += len(data) })
	}
	msg := make([]byte, pubSubHeader)
	publish := func() {
		c.Services[0].Sub.Publish(1, msg)
		c.Run(50 * sim.Microsecond)
	}
	publish()
	if delivered != 15*len(msg) {
		t.Fatalf("%d bytes delivered, want %d", delivered, 15*len(msg))
	}
	if n := testing.AllocsPerRun(50, publish); n > 0 {
		t.Fatalf("a published message delivered to 15 subscribers allocates %.0f times, want 0", n)
	}
}

// TestCollectiveLoadAllocatesNothing: a CollectiveLoad's driver is one
// record whose callbacks are built in begin, and an AmpIP op is a pooled
// record, so a 4-node job iterating without end allocates nothing a
// virtual millisecond once warm — with a closure per op and per
// callback it was 1 121.
func TestCollectiveLoadAllocatesNothing(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2, Seed: 5})
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	a := c.StartLoad(&CollectiveLoad{})
	c.Run(5 * sim.Millisecond)
	before := a.rep.Iters
	allocs := testing.AllocsPerRun(10, func() { c.Run(sim.Millisecond) })
	if a.rep.Iters == before {
		t.Fatal("the job made no progress")
	}
	if allocs > 0 {
		t.Fatalf("a 4-node CollectiveLoad: %.0f allocations a virtual millisecond, want 0", allocs)
	}
}
