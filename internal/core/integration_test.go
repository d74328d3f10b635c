package core

import (
	"testing"

	"repro/internal/micropacket"
	"repro/internal/sim"
)

// TestSemaphoreHomeMigration: the semaphore home is the lowest rostered
// node; when it dies, the role moves and the replicated table keeps the
// semaphore values — locking continues to work.
func TestSemaphoreHomeMigration(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	// Take and release a lock, and set a counter, while node 0 is home.
	done := false
	c.Nodes[3].Sem.Lock(9, func() {
		c.Nodes[3].Sem.Unlock(9)
		done = true
	})
	c.Nodes[2].Sem.Op(10, micropacket.OpWrite, 777, nil)
	mustRun(t, c, 10*sim.Millisecond)
	if !done {
		t.Fatal("pre-crash lock failed")
	}

	// Kill the home. The roster heals; home becomes node 1.
	c.CrashNode(0)
	mustRun(t, c, 30*sim.Millisecond)
	if c.RingSize() != 3 {
		t.Fatalf("ring = %d", c.RingSize())
	}

	// The counter survived at the new home's replica.
	if v := c.Nodes[1].Sem.Value(10); v != 777 {
		t.Fatalf("semaphore value lost in migration: %d", v)
	}
	// Locking still works against the new home.
	done = false
	c.Nodes[3].Sem.Lock(9, func() {
		done = true
		c.Nodes[3].Sem.Unlock(9)
	})
	mustRun(t, c, 20*sim.Millisecond)
	if !done {
		t.Fatal("post-migration lock failed")
	}
	// And the op executed at node 1, not node 0.
	var old uint64
	c.Nodes[2].Sem.Op(10, micropacket.OpFetchAdd, 1, func(o uint64) { old = o })
	mustRun(t, c, 10*sim.Millisecond)
	if old != 777 {
		t.Fatalf("fetchadd old = %d, want 777", old)
	}
}

// TestTotalBlackoutAndRecovery: every switch dies (no network at all);
// when the switches return, the ring re-forms and service resumes.
func TestTotalBlackoutAndRecovery(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	c.FailSwitch(0)
	c.FailSwitch(1)
	mustRun(t, c, 20*sim.Millisecond)
	// Every node is isolated; no ring hop survives.
	for i, nd := range c.Nodes {
		if nd.Station.OnRing() {
			t.Fatalf("node %d still thinks it is on a ring during blackout", i)
		}
	}
	c.RestoreSwitch(0)
	c.RestoreSwitch(1)
	mustRun(t, c, 30*sim.Millisecond)
	if c.RingSize() != 4 {
		t.Fatalf("ring after blackout = %d", c.RingSize())
	}
	got := 0
	c.Services[2].Sub.Subscribe(1, func(micropacket.NodeID, []byte) { got++ })
	c.Services[0].Sub.Publish(1, []byte{1})
	mustRun(t, c, 5*sim.Millisecond)
	if got != 1 {
		t.Fatalf("post-blackout deliveries = %d", got)
	}
}

// TestRepeatedFailureCycles: alternating switch failures and repairs;
// the ring must be full and lossless after every cycle.
func TestRepeatedFailureCycles(t *testing.T) {
	c := New(Options{Nodes: 6, Switches: 4})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 6; cycle++ {
		s := cycle % 4
		c.FailSwitch(s)
		mustRun(t, c, 10*sim.Millisecond)
		if c.RingSize() != 6 {
			t.Fatalf("cycle %d: ring = %d after failure", cycle, c.RingSize())
		}
		c.RestoreSwitch(s)
		mustRun(t, c, 10*sim.Millisecond)
		if c.RingSize() != 6 {
			t.Fatalf("cycle %d: ring = %d after repair", cycle, c.RingSize())
		}
	}
	if c.Drops() != 0 {
		t.Fatalf("congestion drops across cycles: %d", c.Drops())
	}
}

// TestLargeCluster: 32 nodes across 4 switches boot, converge and
// deliver end to end.
func TestLargeCluster(t *testing.T) {
	c := New(Options{Nodes: 32, Switches: 4})
	if err := c.Boot(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.RingSize() != 32 {
		t.Fatalf("ring = %d", c.RingSize())
	}
	got := 0
	c.Services[31].Sub.Subscribe(1, func(micropacket.NodeID, []byte) { got++ })
	c.Services[0].Sub.Publish(1, []byte{1})
	mustRun(t, c, 10*sim.Millisecond)
	if got != 1 {
		t.Fatalf("deliveries = %d", got)
	}
	if c.Drops() != 0 {
		t.Fatalf("drops = %d", c.Drops())
	}
}

// TestBroadcastStormOnFullStack: all nodes publish simultaneously to
// the same topic; zero congestion drops (slide 8 at service level).
func TestBroadcastStormOnFullStack(t *testing.T) {
	const n = 8
	c := New(Options{Nodes: n, Switches: 2})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		c.Services[i].Sub.Subscribe(1, func(micropacket.NodeID, []byte) { counts[i]++ })
	}
	const per = 25
	for i := 0; i < n; i++ {
		svc := c.Services[i]
		c.Nodes[i].K.After(0, func() {
			for j := 0; j < per; j++ {
				svc.Sub.Publish(1, []byte{byte(j)})
			}
		})
	}
	mustRun(t, c, 50*sim.Millisecond)
	for i, got := range counts {
		if got != n*per { // includes local loopback
			t.Fatalf("node %d deliveries = %d, want %d", i, got, n*per)
		}
	}
	if c.Drops() != 0 {
		t.Fatalf("drops = %d", c.Drops())
	}
}
