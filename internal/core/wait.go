package core

import (
	"fmt"

	"repro/internal/sim"
)

// waitStep bounds how far the Wait* helpers advance the clock between
// predicate probes. Predicates are host-side observations, so probing
// every 100 µs of virtual time keeps waits responsive without
// disturbing event order (the kernel executes the same events either
// way).
const waitStep = 100 * sim.Microsecond

// stepUntil advances virtual time in deadline-clamped steps until pred
// holds, probing before the first step and after each one. It is the
// shared engine of Boot's settle poll and the Wait* helpers.
func (c *Cluster) stepUntil(pred func() bool, deadline, step sim.Time) bool {
	// Realize the current instant before the first probe: zero-offset
	// plan events and After(0) work are pending at Now, and the
	// predicate must not observe the world as it was before they fire.
	c.eng.RunUntil(c.eng.Now())
	// A failed engine refuses to advance: the loop would spin on a
	// clock that never moves, and pred would probe a frozen world.
	for c.Err() == nil {
		if pred() {
			return true
		}
		if c.eng.Now() >= deadline {
			return false
		}
		c.eng.RunUntil(min(c.eng.Now()+step, deadline))
	}
	return false
}

// WaitUntil advances virtual time until pred returns true, probing at
// waitStep granularity, or fails after the window elapses. It replaces
// the blind Run(d)-and-hope and hand-rolled poll loops: the simulation
// stops exactly when the condition holds, so follow-on measurements
// are taken at the condition's onset, not a window boundary.
func (c *Cluster) WaitUntil(pred func() bool, within sim.Time) error {
	if c.stepUntil(pred, c.Now()+within, waitStep) {
		return nil
	}
	if err := c.Err(); err != nil {
		return err
	}
	return fmt.Errorf("core: condition still false after %v (t=%v)", within, c.Now())
}

// WaitRingSize waits until the logical ring reaches exactly n nodes.
func (c *Cluster) WaitRingSize(n int, within sim.Time) error {
	if err := c.WaitUntil(func() bool { return c.RingSize() == n }, within); err != nil {
		return fmt.Errorf("core: ring size %d not reached within %v (size=%d)", n, within, c.RingSize())
	}
	return nil
}

// WaitHealed waits until the cluster has settled after a fault or
// repair: in every live partition of the fabric, every reachable node
// is fully online (none mid-assimilation), all of them agree on the
// same roster, and that roster contains exactly the partition's nodes.
// See Healed (internal/core/invariants.go) for the exact predicate.
func (c *Cluster) WaitHealed(within sim.Time) error {
	if err := c.WaitUntil(c.Healed, within); err != nil {
		return fmt.Errorf("core: cluster not healed within %v (ring=%s)", within, c.Roster())
	}
	return nil
}

// Every runs fn on node's kernel now and then every d of virtual time
// until fn returns false: periodic application work (checkpoints,
// pollers) without hand-rolled self-rescheduling closures. A node out
// of range or a non-positive interval is refused.
func (c *Cluster) Every(node int, d sim.Time, fn func() bool) error {
	if node < 0 || node >= len(c.Nodes) {
		return fmt.Errorf("core: Every: node %d out of range [0,%d)", node, len(c.Nodes))
	}
	if d <= 0 {
		return fmt.Errorf("core: Every: non-positive interval %v", d)
	}
	everyOn(c.Nodes[node].K, d, fn)
	return nil
}

// everyOn is Every pinned to one kernel, for the loads, whose intervals
// are already checked. The driver owns one Timer, re-armed after each
// tick that asks for another.
func everyOn(k *sim.Kernel, d sim.Time, fn func() bool) {
	var t *sim.Timer
	t = k.After(0, func() {
		if fn() {
			t.Reset(d)
		}
	})
}
