package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/phys"
	"repro/internal/sim"
)

// The invariant battery: randomized fault/repair plans across many
// seeds and every fabric shape, asserting the roster invariants
// (InvariantViolations: no duplicate node ids, every arc on live
// hardware, ring size == live nodes per partition, full agreement)
// after every heal window. This is the property-style complement to the
// hand-picked scenarios: the interleaving of faults, rostering floods,
// watchdogs and assimilation is different for every seed, and the
// invariants must hold at every settle point regardless.

// batteryFault is one applicable fault with its repair.
type batteryFault struct {
	name    string
	fault   Event
	repair  Event
	applies func(c *Cluster) bool
}

// batteryFaults enumerates the fault menu for a cluster, at offset 0
// (install-time firing).
func batteryFaults(rng *rand.Rand, c *Cluster) []batteryFault {
	nodes := len(c.Nodes)
	n := rng.Intn(nodes)
	s := rng.Intn(len(c.Phys.Switches))
	menu := []batteryFault{
		{
			name: fmt.Sprintf("crash-node %d", n), fault: CrashNode(0, n), repair: RebootNode(0, n),
			applies: func(c *Cluster) bool { return true },
		},
		{
			name: fmt.Sprintf("fail-switch %d", s), fault: FailSwitch(0, s), repair: RestoreSwitch(0, s),
			applies: func(c *Cluster) bool { return !c.Phys.Switches[s].Failed() },
		},
	}
	// A link fault needs an existing link.
	var links [][2]int
	for i := 0; i < nodes; i++ {
		for sw := range c.Phys.Switches {
			if c.Phys.NodeLinks[i][sw] != nil {
				links = append(links, [2]int{i, sw})
			}
		}
	}
	l := links[rng.Intn(len(links))]
	menu = append(menu, batteryFault{
		name: fmt.Sprintf("fail-link %d %d", l[0], l[1]), fault: FailLink(0, l[0], l[1]), repair: RestoreLink(0, l[0], l[1]),
		applies: func(c *Cluster) bool { return c.Phys.NodeLinks[l[0]][l[1]].Up() },
	})
	if nt := c.Phys.NumTrunks(); nt > 0 {
		tr := rng.Intn(nt)
		menu = append(menu, batteryFault{
			name: fmt.Sprintf("fail-trunk %d", tr), fault: FailTrunk(0, tr), repair: RestoreTrunk(0, tr),
			applies: func(c *Cluster) bool { return c.Phys.TrunkUp(tr) },
		})
	}
	return menu
}

// batteryFabrics returns the fabric shapes the battery sweeps: the
// single-ring uniform segments and the new multi-ring (trunked)
// shapes.
func batteryFabrics() []phys.Topology {
	return []phys.Topology{
		phys.Uniform(6, 4, 50),
		phys.Uniform(5, 2, 50),
		phys.DualRing(6, 50),
		phys.Mesh(6, 3, 50),
		phys.Sharded(2, 3, 2, 50),
	}
}

// settleAndCheck waits for the cluster to heal and asserts every
// invariant at the settle point.
func settleAndCheck(t *testing.T, c *Cluster, seed uint64, what string) {
	t.Helper()
	// Let the fault fire and the loss-of-light/watchdog detection run
	// before polling for the healed state.
	mustRun(t, c, 2*sim.Millisecond)
	if err := c.WaitHealed(60 * sim.Millisecond); err != nil {
		t.Fatalf("seed %d: after %s: %v\n  violations: %v", seed, what, err, c.InvariantViolations())
	}
	if v := c.InvariantViolations(); len(v) != 0 {
		t.Fatalf("seed %d: invariants violated after %s heal window: %v", seed, what, v)
	}
}

// TestInvariantBattery runs the battery across 32 seeds. Each seed
// picks a fabric shape and walks rounds of randomized fault → heal →
// check → repair → heal → check, occasionally leaving a compatible
// second fault outstanding through the window.
func TestInvariantBattery(t *testing.T) {
	const seeds = 32
	const rounds = 3
	fabrics := batteryFabrics()
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			topo := fabrics[int(seed)%len(fabrics)]
			c := New(Options{Fabric: &topo, Seed: seed})
			if err := c.Boot(0); err != nil {
				t.Fatalf("seed %d (%s): %v", seed, topo.Name, err)
			}
			settleAndCheck(t, c, seed, "boot")
			for round := 0; round < rounds; round++ {
				menu := batteryFaults(rng, c)
				// Pick one applicable fault, sometimes two distinct ones.
				var picked []batteryFault
				for _, idx := range rng.Perm(len(menu)) {
					if menu[idx].applies(c) {
						picked = append(picked, menu[idx])
						if len(picked) == 2 || rng.Intn(2) == 0 {
							break
						}
					}
				}
				if len(picked) == 0 {
					continue
				}
				var faults, repairs Plan
				what := ""
				for i, f := range picked {
					faults = append(faults, f.fault)
					repairs = append(repairs, f.repair)
					if i > 0 {
						what += " + "
					}
					what += f.name
				}
				if err := c.Install(faults); err != nil {
					t.Fatalf("seed %d round %d (%s): install %s: %v", seed, round, topo.Name, what, err)
				}
				settleAndCheck(t, c, seed, fmt.Sprintf("round %d fault %s (%s)", round, what, topo.Name))
				if err := c.Install(repairs); err != nil {
					t.Fatalf("seed %d round %d (%s): repair %s: %v", seed, round, topo.Name, what, err)
				}
				settleAndCheck(t, c, seed, fmt.Sprintf("round %d repair %s (%s)", round, what, topo.Name))
			}
		})
	}
}
