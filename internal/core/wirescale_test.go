package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Scaling past the one-byte address space: these tests drive fabrics
// that cannot exist under wire v1. They tune the liveness cadences
// (heartbeats, keepalives, join retries) to scale-appropriate values —
// the defaults are calibrated for room-sized rings and would melt a
// 1024-node fabric in pure liveness chatter, exactly as real deployments
// retune timers when a cluster grows an order of magnitude.

// scaleTune slows per-node liveness traffic to big-fabric cadences.
// Deterministic: pure per-node constants, identical on every engine.
func scaleTune(c *Cluster) {
	for _, nd := range c.Nodes {
		nd.Cfg.JoinTimeout = 20 * sim.Millisecond
		nd.Agent.KeepaliveInterval = 2 * sim.Millisecond
		nd.Agent.SilenceTimeout = 10 * sim.Millisecond
	}
}

// hugeScenario is the shared shape of the scale tests: an 8-ring
// sharded fabric with 200 m inter-shard trunks (the machine-room
// assumption, and a deep conservative lookahead), a mid-run node crash
// and reboot, and seeded Poisson pub-sub spanning the shards. It
// mirrors experiments.E15Scenario field for field (this package
// cannot import experiments without a cycle) — keep the two in sync.
func hugeScenario(nodes int, seed uint64, shards int) Scenario {
	topo := phys.Sharded(8, nodes/8, 1, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
	return Scenario{
		Name: fmt.Sprintf("huge-%d", nodes),
		Opts: Options{Fabric: &topo, Seed: seed, Shards: shards,
			HeartbeatInterval: 5 * sim.Millisecond},
		BootWindow: sim.Time(nodes) * 2 * sim.Millisecond,
		// On-grid plan instants: plan actions carry their own canonical
		// priority (before every model event at their instant, at every
		// shard count — see parsim.Engine.Schedule), so faults may land
		// dead-on the periodic timer grid without skew.
		Plan: Plan{
			CrashNode(2*sim.Millisecond, nodes-1),
			RebootNode(4*sim.Millisecond, nodes-1),
		},
		Loads: []Load{&PubSubLoad{
			Publisher: 0, Topic: 1, Every: 200 * sim.Microsecond, Poisson: true,
			Subscribers: []int{1, nodes / 4, nodes / 2, nodes - 2},
		}},
		For: 12 * sim.Millisecond,
		// Settle must outlast the post-reboot re-roster churn: at 1024
		// nodes the ring re-stabilizes ~17 ms after the reboot (epoch
		// waves reopen as late announcements land), and only then can
		// the rebooted node's join handshake survive a full ring
		// transit. 20 ms leaves it two solicit retry cycles of margin.
		Settle:    20 * sim.Millisecond,
		OnCluster: scaleTune,
	}
}

// TestEquivalenceHugeFabric extends the equivalence battery past the
// v1 address ceiling: at 512 nodes (auto wire v2) the sharded engine's
// Report JSON must stay byte-identical to the one-shard run's. This is
// the determinism half of the E15 scaling story; CI runs it under
// -race like the main battery.
func TestEquivalenceHugeFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("512-node serial run skipped in -short")
	}
	const nodes = 512
	serialRep, err := hugeScenario(nodes, 1, 1).Run()
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if got := serialRep.Wire; got != "v2" {
		t.Fatalf("512-node fabric reports wire %q, want v2", got)
	}
	serial := serialRep.JSON()
	parRep, err := hugeScenario(nodes, 1, 8).Run()
	if err != nil {
		t.Fatalf("shards=8: %v", err)
	}
	if par := parRep.JSON(); !bytes.Equal(serial, par) {
		t.Fatalf("512-node report diverged from serial\n--- serial ---\n%s--- shards=8 ---\n%s", serial, par)
	}
	if !serialRep.Healed || serialRep.RingSize != nodes {
		t.Fatalf("512-node fabric did not heal: ring=%d healed=%v", serialRep.RingSize, serialRep.Healed)
	}
}

// TestHugeFabricSmoke boots a 1024-node fabric — four times the v1
// ceiling — on 8 shards, crashes and reboots a node mid-run, and
// requires the ring to heal back to full size (rebooted node
// re-assimilated, every roster agreed and on live hardware) with the
// Poisson pub-sub stream delivered, inside a wall-clock budget. This
// is the E15 scale smoke CI runs; determinism at scale is pinned
// byte-for-byte by TestEquivalenceHugeFabric (serial vs sharded at
// 512 nodes), so one run suffices here.
func TestHugeFabricSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("huge fabric smoke skipped in -short")
	}
	const nodes = 1024
	start := time.Now()
	rep, err := hugeScenario(nodes, 1, 8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RingSize != nodes || !rep.Healed {
		t.Fatalf("huge fabric did not heal: ring=%d healed=%v", rep.RingSize, rep.Healed)
	}
	// Transient congestion drops during the crash transition are a
	// model outcome, not a smoke failure; losslessness is asserted by
	// the steady-state experiments.
	if rep.Wire != "v2" {
		t.Fatalf("huge fabric reports wire %q, want v2", rep.Wire)
	}
	if len(rep.Loads) != 1 || rep.Loads[0].Delivered == 0 || rep.Loads[0].Sent == 0 {
		t.Fatalf("Poisson pub-sub moved nothing: %+v", rep.Loads)
	}
	if wall := time.Since(start); wall > 10*time.Minute {
		t.Fatalf("huge fabric smoke took %v, budget 10m", wall)
	}
}

// TestWireVersionSurfacesAsError pins the user-facing validation path:
// an explicit v1 on a >255-node fabric is a scenario error naming the
// version — not a panic — and the auto default just works.
func TestWireVersionSurfacesAsError(t *testing.T) {
	topo := phys.Uniform(300, 2, 50)
	_, err := Scenario{
		Opts: Options{Fabric: &topo, Wire: wire.V1},
		For:  sim.Millisecond,
	}.Run()
	if err == nil {
		t.Fatal("v1 scenario with 300 nodes ran")
	}
	if !strings.Contains(err.Error(), "v1") {
		t.Fatalf("error does not name the wire version: %v", err)
	}
	// The same overflow through plain Nodes/Switches options.
	_, err = Scenario{
		Opts: Options{Nodes: 300, Switches: 2, Wire: wire.V1},
		For:  sim.Millisecond,
	}.Run()
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("options-level overflow not surfaced: %v", err)
	}
}
