package main

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/wire"
)

// workload is one named benchmark input: a scenario generator plus the
// facts the runner needs to check that a run is correct and that it is
// still the workload it claims to be.
type workload struct {
	name string
	why  string
	// gen builds the scenario from the seed. The seed is the only source
	// of randomness: it becomes Options.Seed and, through a private
	// sim.RNG, picks which nodes play which role. small selects the
	// tier-1 smoke size (tens of ms virtual).
	gen func(seed uint64, small bool) core.Scenario
	// faultFree workloads must end with zero congestion drops.
	faultFree bool
	// twin, if set, derives a control scenario whose Report must be
	// byte-identical to the workload's own: the serial engine for the
	// sharded workload, the plain PHY for the DeepPHY one.
	twin func(core.Scenario) core.Scenario
	// shape checks, from the exact counters of the warm-up iteration,
	// that the scenario still stresses the layer the workload is named
	// for. Full scale only: the thresholds describe the full-size run.
	shape func(c *counts, twinWallNS int64) error
}

// workloads lists the six workloads in reporting order.
var workloads = []workload{
	{
		name:      "steady-ring-16",
		why:       "data plane at the smallest packet: 8 publishers broadcasting 0-byte messages on a fault-free 16x4 ring; sim queue, phys and insertion own the time",
		gen:       genSteadyRing,
		faultFree: true,
		shape: func(c *counts, _ int64) error {
			if share := ratio(c.dataFrames(), c.rep.Frames.Origins); share < 0.9 {
				return fmt.Errorf("app.data_share = %.3f, want >= 0.9", share)
			}
			return nil
		},
	},
	{
		name: "heal-storm-48",
		why:  "control plane: 20 switch/trunk/node faults and repairs on a 48-node 4-ring fabric under a light audited cache writer; rostering floods, route programming and re-join own the run",
		gen:  genHealStorm,
		shape: func(c *counts, _ int64) error {
			for _, e := range c.rep.Events {
				if e.HealNS <= 0 {
					return fmt.Errorf("plan event %q at %v triggered no re-rostering", e.Event, sim.Time(e.AtNS))
				}
			}
			return nil
		},
	},
	{
		name:  "scale-idle-128",
		why:   "boot plus liveness and rostering chatter of a 128-node wire-v2 fabric for 160 deliveries: >10^4 events per operation on the deepest queue, where timer and event elision must show",
		gen:   func(seed uint64, small bool) core.Scenario { return genScaleIdle(seed, small, 1) },
		shape: shapeScaleIdle,
	},
	{
		name: "scale-idle-128-sh8",
		why:  "byte-identical twin of scale-idle-128 on 8 shards (inproc): the same events through windowed private kernels, so only parsim and shardnet differ from the serial control",
		gen:  func(seed uint64, small bool) core.Scenario { return genScaleIdle(seed, small, 8) },
		twin: func(s core.Scenario) core.Scenario {
			s.Opts.Shards = 1
			return s
		},
		shape: func(c *counts, twinWallNS int64) error {
			if c.par == nil || c.par.Frames == 0 {
				return fmt.Errorf("parsim.xframes = 0: no frame crossed a shard boundary")
			}
			return shapeScaleIdle(c, twinWallNS)
		},
	},
	{
		name:      "bulk-deepphy-8",
		why:       "two concurrent 256 KiB file streams over DMA with DeepPHY on: every frame runs the wire codec and 8b/10b, which every other workload bypasses",
		gen:       genBulkDeepPHY,
		faultFree: true,
		twin: func(s core.Scenario) core.Scenario {
			s.Opts.DeepPHY = false
			return s
		},
		shape: func(c *counts, twinWallNS int64) error {
			// The plain-PHY twin fires the same events, so the wall ratio
			// is the codec's cost per event (measured ~13x).
			if c.wallNS < 5*twinWallNS {
				return fmt.Errorf("DeepPHY run took %.3fs, under 5x the plain-PHY twin's %.3fs", float64(c.wallNS)/1e9, float64(twinWallNS)/1e9)
			}
			return nil
		},
	},
	{
		name:      "middleware-mix-8",
		why:       "writes beside reads: 64 B cache churn with replica audit, all-rank collectives and a 1 KiB pub/sub on 8x4; a data-plane gain that costs the write path shows here",
		gen:       genMiddlewareMix,
		faultFree: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func shapeScaleIdle(c *counts, _ int64) error {
	if perOp := ratio(c.events, c.opsAttempted); perOp < 1e4 {
		return fmt.Errorf("sim.events_per_op = %.0f, want >= 1e4", perOp)
	}
	if share := c.bootShare(); share < 0.5 {
		return fmt.Errorf("core.boot_share = %.3f, want >= 0.5", share)
	}
	return nil
}

// ringsFabric is the E15/E16 multi-ring fabric: 50 m node links, 200 m
// trunks between neighbouring rings.
func ringsFabric(rings, nodesPerRing, switchesPerRing int) phys.Topology {
	topo := phys.Sharded(rings, nodesPerRing, switchesPerRing, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
	return topo
}

// rotation is the seed's choice among n symmetric placements.
func rotation(seed uint64, n int) int {
	return sim.NewRNG(seed ^ 0xa3b195354a39b70d).Intn(n)
}

func genSteadyRing(seed uint64, small bool) core.Scenario {
	run := 80 * sim.Millisecond
	if small {
		run = 4 * sim.Millisecond
	}
	// Every second node publishes; the seed picks which half. The ring is
	// symmetric under that rotation, so every seed does the same work.
	first := rotation(seed, 2)
	var loads []core.Load
	for i := 0; i < 8; i++ {
		loads = append(loads, &core.PubSubLoad{
			Name: "pub" + strconv.Itoa(i), Publisher: first + 2*i, Topic: uint8(i + 1),
			Every: 20 * sim.Microsecond, // Subscribers nil: every other node
		})
	}
	return core.Scenario{
		Name: "steady-ring-16",
		// Keepalives slowed to 2 ms so liveness stays under 5% of origins;
		// the silence watchdog is slowed with them (E15's pairing), or an
		// idle ring would re-roster every 60 µs.
		Opts: core.Options{Nodes: 16, Switches: 4, Seed: seed,
			KeepaliveInterval: 2 * sim.Millisecond, SilenceTimeout: 10 * sim.Millisecond},
		Loads: loads,
		For:   run,
	}
}

// genHealStorm rotates fail/restore over all 8 switches in a seeded
// order, then cuts and splices one trunk and crashes and reboots one
// node: 20 plan events, each far enough from the next (700 µs against a
// ~270 µs heal) to get its own heal window. Every shard keeps one live
// switch throughout, and the cache writer's replica audit runs after
// the last repair, so no application operation fails.
func genHealStorm(seed uint64, small bool) core.Scenario {
	perShard := 12
	if small {
		perShard = 3
	}
	topo := ringsFabric(4, perShard, 2)
	nodes := topo.Nodes
	rng := sim.NewRNG(seed ^ 0x5851f42d4c957f2d)
	const step = 700 * sim.Microsecond
	at := step
	var plan core.Plan
	for _, sw := range rng.Perm(topo.Switches) {
		plan = append(plan, core.FailSwitch(at, sw), core.RestoreSwitch(at+step, sw))
		at += 2 * step
	}
	trunk := rng.Intn(len(topo.Trunks))
	plan = append(plan, core.FailTrunk(at, trunk), core.RestoreTrunk(at+step, trunk))
	at += 2 * step
	writer := rng.Intn(nodes)
	victim := (writer + 1 + rng.Intn(nodes-1)) % nodes
	plan = append(plan, core.CrashNode(at, victim), core.RebootNode(at+step, victim))
	at += 2 * step
	return core.Scenario{
		Name: "heal-storm-48",
		Opts: core.Options{Fabric: &topo, Seed: seed, HeartbeatInterval: sim.Millisecond,
			Regions: map[uint8]int{1: 4096}},
		BootWindow: 100 * sim.Millisecond,
		Plan:       plan,
		Loads: []core.Load{&core.CacheChurn{
			Writer: writer, Record: netcache.Record{Region: 1, Off: 0, Size: 64},
			Every: 100 * sim.Microsecond,
		}},
		For:    at,
		Settle: 10 * sim.Millisecond,
	}
}

// genScaleIdle is experiments.E15Scenario's shape (8-ring sharded
// fabric with 200 m trunks, wire v2, big-fabric liveness cadences, a
// crash and reboot, Poisson pub/sub to 4 subscribers) at 128 nodes. The
// publisher stops after 40 messages — about 8 ms, 4 standard deviations
// before the crash at 14 ms — so every delivery completes and the
// workload has no failed operation.
func genScaleIdle(seed uint64, small bool, shards int) core.Scenario {
	nodes := 128
	if small {
		nodes = 32
	}
	topo := ringsFabric(8, nodes/8, 1)
	// The highest node crashes; the publisher and its four subscribers are
	// five distinct nodes drawn from the rest.
	victim := nodes - 1
	picks := sim.NewRNG(seed ^ 0xa3b195354a39b70d).Perm(victim)[:5]
	subs := picks[1:]
	sort.Ints(subs)
	return core.Scenario{
		Name: "scale-idle-128",
		Opts: core.Options{Fabric: &topo, Seed: seed, Shards: shards, Wire: wire.V2,
			HeartbeatInterval: 5 * sim.Millisecond,
			JoinTimeout:       20 * sim.Millisecond,
			KeepaliveInterval: 2 * sim.Millisecond,
			SilenceTimeout:    10 * sim.Millisecond},
		BootWindow: sim.Time(nodes) * 2 * sim.Millisecond,
		Plan: core.Plan{
			core.CrashNode(14*sim.Millisecond, victim),
			core.RebootNode(16*sim.Millisecond, victim),
		},
		Loads: []core.Load{&core.PubSubLoad{
			Publisher: picks[0], Topic: 1, Every: 200 * sim.Microsecond, Poisson: true,
			Count: 40, Subscribers: subs,
		}},
		For:    20 * sim.Millisecond,
		Settle: 20 * sim.Millisecond,
	}
}

// genBulkDeepPHY runs without injected bit errors: AmpFiles has no
// retransmit, so any CRC loss corrupts or stalls a file, and a workload
// may not have failing operations. The CRC path is timed by the
// phys.deep_frame_ns probe instead. The seed rotates the two streams
// round the ring but each always spans half of it, so every seed codes
// the same number of frame hops.
func genBulkDeepPHY(seed uint64, small bool) core.Scenario {
	size, run := 256<<10, 12*sim.Millisecond
	if small {
		size, run = 8<<10, 2*sim.Millisecond
	}
	const nodes = 8
	a := rotation(seed, nodes)
	b := (a + 2) % nodes
	return core.Scenario{
		Name: "bulk-deepphy-8",
		// Keepalives (and the silence watchdog with them) slowed so the
		// codec time goes to file frames.
		Opts: core.Options{Nodes: nodes, Switches: 4, Seed: seed, DeepPHY: true,
			KeepaliveInterval: 2 * sim.Millisecond, SilenceTimeout: 10 * sim.Millisecond},
		Loads: []core.Load{
			&core.FileStream{Name: "file-a", From: a, To: (a + nodes/2) % nodes, FileName: "a.bin", Size: size},
			&core.FileStream{Name: "file-b", From: b, To: (b + nodes/2) % nodes, FileName: "b.bin", Size: size},
		},
		For: run,
	}
}

func genMiddlewareMix(seed uint64, small bool) core.Scenario {
	run := 100 * sim.Millisecond
	if small {
		run = 4 * sim.Millisecond
	}
	// The writer and the publisher sit opposite each other on the ring;
	// the seed rotates the pair.
	const nodes = 8
	writer := rotation(seed, nodes)
	return core.Scenario{
		Name: "middleware-mix-8",
		Opts: core.Options{Nodes: nodes, Switches: 4, Seed: seed, Regions: map[uint8]int{1: 4096}},
		Loads: []core.Load{
			&core.CacheChurn{Writer: writer, Record: netcache.Record{Region: 1, Off: 0, Size: 64}, Every: 20 * sim.Microsecond},
			&core.CollectiveLoad{},
			&core.PubSubLoad{Publisher: (writer + nodes/2) % nodes, Topic: 3, Every: 50 * sim.Microsecond, Payload: 1024},
		},
		For: run,
	}
}

// ops counts the application operations of one Report: what the loads
// attempted and how many of those failed.
func ops(rep *core.Report, s core.Scenario) (attempted, failed uint64) {
	for i, l := range rep.Loads {
		switch l.Kind {
		case "pubsub":
			subs := uint64(rep.Nodes - 1)
			if ps := s.Loads[i].(*core.PubSubLoad); ps.Subscribers != nil {
				subs = uint64(len(ps.Subscribers))
			}
			a := l.Sent * subs
			attempted += a
			failed += a - min(a, l.Delivered) + l.Errors
		case "cache-churn":
			attempted += l.Sent + uint64(l.ExactReplicas+l.StaleReplicas)
			failed += l.Errors + uint64(l.StaleReplicas)
		case "collective":
			attempted += l.Iters
			failed += l.Errors
		case "filestream":
			attempted += l.Sent
			failed += l.Sent - min(l.Sent, l.Files) + l.Corrupt
		}
	}
	return attempted, failed
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
