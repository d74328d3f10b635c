// On-demand measurements (`go test -run '^$' -bench <name> .`): one
// benchmark per experiment of the registry that has a hot path worth
// timing, plus micro-benchmarks of the substrates. The printable tables
// come from cmd/ampbench; these time the same code paths and report
// domain metrics (ring-tours, µs of virtual heal time, events) via
// b.ReportMetric. Nothing here gates a PR: the benchmark PRs are
// accepted on is bench/ (BENCHMARK.json), run as paired parent/change
// measurements on one host.
package ampnet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enc8b10b"
	"repro/internal/experiments"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/wire"
)

// --- E1/E2: MicroPacket codec ---

func BenchmarkE1MicroPacketCodec(b *testing.B) {
	p := micropacket.NewData(1, 2, 3, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := wire.Encode(wire.V1, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2WireFormatsVariable(b *testing.B) {
	data := make([]byte, 64)
	p := micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 3}, data)
	b.SetBytes(int64(wire.Size(wire.V1, micropacket.TypeDMA, 64)))
	for i := 0; i < b.N; i++ {
		raw, err := wire.Encode(wire.V1, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark8b10bEncode(b *testing.B) {
	enc := enc8b10b.NewEncoder()
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		enc.EncodeData(byte(i))
	}
}

func Benchmark8b10bDecode(b *testing.B) {
	enc := enc8b10b.NewEncoder()
	syms := make([]enc8b10b.Symbol, 4096)
	for i := range syms {
		syms[i] = enc.EncodeData(byte(i))
	}
	dec := enc8b10b.NewDecoder()
	b.SetBytes(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(syms[i%len(syms)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: multi-stream insertion (slide 7) ---

func BenchmarkE3MultiStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E3MultiStream(experiments.Params{}, 100)
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- E4: all-to-all losslessness (slide 8) ---

func BenchmarkE4AllToAllLossless(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E4AllToAll(experiments.Params{Nodes: 8}, 50)
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
		if t.Rows[0][6] != "LOSSLESS" {
			b.Fatalf("AmpNet dropped: %v", t.Rows[0])
		}
	}
}

// --- E5: seqlock cache (slide 9) ---

func BenchmarkE5SeqlockTryRead(b *testing.B) {
	c := netcache.New()
	c.AddRegion(1, 4096)
	w := netcache.NewWriter(c, nil)
	rec := netcache.Record{Region: 1, Off: 0, Size: 64}
	w.WriteRecord(rec, make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.TryRead(rec); !ok {
			b.Fatal("torn")
		}
	}
}

func BenchmarkE5HostRecordReadUnderWrites(b *testing.B) {
	h := netcache.NewHostRecord(64)
	h.Write(make([]byte, 64))
	stop := make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
				h.Write(buf)
			}
		}
	}()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(buf)
	}
	b.StopTimer()
	close(stop)
}

// --- E6: network semaphores (slide 10) ---

func BenchmarkE6Semaphores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E6Semaphores(experiments.Params{Nodes: 4}, 5)
		if t.Rows[0][4] != "YES" {
			b.Fatalf("mutual exclusion violated: %v", t.Rows[0])
		}
	}
}

// --- E7: redundancy (slides 14–15) ---

func BenchmarkE7Redundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E7Redundancy(experiments.Params{Nodes: 6})
		for _, row := range t.Rows {
			if row[3] != "yes" {
				b.Fatalf("ring not full: %v", row)
			}
		}
	}
}

// --- E8: rostering completion (slide 16) ---

func BenchmarkE8Rostering(b *testing.B) {
	// One heal of the 8-node, 1 km quad-redundant ring per iteration;
	// reports virtual heal time and ring-tours as metrics. The full
	// node-count × fiber sweep is in cmd/ampbench -exp e8.
	var healNS, tours float64
	for i := 0; i < b.N; i++ {
		heal, tour := healOnce(uint64(i + 1))
		healNS = float64(heal)
		tours = float64(heal) / float64(tour)
	}
	b.ReportMetric(healNS/1000, "virtual-heal-µs")
	b.ReportMetric(tours, "ring-tours")
}

// --- E9: assimilation (slide 17) ---

func BenchmarkE9Assimilation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E9Assimilation(experiments.Params{})
		last := t.Rows[len(t.Rows)-1]
		if last[3] != "rejected (correct)" {
			b.Fatalf("version gate failed: %v", last)
		}
	}
}

// --- E10: failover (slides 18–19) ---

func BenchmarkE10Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E10Failover(experiments.Params{})
		for _, row := range t.Rows {
			if row[5] != "NONE" {
				b.Fatalf("data loss: %v", row)
			}
		}
	}
}

// --- E11: self-heal vs baseline (slides 2, 13, 18) ---

func BenchmarkE11SelfHealVsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E11SelfHealVsBaseline(experiments.Params{})
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- E12: AmpIP + collectives (slides 3, 12) ---

func BenchmarkE12AmpIPCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E12Collectives(experiments.Params{Nodes: 4})
		for _, row := range t.Rows {
			if row[2] == "INCOMPLETE" {
				b.Fatalf("collective incomplete: %v", row)
			}
		}
	}
}

// --- E14–E16: the engine studies (internal/experiments/study.go) ---

// benchScenario runs sc once per iteration and reports its
// virtual-events-per-second economics: ns/event is the number to watch,
// and comparing the Serial and Sharded variants of one size gives the
// machine's speedup. The E15 and E16 scenarios come from the
// constructors their tables run, so a table and the benchmark named
// after it cannot drift apart.
func benchScenario(b *testing.B, sc core.Scenario) {
	var cl *core.Cluster
	sc.OnCluster = func(c *core.Cluster) { cl = c }
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sc.Run()
		if err != nil {
			b.Fatal(err)
		}
		// Congestion drops during the fault transition are a model
		// outcome (identical at every shard count), not a bench failure;
		// surface them instead.
		b.ReportMetric(float64(rep.Drops), "drops")
		// An unconserved ledger means the run timed garbage.
		if rep.Frames == nil || !rep.Frames.Conserved {
			b.Fatalf("frame ledger not conserved: %+v", rep.Frames)
		}
		events = cl.EventsFired()
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		b.ReportMetric(float64(events), "events")
	}
}

// rings is the studies' fabric at their default shape: 8 rings on 50 m
// of fiber.
func rings(b *testing.B, nodes int) phys.Topology {
	topo, err := experiments.RingsFabric(8, nodes, 50)
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// e14Study is the scenario the BenchmarkE14Parsim* family times: the
// highest switch dies at 5 ms and returns at 15 ms of a 20 ms run, at a
// fixed publish cadence. Their `events` metric moves with every
// scheduling change (lazy transmit completions, device latencies as
// plans, lazy trains); the history is in CHANGES.md.
var e14Study = experiments.Study{FailAt: 5 * sim.Millisecond, RestoreAt: 15 * sim.Millisecond,
	For: 20 * sim.Millisecond, LastSub: 1}

// benchE14 times e14Study on the rings fabric. Node counts stop at 248,
// the ceiling of the wire v1 address space; the v2 sizes beyond it are
// the BenchmarkE15* family below.
func benchE14(b *testing.B, nodes, shards int) {
	benchScenario(b, e14Study.Scenario("bench", rings(b, nodes), 1, shards))
}

func BenchmarkE14ParsimSerial64(b *testing.B)   { benchE14(b, 64, 1) }
func BenchmarkE14ParsimSharded64(b *testing.B)  { benchE14(b, 64, 8) }
func BenchmarkE14ParsimSerial128(b *testing.B)  { benchE14(b, 128, 1) }
func BenchmarkE14ParsimSharded128(b *testing.B) { benchE14(b, 128, 8) }

// The 248-node pair is heavyweight (seconds per iteration).
func BenchmarkE14ParsimSerial248(b *testing.B)  { benchE14(b, 248, 1) }
func BenchmarkE14ParsimSharded248(b *testing.B) { benchE14(b, 248, 8) }

// benchE16 times the rings rows of the E16 table — 96 nodes, where the
// cut-aware partitioner earns its keep (a cut of N links at 1 µs
// lookahead instead of hundreds at 250 ns) — at one shard count, so
// Serial vs ShardedN ratios are the machine's scaling curve.
func benchE16(b *testing.B, shards int) {
	benchScenario(b, experiments.E16Study.Scenario("bench-e16", rings(b, 96), 1, shards))
}

func BenchmarkE16ScalingSerial(b *testing.B)   { benchE16(b, 1) }
func BenchmarkE16ScalingSharded2(b *testing.B) { benchE16(b, 2) }
func BenchmarkE16ScalingSharded4(b *testing.B) { benchE16(b, 4) }
func BenchmarkE16ScalingSharded8(b *testing.B) { benchE16(b, 8) }

// benchE15 times experiments.E15Scenario (crash+reboot, Poisson
// pub-sub, liveness cadences retuned for scale) under the
// uint16-address wire format, at sizes wire v1 cannot address at all:
// ≈ 7 s per iteration at 512 nodes serial (41 122 143 events; 66 652 425
// and ≈ 8.5 s before PR 24).
func benchE15(b *testing.B, nodes, shards int) {
	benchScenario(b, experiments.E15Scenario(rings(b, nodes), 1, shards))
}

func BenchmarkE15WireScaleSerial512(b *testing.B)  { benchE15(b, 512, 1) }
func BenchmarkE15WireScaleSharded512(b *testing.B) { benchE15(b, 512, 8) }

// At 1024 nodes a window holds ~3 500 events, enough for the engine's
// helpers to pay. Minutes per iteration: run with -cpu 1,2 for the two
// sides of parsim's wakeWork — one core has no helpers.
func BenchmarkE15WireScaleSharded1024(b *testing.B) { benchE15(b, 1024, 8) }

// --- substrate micro-benchmarks ---

func BenchmarkSimKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(10, tick)
		}
	}
	k.After(0, tick)
	k.Run()
	if n < b.N {
		b.Fatal("did not run all events")
	}
}

func BenchmarkPhysPointToPoint(b *testing.B) {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	delivered := 0
	a := net.NewPort("a", nil)
	p := net.NewPort("b", func(_ *phys.Port, f phys.Frame) { delivered++ })
	net.Connect(a, p, 10)
	f := net.NewFrame(micropacket.NewData(1, 2, 0, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !a.Send(f) {
			k.Step()
		}
		k.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// healOnce performs one switch-failure heal on an 8-node/1 km rig and
// returns (heal time from detection, tour estimate).
func healOnce(seed uint64) (sim.Time, sim.Time) {
	h := experiments.NewHealBench(seed, 8, 4, 1000)
	return h.HealOnce()
}

// BenchmarkSimKernelSameInstantBurst is the queue's worst-case guard for
// bursts: 100 k events at one instant whose keys arrive in descending
// order, so every insert belongs at the front of everything queued
// before it.
func BenchmarkSimKernelSameInstantBurst(b *testing.B) {
	const burst = 100_000
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		for j := burst; j > 0; j-- {
			k.DoPri(1000, sim.Time(j), 0, fn)
		}
		k.Run()
	}
	if fired != b.N*burst {
		b.Fatalf("fired %d of %d events", fired, b.N*burst)
	}
}

// BenchmarkSimKernelFarTimerReset is the worst-case guard for watchdog
// churn: 4 k pending millisecond-scale timers, one Reset per op.
func BenchmarkSimKernelFarTimerReset(b *testing.B) {
	const timers = 4096
	k := sim.NewKernel(1)
	rng := sim.NewRNG(2)
	tms := make([]*sim.Timer, timers)
	for i := range tms {
		tms[i] = k.After(sim.Millisecond+sim.Time(rng.Intn(int(sim.Millisecond))), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tms[i%timers].Reset(sim.Millisecond + sim.Time(rng.Intn(int(sim.Millisecond))))
	}
}
