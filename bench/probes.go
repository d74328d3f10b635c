package main

import (
	"fmt"
	"runtime"

	"repro/internal/enc8b10b"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/parsim"
	"repro/internal/phys"
	"repro/internal/rostering"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// A probe drives one layer alone, through its public functions, and
// reports the cost of one operation. op runs n operations; it is
// called repeatedly until the probe's share of the time is spent.
type probe struct {
	// name is the ns/op metric; allocs, if set, the allocs/op metric.
	name, allocs string
	// scale converts ns per op() unit into the metric's unit.
	scale float64
	// batch is the n passed to op.
	batch int
	setup probeSetup
}

// probeSetup builds a probe's rig from the seed. op runs n operations;
// extra, if non-nil, adds metrics the probe counted on the side.
type probeSetup func(seed uint64) (op func(n int), extra func(m map[string]float64))

// probes are run once per traced invocation, each for an equal share
// of the probe time.
var probes = []probe{
	{name: "sim.fire_ns.d1", batch: 1 << 14, setup: fireProbe(1)},
	{name: "sim.fire_ns.d4k", allocs: "sim.fire_allocs", batch: 1 << 14, setup: fireProbe(4 << 10)},
	{name: "sim.fire_ns.d256k", batch: 1 << 14, setup: fireProbe(256 << 10)},
	{name: "sim.timer_reset_ns", batch: 1 << 14, setup: timerResetProbe},
	{name: "phys.p2p_ns", batch: 1 << 12, setup: p2pProbe(false)},
	{name: "phys.deep_frame_ns", batch: 1 << 10, setup: p2pProbe(true)},
	{name: "phys.switch_fwd_ns", batch: 1 << 12, setup: switchFwdProbe},
	{name: "phys.partition_ms", scale: 1e-6, batch: 1, setup: partitionProbe},
	{name: "wire.codec_v1_ns", batch: 1 << 12, setup: codecProbe(wire.V1, micropacket.NewData(1, 2, 3, make([]byte, 8)))},
	{name: "wire.codec_v2_ns", batch: 1 << 12, setup: codecProbe(wire.V2, micropacket.NewData(1, 2, 3, make([]byte, 8)))},
	{name: "wire.codec_var64_ns", batch: 1 << 12, setup: codecProbe(wire.V1, micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 3}, make([]byte, 64)))},
	{name: "enc8b10b.encode_ns_per_byte", batch: 1 << 16, setup: encodeProbe},
	{name: "enc8b10b.decode_ns_per_byte", batch: 1 << 16, setup: decodeProbe},
	{name: "insertion.hop_ns", scale: 1.0 / ringStations, batch: 16, setup: ringTourProbe},
	{name: "rostering.heal_ns", scale: 0.5, batch: 1, setup: healProbe},
	{name: "netcache.write_ns", batch: 1 << 12, setup: cacheProbe(true)},
	{name: "netcache.read_ns", batch: 1 << 12, setup: cacheProbe(false)},
	{name: "parsim.empty_window_ns", scale: 1.0 / emptyWindows, batch: 1, setup: emptyWindowProbe},
}

// runProbes fills m with every probe's metrics, spending about
// budgetNS in total. A probe reports the median over its batches.
func runProbes(m map[string]float64, seed uint64, budgetNS int64) {
	share := budgetNS / int64(len(probes))
	for _, p := range probes {
		op, extra := p.setup(seed)
		op(p.batch) // warm: first-touch allocations and pools
		var perOp []float64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ops := 0
		for start := telemetry.Wall.Now(); len(perOp) < 3 || telemetry.Wall.Now()-start < share; {
			t0 := telemetry.Wall.Now()
			op(p.batch)
			perOp = append(perOp, float64(telemetry.Wall.Now()-t0)/float64(p.batch))
			ops += p.batch
		}
		runtime.ReadMemStats(&ms1)
		scale := p.scale
		if scale == 0 {
			scale = 1
		}
		m[p.name] = median(perOp) * scale
		if p.allocs != "" {
			m[p.allocs] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
		}
		if extra != nil {
			extra(m)
		}
	}
}

// fireProbe schedules and fires one empty event with depth timers
// pending at seeded far-future times, so each push and pop sifts
// through a heap of that size.
func fireProbe(depth int) probeSetup {
	return func(seed uint64) (func(int), func(map[string]float64)) {
		k := sim.NewKernel(seed)
		rng := sim.NewRNG(seed)
		noop := func() {}
		for i := 1; i < depth; i++ {
			k.Do(sim.Second+rng.Duration(sim.Second), noop)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				k.Do(k.Now()+10, noop)
				k.Step()
			}
		}, nil
	}
}

// timerResetProbe re-arms one of 4 k pending timers per operation:
// the watchdog churn of the liveness layers (Cancel + push).
func timerResetProbe(seed uint64) (func(int), func(map[string]float64)) {
	k := sim.NewKernel(seed)
	rng := sim.NewRNG(seed)
	timers := make([]*sim.Timer, 4<<10)
	for i := range timers {
		timers[i] = k.After(sim.Second+rng.Duration(sim.Second), func() {})
	}
	next := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			timers[next].Reset(sim.Second + sim.Time(next))
			next = (next + 1) % len(timers)
		}
	}, nil
}

// p2pProbe sends one frame over one 10 m fiber and runs the kernel
// until it is delivered: the smallest frame on the plain PHY, and with
// deep the full 64-byte DMA segment the file streams carry, through the
// wire codec and 8b/10b line coding. Host time on the plain PHY does
// not depend on the frame's size, so the difference of the two is the
// codec's cost per bulk frame.
func p2pProbe(deep bool) probeSetup {
	return func(seed uint64) (func(int), func(map[string]float64)) {
		k := sim.NewKernel(seed)
		net := phys.NewNet(k)
		net.DeepPHY = deep
		a := net.NewPort("a", nil)
		b := net.NewPort("b", func(*phys.Port, phys.Frame) {})
		net.Connect(a, b, 10)
		f := net.NewFrame(micropacket.NewData(1, 2, 0, nil))
		if deep {
			f = net.NewFrame(micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 3}, make([]byte, micropacket.MaxPayload)))
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				a.Send(f)
				k.Run()
			}
		}, nil
	}
}

// switchFwdProbe sends node → programmed crossbar → node.
func switchFwdProbe(seed uint64) (func(int), func(map[string]float64)) {
	k := sim.NewKernel(seed)
	net := phys.NewNet(k)
	sw := net.NewSwitch("sw", 2)
	a := net.NewPort("n0", nil)
	b := net.NewPort("n1", func(*phys.Port, phys.Frame) {})
	net.Connect(a, sw.Port(0), 10)
	net.Connect(b, sw.Port(1), 10)
	sw.SetRoute(0, 1)
	f := net.NewFrame(micropacket.NewData(0, 1, 0, nil))
	return func(n int) {
		for i := 0; i < n; i++ {
			a.Send(f)
			k.Run()
		}
	}, nil
}

// partitionProbe partitions a 512-node, 8-switch sharded fabric into 4
// shards: the case where AssignShards runs its cut-aware refinement.
func partitionProbe(uint64) (func(int), func(map[string]float64)) {
	topo := phys.Sharded(8, 64, 1, 50)
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, err := phys.AssignShards(&topo, 4); err != nil {
				panic(err)
			}
		}
	}, nil
}

func codecProbe(v wire.Version, p *micropacket.Packet) probeSetup {
	return func(uint64) (func(int), func(map[string]float64)) {
		return func(n int) {
			for i := 0; i < n; i++ {
				raw, err := wire.Encode(v, p)
				if err != nil {
					panic(err)
				}
				if _, _, err := wire.Decode(raw); err != nil {
					panic(err)
				}
			}
		}, nil
	}
}

func encodeProbe(uint64) (func(int), func(map[string]float64)) {
	enc := enc8b10b.NewEncoder()
	return func(n int) {
		for i := 0; i < n; i++ {
			enc.EncodeData(byte(i))
		}
	}, nil
}

func decodeProbe(uint64) (func(int), func(map[string]float64)) {
	enc := enc8b10b.NewEncoder()
	syms := make([]enc8b10b.Symbol, 4096)
	for i := range syms {
		syms[i] = enc.EncodeData(byte(i))
	}
	dec := enc8b10b.NewDecoder()
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, err := dec.Decode(syms[i%len(syms)]); err != nil {
				panic(err)
			}
		}
	}, nil
}

// ringStations is the ring the insertion probe tours.
const ringStations = 64

// ringTourProbe sends one broadcast round a 64-station ring built from
// phys and insertion alone (one switch, routes programmed by hand) and
// runs until the sender strips it; the metric is per station hop.
func ringTourProbe(seed uint64) (func(int), func(map[string]float64)) {
	k := sim.NewKernel(seed)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, ringStations, 1, 50)
	stations := make([]*insertion.Station, ringStations)
	for i := range stations {
		stations[i] = insertion.NewStation(k, micropacket.NodeID(i), c.NodePorts[i])
		stations[i].OnDeliver = func(*micropacket.Packet) {}
		c.Switches[0].SetRoute(i, (i+1)%ringStations)
		stations[i].SetEgress(0)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			stripped := stations[0].Stripped
			stations[0].Send(micropacket.NewData(0, micropacket.Broadcast, 0, nil))
			k.Run()
			if stations[0].Stripped != stripped+1 {
				panic("insertion probe: broadcast did not complete its tour")
			}
		}
	}, nil
}

// healProbe boots an 8-node, 4-switch, 1 km rig of phys + insertion +
// rostering once (experiments.NewHealBench's rig, rebuilt here because
// the event count needs the kernel). One operation fails switch 0, runs
// 3 ms virtual — detection plus the two ring tours a heal takes, with
// margin — then restores it and runs 3 ms again: two re-rosterings, so
// the metric is scaled to one.
func healProbe(seed uint64) (func(int), func(map[string]float64)) {
	const nodes, switches, fiberM = 8, 4, 1000
	k := sim.NewKernel(seed)
	c := phys.BuildCluster(phys.NewNet(k), nodes, switches, fiberM)
	agents := make([]*rostering.Agent, nodes)
	for id := range agents {
		st := insertion.NewStation(k, micropacket.NodeID(id), c.NodePorts[id])
		agents[id] = rostering.NewAgent(k, id, c, st, fiberM)
		k.After(0, agents[id].Start)
	}
	k.RunUntil(10 * sim.Millisecond)
	fired, heals := k.Fired, uint64(0)
	settle := func() {
		k.RunUntil(k.Now() + 3*sim.Millisecond)
		for _, a := range agents {
			if r := a.Roster(); r == nil || r.Size() != nodes {
				panic(fmt.Sprintf("heal probe: agent roster %v after the heal window, want %d nodes", r, nodes))
			}
		}
		heals++
	}
	op := func(n int) {
		for i := 0; i < n; i++ {
			c.Switches[0].Fail()
			settle()
			c.Switches[0].Restore()
			settle()
		}
	}
	return op, func(m map[string]float64) {
		m["rostering.heal_events"] = float64(k.Fired-fired) / float64(heals)
	}
}

func cacheProbe(write bool) probeSetup {
	return func(uint64) (func(int), func(map[string]float64)) {
		c := netcache.New()
		c.AddRegion(1, 4096)
		w := netcache.NewWriter(c, nil)
		rec := netcache.Record{Region: 1, Off: 0, Size: 64}
		buf := make([]byte, 64)
		if err := w.WriteRecord(rec, buf); err != nil {
			panic(err)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				if write {
					if err := w.WriteRecord(rec, buf); err != nil {
						panic(err)
					}
				} else if _, ok := c.TryRead(rec); !ok {
					panic("netcache probe: torn read with no writer running")
				}
			}
		}, nil
	}
}

// emptyWindows is how many lookahead windows one operation of the
// empty-window probe runs.
const emptyWindows = 2000

// emptyWindowProbe runs 8 shards through windows in which each shard
// fires exactly one self-rescheduling tick and nothing crosses: the
// pure cost of a grant plus a barrier.
func emptyWindowProbe(seed uint64) (func(int), func(map[string]float64)) {
	const shards, lookahead = 8, sim.Microsecond
	return func(n int) {
		for i := 0; i < n; i++ {
			kernels := make([]*sim.Kernel, shards)
			nets := make([]*phys.Net, shards)
			for s := range kernels {
				k := sim.NewKernel(seed + uint64(s))
				kernels[s], nets[s] = k, phys.NewNet(k)
				var tick func()
				tick = func() { k.Do(k.Now()+lookahead, tick) }
				k.Do(0, tick)
			}
			e, err := parsim.New(kernels, nets, lookahead)
			if err != nil {
				panic(err)
			}
			e.RunUntil(emptyWindows * lookahead)
			e.Shutdown()
			if err := e.Err(); err != nil {
				panic(err)
			}
		}
	}, nil
}
