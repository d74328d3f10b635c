package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
	wirefmt "repro/internal/wire"
)

// macRing builds n insertion stations on a single-switch ring with a
// manually programmed roster (MAC-level rig, no kernels).
func macRing(seed uint64, n int, fiberM float64) (*sim.Kernel, *phys.Net, []*insertion.Station) {
	k := sim.NewKernel(seed)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 1, fiberM)
	sts := make([]*insertion.Station, n)
	for i := 0; i < n; i++ {
		sts[i] = insertion.NewStation(k, micropacket.NodeID(i), c.NodePorts[i])
	}
	for i := 0; i < n; i++ {
		c.Switches[0].SetRoute(i, (i+1)%n)
		sts[i].SetEgress(0)
	}
	return k, net, sts
}

// congestionDrops reads the fabric's congestion losses off the Net's
// ledger — through Ledger, as every read of it goes.
func congestionDrops(net *phys.Net) uint64 {
	a := net.Ledger()
	return a.CongestionDrops()
}

// pump offers count packets to send, retrying under backpressure.
func pump(k *sim.Kernel, send func(*micropacket.Packet) bool, count int, mk func(i int) *micropacket.Packet) {
	i := 0
	var loop func()
	loop = func() {
		for i < count && send(mk(i)) {
			i++
		}
		if i < count {
			k.After(2*sim.Microsecond, loop)
		}
	}
	k.After(0, loop)
}

// E3MultiStream reproduces slide 7: four nodes each inserting a stream
// onto one segment simultaneously. The register-insertion MAC lets all
// four streams progress concurrently (spatial reuse); the token-ring
// baseline serializes them behind one rotating transmit opportunity.
//
// It runs p.Nodes streams (default 4) on p.FiberM meters of fiber
// (default 50), seeded by p.Seed.
func E3MultiStream(p Params, framesPerStream int) *Table {
	p = p.Merged(Params{Nodes: 4, FiberM: 50})
	t := &Table{
		ID:     "E3",
		Title:  "multiple concurrent data streams per segment (paper slide 7)",
		Header: []string{"MAC", "streams", "frames/stream", "completion", "aggregate Mb/s", "drops"},
	}
	n := p.Nodes
	payload := 8 // fixed Data packets
	wireB := wirefmt.Size(wirefmt.V1, micropacket.TypeData, payload)

	// AmpNet insertion ring: stream i→(i+1)%n uses a one-hop arc, so
	// all n streams occupy disjoint segments concurrently.
	{
		k, net, sts := macRing(p.seed(), n, p.FiberM)
		done := make([]int, n)
		for i := range sts {
			i := i
			sts[i].OnDeliver = func(*micropacket.Packet) { done[i]++ }
		}
		for i := 0; i < n; i++ {
			src := micropacket.NodeID(i)
			dst := micropacket.NodeID((i + 1) % n)
			pump(k, sts[i].Send, framesPerStream, func(j int) *micropacket.Packet {
				return micropacket.NewData(src, dst, uint8(j), make([]byte, payload))
			})
		}
		k.Run()
		el := k.Now()
		bits := float64(n*framesPerStream*wireB) * 8
		t.Add("AmpNet insertion ring", fmt.Sprint(n), fmt.Sprint(framesPerStream),
			el.String(), fmt.Sprintf("%.0f", bits/el.Seconds()/1e6), fmt.Sprint(congestionDrops(net)))
	}

	// Token ring: same offered pattern, one transmitter at a time.
	{
		k := sim.NewKernel(p.seed())
		net := phys.NewNet(k)
		c := phys.BuildCluster(net, n, 1, p.FiberM)
		tr := baseline.NewTokenRing(k, c)
		for i := 0; i < n; i++ {
			src := micropacket.NodeID(i)
			dst := micropacket.NodeID((i + 1) % n)
			id := i
			pump(k, func(p *micropacket.Packet) bool { return tr.Send(id, p) },
				framesPerStream, func(j int) *micropacket.Packet {
					return micropacket.NewData(src, dst, uint8(j), make([]byte, payload))
				})
		}
		tr.Start()
		// The token circulates forever; run until all queues drain.
		for drained := false; !drained; {
			k.RunUntil(k.Now() + sim.Millisecond)
			drained = true
			for _, st := range tr.Stations {
				if st.Sent < uint64(framesPerStream) {
					drained = false
				}
			}
		}
		el := k.Now()
		bits := float64(n*framesPerStream*wireB) * 8
		t.Add("token ring (baseline)", fmt.Sprint(n), fmt.Sprint(framesPerStream),
			el.String(), fmt.Sprintf("%.0f", bits/el.Seconds()/1e6), fmt.Sprint(congestionDrops(net)))
	}
	t.Note("insertion ring wins by overlapping streams on disjoint arcs; token ring is rotation-bound")
	return t
}

// E4AllToAll reproduces slide 8's guarantee: "even if everyone does a
// broadcast at the same time the network is guaranteed to not drop
// packets" — and shows the drop-tail baseline failing the same test.
func E4AllToAll(p Params, perNode int) *Table {
	p = p.Merged(Params{Nodes: 16, FiberM: 50})
	n := p.Nodes
	t := &Table{
		ID:     "E4",
		Title:  "all-to-all broadcast losslessness (paper slide 8)",
		Header: []string{"MAC", "nodes", "bcasts/node", "delivered", "expected", "congestion drops", "verdict"},
	}
	expected := n * perNode * (n - 1)

	{
		k, net, sts := macRing(p.seed(), n, p.FiberM)
		delivered := 0
		for i := range sts {
			sts[i].OnDeliver = func(*micropacket.Packet) { delivered++ }
		}
		for i := 0; i < n; i++ {
			src := micropacket.NodeID(i)
			pump(k, sts[i].Send, perNode, func(j int) *micropacket.Packet {
				return micropacket.NewData(src, micropacket.Broadcast, uint8(j), nil)
			})
		}
		k.Run()
		verdict := "LOSSLESS"
		if congestionDrops(net) != 0 || delivered != expected {
			verdict = "FAIL"
		}
		t.Add("AmpNet insertion ring", fmt.Sprint(n), fmt.Sprint(perNode),
			fmt.Sprint(delivered), fmt.Sprint(expected), fmt.Sprint(congestionDrops(net)), verdict)
	}

	{
		k := sim.NewKernel(p.seed())
		net := phys.NewNet(k)
		c := phys.BuildCluster(net, n, 1, p.FiberM)
		sts := baseline.NewDropTailRing(k, c, 4)
		delivered := 0
		for i := range sts {
			sts[i].OnDeliver = func(*micropacket.Packet) { delivered++ }
		}
		for i := 0; i < n; i++ {
			src := micropacket.NodeID(i)
			st := sts[i]
			// Greedy stations do not backpressure; offer everything at once.
			k.After(0, func() {
				for j := 0; j < perNode; j++ {
					st.Send(micropacket.NewData(src, micropacket.Broadcast, uint8(j), nil))
				}
			})
		}
		k.Run()
		verdict := "drops frames"
		if congestionDrops(net) == 0 && delivered == expected {
			verdict = "lossless?!"
		}
		t.Add("drop-tail ring (baseline)", fmt.Sprint(n), fmt.Sprint(perNode),
			fmt.Sprint(delivered), fmt.Sprint(expected), fmt.Sprint(congestionDrops(net)), verdict)
	}
	t.Note("AmpNet's losslessness comes from transit priority + insert-when-idle + host backpressure")
	return t
}

// E4aLoadSweep is the ablation: offered load factor vs achieved goodput
// and drops for both MACs.
func E4aLoadSweep(p Params) *Table {
	p = p.Merged(Params{Nodes: 8, FiberM: 50})
	n := p.Nodes
	t := &Table{
		ID:     "E4a",
		Title:  "offered-load sweep under broadcast traffic (flow-control ablation)",
		Header: []string{"load ×capacity", "MAC", "offered f/s", "delivered f/s", "drops"},
	}
	wireB := wirefmt.Size(wirefmt.V1, micropacket.TypeData, 0) + phys.DefaultIFG
	// Ring capacity for broadcast: one frame occupies every hop, so
	// aggregate broadcast capacity ≈ 1 frame per serialization time.
	capacityFPS := 1e9 / float64(phys.SerTime(wireB))
	const window = 20 * sim.Millisecond

	for _, load := range []float64{0.25, 0.5, 0.9, 1.5} {
		perNodeInterval := sim.Time(float64(n) / (load * capacityFPS) * 1e9)
		run := func(ampnetMAC bool) (delivered int, drops uint64) {
			k := sim.NewKernel(p.seed())
			net := phys.NewNet(k)
			c := phys.BuildCluster(net, n, 1, p.FiberM)
			var send []func(*micropacket.Packet) bool
			if ampnetMAC {
				sts := make([]*insertion.Station, n)
				for i := 0; i < n; i++ {
					sts[i] = insertion.NewStation(k, micropacket.NodeID(i), c.NodePorts[i])
				}
				for i := 0; i < n; i++ {
					c.Switches[0].SetRoute(i, (i+1)%n)
					sts[i].SetEgress(0)
					sts[i].OnDeliver = func(*micropacket.Packet) { delivered++ }
					send = append(send, sts[i].Send)
				}
			} else {
				sts := baseline.NewDropTailRing(k, c, 4)
				for i := range sts {
					sts[i].OnDeliver = func(*micropacket.Packet) { delivered++ }
					send = append(send, sts[i].Send)
				}
			}
			for i := 0; i < n; i++ {
				i := i
				src := micropacket.NodeID(i)
				var tick func()
				tick = func() {
					send[i](micropacket.NewData(src, micropacket.Broadcast, 0, nil))
					if k.Now() < window {
						k.After(perNodeInterval, tick)
					}
				}
				k.After(sim.Time(i)*perNodeInterval/sim.Time(n), tick)
			}
			k.RunUntil(window + 5*sim.Millisecond)
			return delivered, congestionDrops(net)
		}
		offered := load * capacityFPS
		dA, dropA := run(true)
		dB, dropB := run(false)
		secs := window.Seconds()
		t.Add(fmt.Sprintf("%.2f", load), "AmpNet", fmt.Sprintf("%.0f", offered),
			fmt.Sprintf("%.0f", float64(dA)/float64(n-1)/secs), fmt.Sprint(dropA))
		t.Add(fmt.Sprintf("%.2f", load), "drop-tail", fmt.Sprintf("%.0f", offered),
			fmt.Sprintf("%.0f", float64(dB)/float64(n-1)/secs), fmt.Sprint(dropB))
	}
	t.Note("AmpNet sheds overload at the host (refusals), never on the wire; drop-tail loses frames past saturation")
	return t
}
