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
	k, net, c := oneSwitch(seed, n, fiberM)
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

// dropTailRing is macRing's rig with the drop-tail comparator's
// stations: greedy insertion, 4-frame egress FIFOs.
func dropTailRing(seed uint64, n int, fiberM float64) (*sim.Kernel, *phys.Net, []*insertion.Station) {
	k, net, c := oneSwitch(seed, n, fiberM)
	return k, net, baseline.NewDropTailRing(k, c, 4)
}

// oneSwitch builds an n-node cluster on a single switch.
func oneSwitch(seed uint64, n int, fiberM float64) (*sim.Kernel, *phys.Net, *phys.Cluster) {
	k := sim.NewKernel(seed)
	net := phys.NewNet(k)
	return k, net, phys.BuildCluster(net, n, 1, fiberM)
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
// (default 50), seeded by p.Seed. Each row's completion is its last
// delivery; both have closed forms (DESIGN.md §2, TestE3ClosedForms).
func E3MultiStream(p Params, framesPerStream int) *Table {
	p = p.Merged(Params{Nodes: 4, FiberM: 50})
	t := &Table{
		ID:     "E3",
		Title:  "multiple concurrent data streams per segment (paper slide 7)",
		Header: []string{"MAC", "streams", "frames/stream", "completion", "aggregate Mb/s", "drops"},
	}
	n := p.Nodes
	bits := float64(n*framesPerStream*e3Wire) * 8
	for _, row := range []struct {
		name string
		run  func(Params, int) (sim.Time, uint64)
	}{
		{"AmpNet insertion ring", e3Insertion},
		{"token ring (baseline)", e3Token},
	} {
		el, drops := row.run(p, framesPerStream)
		t.Add(row.name, fmt.Sprint(n), fmt.Sprint(framesPerStream),
			el.String(), fmt.Sprintf("%.0f", bits/el.Seconds()/1e6), fmt.Sprint(drops))
	}
	t.Note("insertion ring wins by overlapping streams on disjoint arcs; token ring is rotation-bound")
	return t
}

// e3Payload is the payload of E3's fixed Data packets; e3Wire is their
// wire size.
const e3Payload = 8

var e3Wire = wirefmt.Size(wirefmt.V1, micropacket.TypeData, e3Payload)

// e3Stream is stream i's j-th packet: node i to its ring successor.
func e3Stream(i, n, j int) *micropacket.Packet {
	return micropacket.NewData(micropacket.NodeID(i), micropacket.NodeID((i+1)%n), uint8(j), make([]byte, e3Payload))
}

// e3Insertion runs E3's streams on the AmpNet insertion ring: stream
// i→(i+1)%n uses a one-hop arc, so all n streams occupy disjoint
// segments concurrently. It returns the last delivery's instant.
func e3Insertion(p Params, frames int) (last sim.Time, drops uint64) {
	k, net, sts := macRing(p.seed(), p.Nodes, p.FiberM)
	for i := range sts {
		sts[i].OnDeliver = func(*micropacket.Packet) { last = k.Now() }
		pump(k, sts[i].Send, frames, func(j int) *micropacket.Packet { return e3Stream(i, p.Nodes, j) })
	}
	k.Run()
	return last, congestionDrops(net)
}

// e3Token runs the same offered pattern on the token ring, one
// transmitter at a time. The token circulates forever, so it runs in
// 1 ms steps until every frame is delivered; the completion is still
// the last delivery's instant.
func e3Token(p Params, frames int) (last sim.Time, drops uint64) {
	k, net, c := oneSwitch(p.seed(), p.Nodes, p.FiberM)
	tr := baseline.NewTokenRing(k, c)
	delivered := 0
	for i, ts := range tr.Stations {
		ts.OnDeliver = func(*micropacket.Packet) { delivered, last = delivered+1, k.Now() }
		pump(k, func(pk *micropacket.Packet) bool { return tr.Send(i, pk) },
			frames, func(j int) *micropacket.Packet { return e3Stream(i, p.Nodes, j) })
	}
	tr.Start()
	for delivered < p.Nodes*frames {
		k.RunUntil(k.Now() + sim.Millisecond)
	}
	return last, congestionDrops(net)
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

	for _, mac := range []struct {
		name, pass, fail string
		ring             func(uint64, int, float64) (*sim.Kernel, *phys.Net, []*insertion.Station)
	}{
		{"AmpNet insertion ring", "LOSSLESS", "FAIL", macRing},
		{"drop-tail ring (baseline)", "lossless?!", "drops frames", dropTailRing},
	} {
		k, net, sts := mac.ring(p.seed(), n, p.FiberM)
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
		verdict := mac.fail
		if congestionDrops(net) == 0 && delivered == expected {
			verdict = mac.pass
		}
		t.Add(mac.name, fmt.Sprint(n), fmt.Sprint(perNode),
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
			ring := dropTailRing
			if ampnetMAC {
				ring = macRing
			}
			k, net, sts := ring(p.seed(), n, p.FiberM)
			for _, st := range sts {
				st.OnDeliver = func(*micropacket.Packet) { delivered++ }
			}
			for i := 0; i < n; i++ {
				i := i
				src := micropacket.NodeID(i)
				var tick func()
				tick = func() {
					sts[i].Send(micropacket.NewData(src, micropacket.Broadcast, 0, nil))
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
