package insertion

import (
	"testing"

	"repro/internal/alloctest"
	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// buildRing wires n stations into a logical ring over a single switch:
// node i's egress hops to node (i+1) mod n.
func buildRing(n int) (*sim.Kernel, *phys.Net, *phys.Cluster, []*Station) {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 1, 50)
	stations := make([]*Station, n)
	for i := 0; i < n; i++ {
		stations[i] = NewStation(k, micropacket.NodeID(i), c.NodePorts[i])
	}
	for i := 0; i < n; i++ {
		c.Switches[0].SetRoute(i, (i+1)%n)
		stations[i].SetEgress(0)
	}
	return k, net, c, stations
}

// collect attaches delivery counters to every station.
func collect(stations []*Station) []int {
	counts := make([]int, len(stations))
	for i, s := range stations {
		i := i
		s.OnDeliver = func(_ *micropacket.Packet) { counts[i]++ }
	}
	return counts
}

func TestUnicastDeliveredAndStripped(t *testing.T) {
	k, net, _, st := buildRing(4)
	counts := collect(st)
	if !st[0].Send(micropacket.NewData(0, 2, 7, []byte{1})) {
		t.Fatal("send refused")
	}
	k.Run()
	if counts[2] != 1 {
		t.Fatalf("node 2 deliveries = %d, want 1", counts[2])
	}
	if counts[1] != 0 || counts[3] != 0 || counts[0] != 0 {
		t.Fatalf("stray deliveries: %v", counts)
	}
	// Node 1 forwarded it; node 3 never saw it (destination strip).
	if st[1].Forwarded != 1 {
		t.Fatalf("node 1 forwarded = %d, want 1", st[1].Forwarded)
	}
	if st[3].Forwarded != 0 {
		t.Fatalf("node 3 forwarded = %d, want 0 (no spatial leak)", st[3].Forwarded)
	}
	if net.Acct.CongestionDrops() != 0 {
		t.Fatalf("drops = %d", net.Acct.CongestionDrops())
	}
}

func TestBroadcastFullTour(t *testing.T) {
	k, net, _, st := buildRing(5)
	counts := collect(st)
	st[1].Send(micropacket.NewData(1, micropacket.Broadcast, 0, []byte{9}))
	k.Run()
	for i, c := range counts {
		want := 1
		if i == 1 {
			want = 0 // source does not deliver its own broadcast
		}
		if c != want {
			t.Fatalf("node %d deliveries = %d, want %d (counts %v)", i, c, want, counts)
		}
	}
	if st[1].Stripped != 1 {
		t.Fatalf("source stripped = %d, want 1", st[1].Stripped)
	}
	if net.Acct.CongestionDrops() != 0 || net.Acct.FailureLosses() != 0 {
		t.Fatalf("drops=%d lost=%d", net.Acct.CongestionDrops(), net.Acct.FailureLosses())
	}
}

func TestSpatialReuseTwoStreams(t *testing.T) {
	// 0→1 and 2→3 use disjoint ring arcs; both complete without either
	// transiting the other's segment.
	k, _, _, st := buildRing(4)
	counts := collect(st)
	const per = 20
	for i := 0; i < per; i++ {
		if !st[0].Send(micropacket.NewData(0, 1, uint8(i), nil)) {
			t.Fatal("0→1 refused")
		}
		if !st[2].Send(micropacket.NewData(2, 3, uint8(i), nil)) {
			t.Fatal("2→3 refused")
		}
	}
	k.Run()
	if counts[1] != per || counts[3] != per {
		t.Fatalf("deliveries = %v, want %d at nodes 1 and 3", counts, per)
	}
	// Destination stripping means 1 never forwards 0's frames onward.
	if st[1].Forwarded != 0 || st[3].Forwarded != 0 {
		t.Fatalf("forwards = %d,%d — spatial reuse broken", st[1].Forwarded, st[3].Forwarded)
	}
}

// pump keeps offering packets to a station until n have been accepted,
// retrying on backpressure.
func pump(k *sim.Kernel, st *Station, n int, mk func(i int) *micropacket.Packet) {
	i := 0
	var loop func()
	loop = func() {
		for i < n && st.Send(mk(i)) {
			i++
		}
		if i < n {
			k.After(2*sim.Microsecond, loop)
		}
	}
	k.After(0, loop)
}

// TestAllToAllBroadcastLossless is the slide-8 guarantee at MAC scale:
// every node broadcasts simultaneously and nothing is dropped.
func TestAllToAllBroadcastLossless(t *testing.T) {
	const n, per = 8, 50
	k, net, _, st := buildRing(n)
	counts := collect(st)
	for i := 0; i < n; i++ {
		src := micropacket.NodeID(i)
		pump(k, st[i], per, func(j int) *micropacket.Packet {
			return micropacket.NewData(src, micropacket.Broadcast, uint8(j), nil)
		})
	}
	k.Run()
	if net.Acct.CongestionDrops() != 0 {
		t.Fatalf("CONGESTION DROPS = %d; slide-8 guarantee violated", net.Acct.CongestionDrops())
	}
	if net.Acct.FailureLosses() != 0 {
		t.Fatalf("lost = %d with no failures", net.Acct.FailureLosses())
	}
	for i, c := range counts {
		want := (n - 1) * per
		if c != want {
			t.Fatalf("node %d deliveries = %d, want %d", i, c, want)
		}
	}
	for i, s := range st {
		if s.Stripped != per {
			t.Fatalf("node %d stripped %d of its %d broadcasts", i, s.Stripped, per)
		}
		if s.QueueLen() != 0 {
			t.Fatalf("node %d insert queue not drained: %d", i, s.QueueLen())
		}
	}
}

func TestHostBackpressureNotWireDrops(t *testing.T) {
	k, net, _, st := buildRing(3)
	st[0].MaxInsertQueue = 4
	refused := 0
	for i := 0; i < 100; i++ {
		if !st[0].Send(micropacket.NewData(0, 1, uint8(i), nil)) {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("expected host backpressure")
	}
	if st[0].Refused == 0 {
		t.Fatal("Refused counter not incremented")
	}
	k.Run()
	if net.Acct.CongestionDrops() != 0 {
		t.Fatalf("backpressure leaked to wire drops: %d", net.Acct.CongestionDrops())
	}
}

func TestOffRingSendRefused(t *testing.T) {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, 2, 1, 10)
	s := NewStation(k, 0, c.NodePorts[0])
	if s.OnRing() {
		t.Fatal("station should start off-ring")
	}
	if s.Send(micropacket.NewData(0, 1, 0, nil)) {
		t.Fatal("off-ring send accepted")
	}
	if s.Refused != 1 {
		t.Fatal("refusal not counted")
	}
}

func TestHopExpiryBreaksLoops(t *testing.T) {
	// Address a node that is not on the ring: the frame would circulate
	// forever without the hop limit.
	k, _, _, st := buildRing(4)
	for _, s := range st {
		s.MaxHops = 16
	}
	st[0].Send(micropacket.NewData(0, 99, 0, nil))
	k.Run()
	var expired uint64
	for _, s := range st {
		expired += s.Expired
	}
	if expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
}

func TestRosteringPacketsGoToControlPlane(t *testing.T) {
	k, _, _, st := buildRing(3)
	counts := collect(st)
	controlSeen := 0
	st[1].OnControl = func(_ *phys.Port, f phys.Frame) { controlSeen++ }
	// Inject a rostering frame directly at node 1's ring ingress by
	// sending from node 0's egress port (bypassing the MAC's own flood
	// path, which is exercised in the rostering package tests).
	st[0].Ports[0].Send(st[0].Ports[0].Net().NewFrame(micropacket.NewRostering(0, 0, [8]byte{})))
	k.Run()
	if controlSeen != 1 {
		t.Fatalf("control packets seen = %d, want 1", controlSeen)
	}
	if counts[1] != 0 {
		t.Fatal("rostering packet leaked to data delivery")
	}
}

func TestSetEgressDetach(t *testing.T) {
	k, _, _, st := buildRing(3)
	st[0].SetEgress(-1)
	if st[0].OnRing() || st[0].EgressSwitch() != -1 {
		t.Fatal("detach failed")
	}
	// Transit arriving at a detached station is counted unrouted.
	st[2].Send(micropacket.NewData(2, 1, 0, nil)) // must pass node 0
	k.Run()
	if st[0].Unrouted == 0 {
		t.Fatal("unrouted transit not counted at detached station")
	}
}

func TestInsertThresholdAblation(t *testing.T) {
	// With a generous threshold the MAC still must not drop (capacity
	// bounded by FIFO cap), only queue more aggressively.
	const n = 4
	k, net, _, st := buildRing(n)
	collect(st)
	for _, s := range st {
		s.InsertThreshold = 8
	}
	for i := 0; i < n; i++ {
		src := micropacket.NodeID(i)
		pump(k, st[i], 100, func(j int) *micropacket.Packet {
			return micropacket.NewData(src, micropacket.Broadcast, uint8(j), nil)
		})
	}
	k.Run()
	if net.Acct.CongestionDrops() != 0 {
		t.Fatalf("drops with threshold 8 = %d", net.Acct.CongestionDrops())
	}
}

// TestDeviceLatencyAllocatesNothing drives all three exits of the
// device latency — station transit and switch forward, folded into a
// plan on the egress port or staged because a flood holds it, and the
// switch's flood fan-out — and requires a warmed-up round of them to
// allocate nothing: plans live in the pooled arrival records, stage
// records come back from the Net's one free list.
func TestDeviceLatencyAllocatesNothing(t *testing.T) {
	k, net, c, st := buildRing(3)
	for _, s := range st {
		s.MaxHops = 16
		s.OnControl = func(*phys.Port, phys.Frame) { net.Acct.Consume(frameacct.ConsumeControl) }
	}
	// Addressed to nobody, the data frame transits every station and
	// crosses the switch between each pair until its hop budget ends.
	data := micropacket.NewData(0, 99, 0, nil)
	// A new wave each round (the switch drops one it has seen); few
	// enough rounds that its seen-set never grows.
	wave := micropacket.NewRostering(0, 0, [8]byte{})
	round := func() {
		st[0].Send(data)
		wave.Payload[7]++
		st[0].Ports[0].SendPriority(net.NewFrame(wave))
		k.Run()
	}
	if n := alloctest.Count(5, round); n != 0 {
		t.Fatalf("5 warmed-up transit + forward + flood rounds allocate %d objects, want 0", n)
	}
	acct := net.Ledger()
	if st[1].Forwarded == 0 || c.Switches[0].Forwarded == 0 || c.Switches[0].Flooded == 0 {
		t.Fatalf("round missed an exit: transit %d, forward %d, flood %d",
			st[1].Forwarded, c.Switches[0].Forwarded, c.Switches[0].Flooded)
	}
	if h := net.Holds; h.Planned == 0 || h.NoEgress == 0 {
		t.Fatalf("round missed a path through Hold (planned, staged for a flood): %+v", h)
	}
	if !acct.Conserved() || acct.InDevice != 0 {
		t.Fatalf("in-device = %d, violations = %v", acct.InDevice, acct.Violations())
	}
}
