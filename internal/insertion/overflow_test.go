package insertion

import (
	"testing"

	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Regression for the uint8 hop-counter overflow: on a >255-node ring
// the seed's `MaxHops uint8` (and `Frame.Hops uint8`) expired every
// broadcast at hop 255, so nodes past the ceiling silently never heard
// it. With uint16 counters and a topology-scaled budget the broadcast
// must complete a full tour: every other node delivers it and the
// source strips it.
func TestBroadcastToursRingPast255Nodes(t *testing.T) {
	const n = 300
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	cluster, err := phys.BuildFabric(net, phys.Uniform(n, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	stations := make([]*Station, n)
	for i := 0; i < n; i++ {
		stations[i] = NewStation(k, micropacket.NodeID(i), cluster.NodePorts[i])
		stations[i].MaxHops = MaxHopsFor(n)
		stations[i].SetEgress(0)
		cluster.Switches[0].SetRoute(i, (i+1)%n)
	}
	if !stations[0].Send(micropacket.NewData(0, micropacket.Broadcast, 1, []byte{42})) {
		t.Fatal("send refused")
	}
	k.Run()

	for i := 1; i < n; i++ {
		if stations[i].Delivered != 1 {
			t.Fatalf("node %d delivered %d broadcasts, want 1 (tour died at hop %d?)",
				i, stations[i].Delivered, i)
		}
	}
	if stations[0].Stripped != 1 {
		t.Fatalf("source stripped %d, want 1 (broadcast did not complete the tour)", stations[0].Stripped)
	}
	for i := 0; i < n; i++ {
		if stations[i].Expired != 0 {
			t.Fatalf("node %d expired %d transit frames on a healthy ring", i, stations[i].Expired)
		}
	}
	if net.Acct.CongestionDrops() != 0 {
		t.Fatalf("congestion drops: %d", net.Acct.CongestionDrops())
	}
}

// MaxHopsFor pins the budget rule: the historical 255 for every ring
// the v1 address space could build (bit-compatible with the seed —
// reports of ≤255-node fabrics must not change), twice the
// circumference past the ceiling, capped at the counter range.
func TestMaxHopsFor(t *testing.T) {
	cases := []struct {
		nodes int
		want  uint16
	}{
		{1, 255}, {6, 255}, {127, 255}, {200, 255}, {255, 255},
		{256, 512}, {300, 600}, {1024, 2048}, {40000, 65535}, {65535, 65535},
	}
	for _, c := range cases {
		if got := MaxHopsFor(c.nodes); got != c.want {
			t.Errorf("MaxHopsFor(%d) = %d, want %d", c.nodes, got, c.want)
		}
	}
}
