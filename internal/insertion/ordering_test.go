package insertion

import (
	"testing"

	"repro/internal/micropacket"
	"repro/internal/sim"
)

// TestPerSourceFIFOUnderLoad: the ring preserves per-source delivery
// order even when every node inserts concurrently — the property the
// cache replication protocol (head→data→tail) depends on.
func TestPerSourceFIFOUnderLoad(t *testing.T) {
	const n, per = 6, 80
	k, net, _, st := buildRing(n)
	// lastSeen[dst][src] tracks the last tag delivered.
	lastSeen := make([]map[micropacket.NodeID]int, n)
	for i := range lastSeen {
		lastSeen[i] = map[micropacket.NodeID]int{}
	}
	for i := range st {
		i := i
		st[i].OnDeliver = func(p *micropacket.Packet) {
			prev, ok := lastSeen[i][p.Src]
			if ok && int(p.Tag) != prev+1 {
				t.Errorf("node %d: src %d out of order: %d after %d", i, p.Src, p.Tag, prev)
			}
			lastSeen[i][p.Src] = int(p.Tag)
		}
	}
	for i := 0; i < n; i++ {
		src := micropacket.NodeID(i)
		pump(k, st[i], per, func(j int) *micropacket.Packet {
			return micropacket.NewData(src, micropacket.Broadcast, uint8(j), nil)
		})
	}
	k.Run()
	if net.Acct.CongestionDrops() != 0 {
		t.Fatalf("drops = %d", net.Acct.CongestionDrops())
	}
	for i := range lastSeen {
		for src, last := range lastSeen[i] {
			if last != per-1 {
				t.Fatalf("node %d saw only %d/%d from %d", i, last+1, per, src)
			}
		}
	}
}

// TestPaceRelaxesWhenRingClears: after contention ends, the adaptive
// pace decays and insertion returns to back-to-back operation.
func TestPaceRelaxesWhenRingClears(t *testing.T) {
	const n = 4
	k, _, _, st := buildRing(n)
	collect(st)
	// Phase 1: saturate.
	for i := 0; i < n; i++ {
		src := micropacket.NodeID(i)
		pump(k, st[i], 100, func(j int) *micropacket.Packet {
			return micropacket.NewData(src, micropacket.Broadcast, uint8(j), nil)
		})
	}
	k.Run()
	// Phase 2: a single node sends a quiet burst; completion must be
	// near line rate (no residual pacing penalty).
	start := k.Now()
	done := 0
	st[1].OnDeliver = func(*micropacket.Packet) { done++ }
	for j := 0; j < 50; j++ {
		if !st[0].Send(micropacket.NewData(0, 1, uint8(j), nil)) {
			t.Fatal("send refused on idle ring")
		}
	}
	k.Run()
	if done != 50 {
		t.Fatalf("delivered %d/50", done)
	}
	el := k.Now() - start
	// 50 frames × ~301 ns serialization + one hop of latency: anything
	// over ~3× that budget means the pace did not decay.
	budget := 3 * (50*sim.Time(310) + 2*sim.Microsecond)
	if el > budget {
		t.Fatalf("quiet burst took %v (budget %v): pacing did not relax", el, budget)
	}
}

// TestLosslessAcrossFIFOSizes: the zero-drop guarantee holds for any
// sane egress FIFO capacity.
func TestLosslessAcrossFIFOSizes(t *testing.T) {
	for _, cap := range []int{4, 8, 64} {
		const n, per = 5, 40
		k, net, _, st := buildRing(n)
		for i := range st {
			for _, p := range st[i].Ports {
				p.SetCapacity(cap)
			}
		}
		collect(st)
		for i := 0; i < n; i++ {
			src := micropacket.NodeID(i)
			pump(k, st[i], per, func(j int) *micropacket.Packet {
				return micropacket.NewData(src, micropacket.Broadcast, uint8(j), nil)
			})
		}
		k.Run()
		if net.Acct.CongestionDrops() != 0 {
			t.Fatalf("cap %d: drops = %d", cap, net.Acct.CongestionDrops())
		}
	}
}
