package ampdk

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/enc8b10b"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// dmaTally is the DMA frames a rig's nodes have sent and received, and
// the sequence gaps they have counted, at one instant.
type dmaTally struct{ sent, recv, gaps []uint64 }

func tallyDMA(nodes []*Node) dmaTally {
	var t dmaTally
	for _, nd := range nodes {
		t.sent = append(t.sent, nd.DMA.Sent)
		t.recv = append(t.recv, nd.DMA.Recv)
		t.gaps = append(t.gaps, nd.DMA.Gaps)
	}
	return t
}

// TestGapsAreLosses: a DMA sequence gap means a frame of the stream the
// receiver tracks was lost, so the gaps a node counts are at most the
// frames lost on the way to it. Both rigs lose none. In the first,
// node 0 writes channel 3 to nodes 3, 2, 3, 2 and 3. In the second,
// node 3 crashes for 5 ms and reboots, and node 0's refresh stream to
// it arrives whole but reordered by the re-join's ring transition.
// Numbering frames per channel while receivers tracked them per source
// and channel, the first counted 2 gaps at node 3 and 1 at node 2, and
// the second 6 at node 3. The third is examples/noisyfiber on DeepPHY
// at a bit-error rate of 5e-5, which loses frames: there each node's
// gaps are at most the broadcast DMA frames of the other nodes that
// did not reach it.
func TestGapsAreLosses(t *testing.T) {
	check := func(t *testing.T, nodes []*Node, before dmaTally, from int, to ...int) {
		t.Helper()
		after := tallyDMA(nodes)
		var recv uint64
		for _, dst := range to {
			recv += after.recv[dst] - before.recv[dst]
		}
		for id := range nodes {
			if id != from && after.sent[id] != before.sent[id] {
				t.Fatalf("node %d sent %d DMA frames; only node %d may send in this rig", id, after.sent[id]-before.sent[id], from)
			}
		}
		sent := after.sent[from] - before.sent[from]
		if recv > sent {
			t.Fatalf("nodes %v received %d DMA frames of node %d's %d", to, recv, from, sent)
		}
		lost := sent - recv
		for _, dst := range to {
			if gaps := after.gaps[dst] - before.gaps[dst]; gaps > lost {
				t.Errorf("node %d counted %d DMA gaps, but %d of node %d's %d frames were lost", dst, gaps, lost, from, sent)
			}
		}
	}

	t.Run("unicast to two destinations", func(t *testing.T) {
		k, _, nodes := bootCluster(4, 2, nil)
		run(k, 20*sim.Millisecond)
		before := tallyDMA(nodes)
		for _, dst := range []int{3, 2, 3, 2, 3} {
			k.After(0, func() { nodes[0].DMA.Write(3, micropacket.NodeID(dst), 200, 0, []byte{byte(dst)}, nil) })
			run(k, sim.Millisecond)
		}
		check(t, nodes, before, 0, 3, 2)
	})

	t.Run("refresh after a reboot", func(t *testing.T) {
		k, _, nodes := bootCluster(4, 2, nil)
		run(k, 20*sim.Millisecond)
		k.After(0, nodes[3].Crash)
		run(k, 5*sim.Millisecond)
		before := tallyDMA(nodes)
		k.After(0, nodes[3].Reboot)
		run(k, 40*sim.Millisecond)
		if !nodes[3].Online() {
			t.Fatal("node 3 did not come back")
		}
		if nodes[0].DMA.Sent == before.sent[0] {
			t.Fatal("node 0 streamed no refresh to node 3")
		}
		check(t, nodes, before, 0, 3)
	})

	t.Run("noisy fiber", func(t *testing.T) {
		k, _, nodes := bootCluster(4, 2, func(int) Config {
			return Config{Regions: map[uint8]int{1: 4096}}
		})
		net := nodes[0].Station.Net()
		net.DeepPHY, net.Corrupt = true, symbolErrors(1, 5e-5)
		for _, nd := range nodes {
			nd.EnableAutoRecovery(2 * sim.Millisecond)
		}
		run(k, 20*sim.Millisecond)
		// Every broadcast DMA frame goes out through a node's cache
		// writer, one segment for each 64 bytes or part.
		sent, recv := make([]uint64, len(nodes)), make([]uint64, len(nodes))
		gaps := tallyDMA(nodes).gaps
		for i, nd := range nodes {
			nd.CacheW.TP = countedTransport{nd.CacheW.TP, &sent[i]}
			deliver := nd.Station.OnDeliver
			nd.Station.OnDeliver = func(p *micropacket.Packet) {
				if p.Type == micropacket.TypeDMA && p.Dst == micropacket.Broadcast {
					recv[i]++
				}
				deliver(p)
			}
		}
		rec := netcache.Record{Region: 1, Off: 0, Size: 8}
		for i := range uint64(500) {
			k.After(sim.Time(i)*40*sim.Microsecond, func() {
				if nodes[0].Online() {
					nodes[0].CacheW.WriteRecord(rec, binary.LittleEndian.AppendUint64(nil, i+1))
				}
			})
		}
		run(k, 30*sim.Millisecond)
		ledger := net.Ledger()
		if crc := ledger.CRCDrops(); sent[0] == 0 || crc == 0 {
			t.Fatalf("node 0 broadcast %d frames and %d were lost to bit errors; the rig needs both", sent[0], crc)
		}
		var all uint64
		for _, n := range sent {
			all += n
		}
		after := tallyDMA(nodes).gaps
		for id, nd := range nodes {
			if p := nd.DMA.Pending(); p != 0 {
				t.Fatalf("node %d still holds %d DMA segments", id, p)
			}
			if recv[id] > all-sent[id] {
				t.Fatalf("node %d received %d broadcast DMA frames of the other nodes' %d", id, recv[id], all-sent[id])
			}
			lost := all - sent[id] - recv[id]
			t.Logf("node %d: %d gaps, %d of %d broadcast frames lost", id, after[id]-gaps[id], lost, all-sent[id])
			if n := after[id] - gaps[id]; n > lost {
				t.Errorf("node %d counted %d DMA gaps, but %d of the other nodes' %d broadcast frames did not reach it", id, n, lost, all-sent[id])
			}
		}
	})
}

// countedTransport counts the broadcast DMA segments a cache writer
// sends through TP.
type countedTransport struct {
	TP   netcache.Transport
	segs *uint64
}

func (c countedTransport) Broadcast(region uint8, off uint32, data []byte) bool {
	*c.segs += uint64(max(1, (len(data)+micropacket.MaxPayload-1)/micropacket.MaxPayload))
	return c.TP.Broadcast(region, off, data)
}

// symbolErrors flips one bit of each symbol with probability ber, from
// a random stream per receiving port, as core's BER option does.
func symbolErrors(seed uint64, ber float64) func(*phys.Port, []enc8b10b.Symbol) {
	streams := map[uint32]*sim.RNG{}
	return func(dst *phys.Port, syms []enc8b10b.Symbol) {
		rng := streams[dst.UID()]
		if rng == nil {
			rng = sim.NewRNG(seed ^ uint64(dst.UID())<<32)
			streams[dst.UID()] = rng
		}
		for i := range syms {
			if rng.Float64() < ber {
				syms[i] ^= 1 << rng.Intn(10)
			}
		}
	}
}

// TestLostRefreshSegmentIsRefetched: a refresh is unicast, so a segment
// lost on its way to the joiner shows as no DMA gap; the joiner notices
// by bytes. Node 3 crashes, node 0 rewrites a record, and node 3's
// reboot refresh loses the segment that holds it. A heartbeat interval
// after JoinOK node 3 has fewer bytes than node 0 said it streamed,
// asks again for every region, and ends with node 0's bytes. Losing
// nothing, it asks for nothing, and neither does it when the segment
// arrives a microsecond behind JoinOK, which overtook it, as JoinOK
// can across a ring transition.
func TestLostRefreshSegmentIsRefetched(t *testing.T) {
	for _, tc := range []struct {
		fault string
		reqs  uint64
	}{{"none", 0}, {"lost", 2}, {"overtaken", 0}} { // 2: regions 0 and 1
		k, _, nodes := bootCluster(4, 2, func(int) Config {
			return Config{Regions: map[uint8]int{1: 1024}}
		})
		run(k, 20*sim.Millisecond)
		rec := records(16, 1)[0]
		write := func(val byte) {
			k.After(0, func() {
				if err := nodes[0].CacheW.WriteRecord(rec, bytes.Repeat([]byte{val}, 16)); err != nil {
					t.Error(err)
				}
			})
			run(k, sim.Millisecond)
		}
		write(1)
		k.After(0, nodes[3].Crash)
		run(k, sim.Millisecond)
		write(2)
		n3 := nodes[3]
		var held *micropacket.Packet
		deliver := n3.Station.OnDeliver
		n3.Station.OnDeliver = func(p *micropacket.Packet) {
			switch {
			case tc.fault != "none" && held == nil && n3.State == StateAssimilating && p.Type == micropacket.TypeDMA &&
				p.DMA.Channel == RefreshChannel && p.DMA.Region == rec.Region && p.DMA.Offset == rec.Off:
				cp := *p
				cp.Data = bytes.Clone(p.Data)
				held = &cp
				return
			case tc.fault == "overtaken" && p.Type == micropacket.TypeData && p.Tag == TagJoinOK:
				deliver(p)
				k.After(sim.Microsecond, func() { deliver(held) })
				return
			}
			deliver(p)
		}
		gaps := n3.DMA.Gaps
		k.After(0, n3.Reboot)
		run(k, 40*sim.Millisecond)
		if !n3.Online() {
			t.Fatalf("%s: node 3 did not come back", tc.fault)
		}
		if tc.fault != "none" && held == nil {
			t.Fatalf("%s: the rig held back no refresh segment", tc.fault)
		}
		if n := n3.DMA.Gaps - gaps; n != 0 {
			t.Fatalf("%s: node 3 counted %d DMA gaps on a unicast refresh", tc.fault, n)
		}
		if n3.RefreshReqs != tc.reqs {
			t.Fatalf("%s: node 3 asked for %d region refreshes, want %d", tc.fault, n3.RefreshReqs, tc.reqs)
		}
		if got, ok := n3.Cache.TryRead(rec); !ok || got[0] != 2 {
			t.Fatalf("%s: node 3 reads % x (ok=%v), want the record node 0 wrote while it was down", tc.fault, got, ok)
		}
		for _, id := range []uint8{ConfigRegion, 1} {
			if !bytes.Equal(n3.Cache.Snapshot(id), nodes[0].Cache.Snapshot(id)) {
				t.Fatalf("%s: node 3's region %d differs from node 0's", tc.fault, id)
			}
		}
	}
}
