package ampip

import (
	"bytes"
	"testing"

	"repro/internal/ampdk"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

type rig struct {
	k       *sim.Kernel
	cluster *phys.Cluster
	nodes   []*ampdk.Node
	stacks  []*Stack
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 2, 50)
	r := &rig{k: k, cluster: c}
	for i := 0; i < n; i++ {
		nd := ampdk.NewNode(k, c, ampdk.Config{ID: i})
		r.nodes = append(r.nodes, nd)
		r.stacks = append(r.stacks, NewStack(nd))
	}
	for _, nd := range r.nodes {
		nd := nd
		k.After(0, func() { nd.Boot() })
	}
	r.run(20 * sim.Millisecond)
	for i, nd := range r.nodes {
		if !nd.Online() {
			t.Fatalf("node %d offline", i)
		}
	}
	return r
}

func (r *rig) run(d sim.Time) { r.k.RunUntil(r.k.Now() + d) }

func TestAddressMapping(t *testing.T) {
	// Round trip across the whole addressable space, including the
	// ids past the one-byte ceiling.
	for _, n := range []int{0, 1, 100, 249, 254, 255, 256, 300, 1023, 65533} {
		ip := NodeToIP(n)
		got, ok := IPToNode(ip)
		if !ok || got != n {
			t.Fatalf("node %d → %v → %d ok=%v", n, ip, got, ok)
		}
	}
	if _, ok := IPToNode(Addr(192<<24 | 168<<16 | 1<<8 | 1)); ok {
		t.Fatal("foreign address mapped")
	}
	if NodeToIP(0).String() != "10.77.0.1" {
		t.Fatalf("addr string = %s", NodeToIP(0))
	}
	if NodeToIP(300).String() != "10.77.1.45" {
		t.Fatalf("wide addr string = %s", NodeToIP(300))
	}
	// Out-of-range ids return the zero Addr instead of aliasing, and
	// the subnet's zero/broadcast hosts never map back to nodes.
	for _, bad := range []int{-1, 65534, 65535, 1 << 20} {
		if a := NodeToIP(bad); a != 0 {
			t.Fatalf("NodeToIP(%d) = %v, want 0", bad, a)
		}
	}
	if _, ok := IPToNode(Addr(10<<24 | 77<<16 | 0xFFFF)); ok {
		t.Fatal("subnet broadcast host mapped to a node")
	}
	if _, ok := IPToNode(Addr(10<<24 | 77<<16)); ok {
		t.Fatal("zero host mapped to a node")
	}
}

func TestDatagramDelivery(t *testing.T) {
	r := newRig(t, 3)
	var gotData []byte
	var gotSrc Addr
	var gotPort uint16
	r.stacks[2].Bind(5000, func(src Addr, srcPort uint16, data []byte) {
		// data is lent for the call: its packet is freed once it returns.
		gotSrc, gotPort, gotData = src, srcPort, bytes.Clone(data)
	})
	r.k.After(0, func() {
		r.stacks[0].SendTo(NodeToIP(2), 5000, 777, []byte("datagram"))
	})
	r.run(5 * sim.Millisecond)
	if string(gotData) != "datagram" {
		t.Fatalf("data = %q", gotData)
	}
	if gotSrc != NodeToIP(0) || gotPort != 777 {
		t.Fatalf("src = %v:%d", gotSrc, gotPort)
	}
}

func TestLoopback(t *testing.T) {
	r := newRig(t, 2)
	got := false
	r.stacks[0].Bind(80, func(_ Addr, _ uint16, data []byte) { got = string(data) == "self" })
	r.k.After(0, func() { r.stacks[0].SendTo(r.stacks[0].IP, 80, 80, []byte("self")) })
	r.run(sim.Millisecond)
	if !got {
		t.Fatal("loopback failed")
	}
}

func TestUnboundPortDropped(t *testing.T) {
	r := newRig(t, 2)
	r.k.After(0, func() { r.stacks[0].SendTo(NodeToIP(1), 9999, 1, []byte("x")) })
	r.run(5 * sim.Millisecond)
	if r.stacks[1].NoBind != 1 {
		t.Fatalf("NoBind = %d", r.stacks[1].NoBind)
	}
}

func TestForeignAddressRejected(t *testing.T) {
	r := newRig(t, 2)
	if err := r.stacks[0].SendTo(Addr(1), 1, 1, nil); err == nil {
		t.Fatal("foreign send accepted")
	}
}

func TestLargeDatagram(t *testing.T) {
	r := newRig(t, 2)
	big := make([]byte, 9000) // jumbo: 141 segments
	for i := range big {
		big[i] = byte(i)
	}
	var got []byte
	r.stacks[1].Bind(1, func(_ Addr, _ uint16, data []byte) { got = bytes.Clone(data) })
	r.k.After(0, func() { r.stacks[0].SendTo(NodeToIP(1), 1, 1, big) })
	r.run(20 * sim.Millisecond)
	if !bytes.Equal(got, big) {
		t.Fatalf("jumbo reassembly failed: %d bytes", len(got))
	}
}

func TestManyDatagramsInOrder(t *testing.T) {
	r := newRig(t, 2)
	var got []byte
	r.stacks[1].Bind(2, func(_ Addr, _ uint16, data []byte) { got = append(got, data[0]) })
	r.k.After(0, func() {
		for i := 0; i < 100; i++ {
			r.stacks[0].SendTo(NodeToIP(1), 2, 2, []byte{byte(i)})
		}
	})
	r.run(20 * sim.Millisecond)
	if len(got) != 100 {
		t.Fatalf("delivered %d/100", len(got))
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

// --- collectives ---

func comms(r *rig) []*Comm {
	var nodes []int
	for i := range r.nodes {
		nodes = append(nodes, i)
	}
	var cs []*Comm
	for _, s := range r.stacks {
		cs = append(cs, NewComm(s, nodes, 6000))
	}
	return cs
}

func TestBcast(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	payload := []byte("broadcast payload")
	got := make([][]byte, 4)
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			c.Bcast(1, payloadIf(i == 1, payload), func(data []byte) { got[i] = data })
		}
	})
	r.run(10 * sim.Millisecond)
	for i, g := range got {
		if !bytes.Equal(g, payload) {
			t.Fatalf("rank %d got %q", i, g)
		}
	}
}

// payloadIf returns data on the root, nil elsewhere (non-roots pass
// whatever; only root's data matters).
func payloadIf(root bool, data []byte) []byte {
	if root {
		return data
	}
	return nil
}

func TestBarrier(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	released := 0
	// Stagger arrivals; nobody may release before the last arrival.
	var lastArrive sim.Time
	var firstRelease sim.Time = -1
	for i, c := range cs {
		i, c := i, c
		delay := sim.Time(i) * 300 * sim.Microsecond
		r.k.After(delay, func() {
			if r.k.Now() > lastArrive {
				lastArrive = r.k.Now()
			}
			c.Barrier(func() {
				released++
				if firstRelease < 0 {
					firstRelease = r.k.Now()
				}
			})
		})
	}
	r.run(20 * sim.Millisecond)
	if released != 4 {
		t.Fatalf("released = %d", released)
	}
	if firstRelease < lastArrive {
		t.Fatalf("release at %v before last arrival at %v", firstRelease, lastArrive)
	}
}

func TestBarrierSequence(t *testing.T) {
	r := newRig(t, 3)
	cs := comms(r)
	count := 0
	var round func(n int)
	round = func(n int) {
		if n == 0 {
			return
		}
		done := 0
		for _, c := range cs {
			c.Barrier(func() {
				done++
				if done == len(cs) {
					count++
					round(n - 1)
				}
			})
		}
	}
	r.k.After(0, func() { round(5) })
	r.run(50 * sim.Millisecond)
	if count != 5 {
		t.Fatalf("completed %d/5 barrier rounds", count)
	}
}

func TestAllReduceSum(t *testing.T) {
	r := newRig(t, 5)
	cs := comms(r)
	results := make([]uint64, 5)
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			c.AllReduceSum(uint64(i+1), func(total uint64) { results[i] = total })
		}
	})
	r.run(10 * sim.Millisecond)
	for i, v := range results {
		if v != 15 { // 1+2+3+4+5
			t.Fatalf("rank %d total = %d, want 15", i, v)
		}
	}
}

func TestAllToAll(t *testing.T) {
	r := newRig(t, 3)
	cs := comms(r)
	results := make([][][]byte, 3)
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			blocks := make([][]byte, 3)
			for j := range blocks {
				blocks[j] = []byte{byte(i), byte(j)} // from i to j
			}
			c.AllToAll(blocks, func(recv [][]byte) { results[i] = recv })
		}
	})
	r.run(10 * sim.Millisecond)
	for i, recv := range results {
		if recv == nil {
			t.Fatalf("rank %d incomplete", i)
		}
		for j, blk := range recv {
			if len(blk) != 2 || blk[0] != byte(j) || blk[1] != byte(i) {
				t.Fatalf("rank %d block %d = %v", i, j, blk)
			}
		}
	}
}

func TestCollectivesPipelined(t *testing.T) {
	// Two back-to-back allreduces issued without waiting must match by
	// sequence number and both complete correctly.
	r := newRig(t, 3)
	cs := comms(r)
	var first, second []uint64
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			c.AllReduceSum(uint64(i), func(total uint64) { first = append(first, total) })
			c.AllReduceSum(uint64(i*10), func(total uint64) { second = append(second, total) })
		}
	})
	r.run(20 * sim.Millisecond)
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("completions: %d, %d", len(first), len(second))
	}
	for _, v := range first {
		if v != 3 { // 0+1+2
			t.Fatalf("first round = %v", first)
		}
	}
	for _, v := range second {
		if v != 30 {
			t.Fatalf("second round = %v", second)
		}
	}
}

func TestCommRankSize(t *testing.T) {
	r := newRig(t, 3)
	cs := comms(r)
	for i, c := range cs {
		if c.Rank() != i || c.Size() != 3 {
			t.Fatalf("rank/size = %d/%d", c.Rank(), c.Size())
		}
	}
}

// TestSenderCrashMidDatagramNoSplice is AmpSubscribe's
// TestPublisherCrashMidMessageNoSplice for datagrams: a sender that
// crashes inside a 600-byte datagram (ten segments: most still in the
// engine, a MAC window of them in the station), reboots and sends it again
// delivers it once, whole — not the first one's head on the second
// one's tail — and sends nothing of the first one after the reboot.
func TestSenderCrashMidDatagramNoSplice(t *testing.T) {
	// Late enough for the datagram's head to have reached node 2, too
	// early for its tail.
	const crashAfter = 4 * sim.Microsecond
	r := newRig(t, 4)
	msg := bytes.Repeat([]byte("0123456789"), 60)
	var got [][]byte
	r.stacks[2].Bind(9, func(_ Addr, _ uint16, data []byte) {
		got = append(got, bytes.Clone(data))
	})
	send := func() {
		if err := r.stacks[0].SendTo(NodeToIP(2), 9, 9, msg); err != nil {
			t.Fatal(err)
		}
	}
	// segments counts what reaches node 2 on the IP region, delivered
	// whole or not.
	segments := 0
	deliver := r.nodes[2].RegionHandler(IPRegion)
	r.nodes[2].SetRegionHandler(IPRegion, func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		segments++
		deliver(src, hdr, data, last)
	})
	r.k.After(0, send)
	r.k.After(crashAfter, func() { r.nodes[0].Crash() })
	r.run(sim.Millisecond)
	if len(got) != 0 {
		t.Fatalf("the sender crashed %v into the datagram, yet %d bytes were delivered", crashAfter, len(got[0]))
	}
	if n := r.nodes[0].DMA.Pending(); n != 0 {
		t.Fatalf("the crashed sender's DMA engine still holds %d segments", n)
	}
	before := segments
	r.nodes[0].Reboot()
	r.run(20 * sim.Millisecond)
	if !r.nodes[0].Online() {
		t.Fatal("sender did not come back")
	}
	if segments != before {
		t.Fatalf("%d segment(s) of the aborted datagram were sent after the reboot", segments-before)
	}
	send()
	r.run(5 * sim.Millisecond)
	if len(got) != 1 || !bytes.Equal(got[0], msg) {
		sizes := make([]int, len(got))
		for i, g := range got {
			sizes[i] = len(g)
		}
		t.Fatalf("deliveries of %v bytes, want exactly the one %d-byte datagram", sizes, len(msg))
	}
}

// TestLostSegmentDropsDatagram: datagrams are unicast, so a segment lost
// on the way counts no DMA gap; the receiver's dma.Assembly notices by
// byte position instead. The datagram that lost its third segment is
// dropped whole, and the next one arrives intact.
func TestLostSegmentDropsDatagram(t *testing.T) {
	r := newRig(t, 4)
	first, second := bytes.Repeat([]byte{1}, 600), bytes.Repeat([]byte{2}, 600)
	var got [][]byte
	r.stacks[2].Bind(9, func(_ Addr, _ uint16, data []byte) { got = append(got, bytes.Clone(data)) })
	st := r.nodes[2].Station
	deliver, segments := st.OnDeliver, 0
	st.OnDeliver = func(p *micropacket.Packet) {
		if p.Type == micropacket.TypeDMA && p.DMA.Region == IPRegion {
			if segments++; segments == 3 {
				return
			}
		}
		deliver(p)
	}
	gaps := r.nodes[2].DMA.Gaps
	r.k.After(0, func() {
		r.stacks[0].SendTo(NodeToIP(2), 9, 9, first)
		r.stacks[0].SendTo(NodeToIP(2), 9, 9, second)
	})
	r.run(5 * sim.Millisecond)
	if len(got) != 1 || !bytes.Equal(got[0], second) {
		t.Fatalf("delivered %d datagrams, want only the second, whole", len(got))
	}
	if n := r.nodes[2].DMA.Gaps - gaps; n != 0 {
		t.Fatalf("a lost unicast segment counted %d DMA gaps", n)
	}
}
