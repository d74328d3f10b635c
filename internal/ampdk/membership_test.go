package ampdk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/alloctest"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// TestPeerTableMatchesMapVersion replays a boot, two crashes, an
// application failure and a reboot and compares Peers, OnlinePeerIDs and
// the OnPeerDown order with what the map-backed peer table returned for
// the same run (recorded at commit e60564d).
func TestPeerTableMatchesMapVersion(t *testing.T) {
	k, _, nodes := bootCluster(6, 2, nil)
	var downs []int
	nodes[2].OnPeerDown = func(id int) { downs = append(downs, id) }
	var got []string
	snap := func(nd *Node) {
		got = append(got, fmt.Sprintf("%+v %v", nd.Peers(), nd.OnlinePeerIDs()))
	}
	run(k, 20*sim.Millisecond)
	snap(nodes[2])
	snap(nodes[0])
	nodes[4].Crash()
	nodes[1].Crash()
	nodes[5].AppFail()
	run(k, 5*sim.Millisecond)
	snap(nodes[2])
	nodes[2].AppFail()
	snap(nodes[2])
	nodes[1].Reboot()
	run(k, 20*sim.Millisecond)
	snap(nodes[1])

	want := []string{
		"[{ID:0 Version:256 LastHB:19.756ms Online:true} {ID:1 Version:256 LastHB:19.831ms Online:true} {ID:3 Version:256 LastHB:19.939ms Online:true} {ID:4 Version:256 LastHB:19.997ms Online:true} {ID:5 Version:256 LastHB:19.805ms Online:true}] [2 0 1 3 4 5]",
		"[{ID:1 Version:256 LastHB:19.825ms Online:true} {ID:2 Version:256 LastHB:19.884ms Online:true} {ID:3 Version:256 LastHB:19.942ms Online:true} {ID:4 Version:256 LastHB:20.000ms Online:true} {ID:5 Version:256 LastHB:19.808ms Online:true}] [0 1 2 3 4 5]",
		"[{ID:0 Version:256 LastHB:24.754ms Online:true} {ID:1 Version:256 LastHB:19.831ms Online:false} {ID:3 Version:256 LastHB:24.939ms Online:true} {ID:4 Version:256 LastHB:19.997ms Online:false} {ID:5 Version:256 LastHB:19.805ms Online:false}] [2 0 3]",
		"[{ID:0 Version:256 LastHB:24.754ms Online:true} {ID:1 Version:256 LastHB:19.831ms Online:false} {ID:3 Version:256 LastHB:24.939ms Online:true} {ID:4 Version:256 LastHB:19.997ms Online:false} {ID:5 Version:256 LastHB:19.805ms Online:false}] [0 3]",
		"[{ID:0 Version:256 LastHB:44.755ms Online:true} {ID:3 Version:256 LastHB:44.940ms Online:true}] [1 0 3]",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
	if want := []int{1, 4, 5}; !reflect.DeepEqual(downs, want) {
		t.Errorf("OnPeerDown order %v, want %v", downs, want)
	}
}

// loneNode builds an unbooted node 2 of a 6-node cluster and lets it
// hear a heartbeat from each of the given peers.
func loneNode(peers ...int) (*sim.Kernel, *Node) {
	k := sim.NewKernel(1)
	n := NewNode(k, phys.BuildCluster(phys.NewNet(k), 6, 2, 50), Config{ID: 2})
	n.State = StateOnline
	for _, id := range peers {
		n.noteHeartbeat(beat(id))
	}
	return k, n
}

func beat(from int) *micropacket.Packet {
	var pl [8]byte
	binary.LittleEndian.PutUint16(pl[0:2], 0x0100)
	return micropacket.NewData(micropacket.NodeID(from), micropacket.Broadcast, TagHeartbeat, pl[:])
}

// TestPeerDownAscendingWithinOneTick: peers heard in any order that all
// fall silent together are declared down by one detect tick, lowest id
// first — the order the failover elections downstream depend on.
func TestPeerDownAscendingWithinOneTick(t *testing.T) {
	k, n := loneNode(5, 3, 0, 4, 1)
	var downs []int
	n.OnPeerDown = func(id int) { downs = append(downs, id) }
	n.detectLoop()
	if len(downs) != 0 {
		t.Fatalf("peers down before the deadline: %v", downs)
	}
	k.RunUntil((missedBeats + 1) * n.Cfg.HeartbeatInterval)
	if want := []int{0, 1, 3, 4, 5}; !reflect.DeepEqual(downs, want) {
		t.Fatalf("OnPeerDown order %v, want %v", downs, want)
	}
	if got := n.OnlinePeerIDs(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("online after the tick: %v", got)
	}
	if n.lowerOnline != 0 {
		t.Fatalf("lowerOnline = %d with every peer down", n.lowerOnline)
	}
}

// TestLivenessTicksAllocateNothing: a heartbeat heard from a known
// peer, a detect tick over a full table and a heartbeat tick allocate
// nothing beyond the heartbeat MicroPacket itself — no Timer, no
// closure, no sorted key slice.
func TestLivenessTicksAllocateNothing(t *testing.T) {
	_, n := loneNode(0, 1, 3, 4, 5)
	hb := beat(4)
	n.heartbeatLoop()
	n.detectLoop()
	for _, tc := range []struct {
		name string
		fn   func()
		max  uint64 // in 100 calls
	}{
		{"noteHeartbeat", func() { n.noteHeartbeat(hb) }, 0},
		{"detectLoop", n.detectLoop, 0},
		{"heartbeatLoop", n.heartbeatLoop, 100},
	} {
		if got := alloctest.Count(100, tc.fn); got > tc.max {
			t.Errorf("100 calls of %s allocate %d times, want <= %d", tc.name, got, tc.max)
		}
	}
}

// TestPeerRowIs16Bytes: a peer table row holds what the table indexes
// by id and nothing else, not the id itself. Every node keeps one row
// per node of the fabric, so the row is the N² term of a cluster's
// bytes; it was 32.
func TestPeerRowIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(peerRow{}); got > 16 {
		t.Fatalf("a peer row is %d bytes, want at most 16", got)
	}
}

// TestRegionHandlers: a registered region's DMA writes go to its
// handler, a second registration replaces it, a nil handler unregisters
// the region so its writes fall through to the cache replica, a list
// longer than the inline few spills and still dispatches, and neither a
// lookup nor registering within the inline few allocates.
func TestRegionHandlers(t *testing.T) {
	_, n := loneNode()
	var got []string
	handler := func(name string) func(micropacket.NodeID, micropacket.DMAHeader, []byte, bool) {
		return func(_ micropacket.NodeID, hdr micropacket.DMAHeader, _ []byte, _ bool) {
			got = append(got, fmt.Sprintf("%s:%d", name, hdr.Region))
		}
	}
	write := func(region uint8, data []byte) {
		n.dmaWrite(1, micropacket.DMAHeader{Region: region}, data, true)
	}
	n.SetRegionHandler(ConfigRegion, handler("a"))
	write(ConfigRegion, []byte{1})
	n.SetRegionHandler(ConfigRegion, handler("b"))
	write(ConfigRegion, []byte{2})
	for r := uint8(200); r < 205; r++ {
		n.SetRegionHandler(r, handler("spill"))
	}
	for r := uint8(200); r < 205; r++ {
		write(r, nil)
	}
	n.SetRegionHandler(ConfigRegion, nil)
	write(ConfigRegion, []byte{3, 4})
	want := []string{"a:0", "b:0", "spill:200", "spill:201", "spill:202", "spill:203", "spill:204"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("handlers saw %v, want %v", got, want)
	}
	if n.RegionHandler(ConfigRegion) != nil {
		t.Fatal("region 0 still has a handler after a nil registration")
	}
	if replica := n.Cache.Snapshot(ConfigRegion); !bytes.Equal(replica[:2], []byte{3, 4}) {
		t.Fatalf("the unregistered region's write did not reach the replica: % x", replica[:2])
	}

	_, n = loneNode()
	h := handler("h")
	if allocs := alloctest.Count(100, func() {
		for r := range uint8(3) {
			n.SetRegionHandler(r, h)
		}
		_ = n.RegionHandler(9)
		for r := range uint8(3) {
			n.SetRegionHandler(r, nil)
		}
	}); allocs != 0 {
		t.Fatalf("registering three regions, a lookup and unregistering them, 100 times, allocate %d times, want 0", allocs)
	}
	if len(n.handlers) != 0 {
		t.Fatalf("%d regions still listed after every one was unregistered", len(n.handlers))
	}
}
