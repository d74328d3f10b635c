package ampdk

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

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
		max  float64
	}{
		{"noteHeartbeat", func() { n.noteHeartbeat(hb) }, 0},
		{"detectLoop", n.detectLoop, 0},
		{"heartbeatLoop", n.heartbeatLoop, 1},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got > tc.max {
			t.Errorf("%s allocates %.0f times, want <= %.0f", tc.name, got, tc.max)
		}
	}
}
