package ampdk

import (
	"bytes"
	"testing"

	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// cluster builds n nodes × s switches, boots all nodes at t=0, and
// returns them with the kernel.
func bootCluster(n, s int, cfg func(i int) Config) (*sim.Kernel, *phys.Cluster, []*Node) {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, s, 50)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		conf := Config{ID: i}
		if cfg != nil {
			conf = cfg(i)
			conf.ID = i
		}
		nodes[i] = NewNode(k, c, conf)
	}
	for _, nd := range nodes {
		nd := nd
		k.After(0, func() { nd.Boot() })
	}
	return k, c, nodes
}

func run(k *sim.Kernel, d sim.Time) { k.RunUntil(k.Now() + d) }

// records lays out count consecutive records of size data bytes from
// offset 0 of region 1.
func records(size, count int) []netcache.Record {
	out := make([]netcache.Record, count)
	for i := range out {
		out[i] = netcache.Record{Region: 1, Off: uint32(i * (size + netcache.RecordOverhead)), Size: size}
	}
	return out
}

func TestClusterBootsAllOnline(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, nil)
	run(k, 20*sim.Millisecond)
	for i, nd := range nodes {
		if !nd.Online() {
			t.Fatalf("node %d state = %v after boot window", i, nd.State)
		}
	}
	// Exactly one founder (the lowest id), others assimilated via a
	// sponsor refresh.
	if nodes[0].RefreshedB != 0 {
		t.Fatal("founder should not receive a refresh")
	}
	refreshed := 0
	for _, nd := range nodes[1:] {
		if nd.RefreshedB > 0 {
			refreshed++
		}
	}
	if refreshed != 3 {
		t.Fatalf("refreshed nodes = %d, want 3", refreshed)
	}
}

func TestConfigDBReplicated(t *testing.T) {
	k, _, nodes := bootCluster(3, 2, nil)
	run(k, 20*sim.Millisecond)
	for i, nd := range nodes {
		info := nd.ReadConfigDB()
		if !info.Founded {
			t.Fatalf("node %d has no config DB", i)
		}
		if info.Nodes != 3 || info.Switches != 2 {
			t.Fatalf("node %d config = %+v", i, info)
		}
	}
}

func TestHeartbeatsSeen(t *testing.T) {
	k, _, nodes := bootCluster(3, 2, nil)
	run(k, 20*sim.Millisecond)
	for i, nd := range nodes {
		online := nd.OnlinePeerIDs()
		if len(online) != 3 {
			t.Fatalf("node %d sees %v online, want all 3", i, online)
		}
	}
}

func TestVersionRejection(t *testing.T) {
	k, _, nodes := bootCluster(3, 2, func(i int) Config {
		v := Version(0x0100)
		if i == 2 {
			v = 0x0200 // incompatible major
		}
		return Config{Version: v}
	})
	run(k, 30*sim.Millisecond)
	if !nodes[0].Online() || !nodes[1].Online() {
		t.Fatal("compatible nodes should be online")
	}
	if nodes[2].State != StateRejected {
		t.Fatalf("incompatible node state = %v, want rejected", nodes[2].State)
	}
	if nodes[0].Rejections == 0 {
		t.Fatal("sponsor counted no rejection")
	}
}

func TestCompatibleMinorVersionsJoin(t *testing.T) {
	k, _, nodes := bootCluster(2, 2, func(i int) Config {
		return Config{Version: Version(0x0100 + uint16(i))} // 1.0 and 1.1
	})
	run(k, 20*sim.Millisecond)
	for i, nd := range nodes {
		if !nd.Online() {
			t.Fatalf("node %d (minor version skew) not online", i)
		}
	}
}

func TestCacheRefreshCarriesState(t *testing.T) {
	// Boot node 0 alone, write app state, then boot node 1; it must
	// receive the state via refresh.
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, 2, 2, 50)
	mk := func(i int) *Node {
		return NewNode(k, c, Config{ID: i, Regions: map[uint8]int{1: 1024}})
	}
	n0 := mk(0)
	n1 := mk(1)
	k.After(0, func() { n0.Boot() })
	run(k, 10*sim.Millisecond)
	if !n0.Online() {
		t.Fatal("founder not online")
	}
	rec := netcache.Record{Region: 1, Off: 100, Size: 32}
	want := bytes.Repeat([]byte{0x5C}, 32)
	if err := n0.CacheW.WriteRecord(rec, want); err != nil {
		t.Fatal(err)
	}
	run(k, sim.Millisecond)

	k.After(0, func() { n1.Boot() })
	run(k, 30*sim.Millisecond)
	if !n1.Online() {
		t.Fatalf("joiner state = %v", n1.State)
	}
	got, ok := n1.Cache.TryRead(rec)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("refreshed state wrong: ok=%v", ok)
	}
	if n1.RefreshedB == 0 {
		t.Fatal("no refresh bytes counted")
	}
	if n0.Sponsored != 1 {
		t.Fatalf("sponsor count = %d", n0.Sponsored)
	}
}

func TestLiveWritesDuringAssimilationNotLost(t *testing.T) {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, 3, 2, 50)
	var nodes []*Node
	for i := 0; i < 3; i++ {
		nodes = append(nodes, NewNode(k, c, Config{ID: i, Regions: map[uint8]int{1: 8192}}))
	}
	k.After(0, func() { nodes[0].Boot() })
	k.After(0, func() { nodes[1].Boot() })
	run(k, 20*sim.Millisecond)

	// Node 0 keeps writing records while node 2 assimilates.
	recs := records(16, 20)
	i := 0
	var writer func()
	writer = func() {
		if i < len(recs) {
			val := bytes.Repeat([]byte{byte(i + 1)}, 16)
			if err := nodes[0].CacheW.WriteRecord(recs[i], val); err != nil {
				t.Error(err)
			}
			i++
			k.After(300*sim.Microsecond, writer)
		}
	}
	k.After(0, writer)
	k.After(500*sim.Microsecond, func() { nodes[2].Boot() })
	run(k, 60*sim.Millisecond)

	if !nodes[2].Online() {
		t.Fatalf("joiner state = %v", nodes[2].State)
	}
	for j, r := range recs {
		got, ok := nodes[2].Cache.TryRead(r)
		if !ok {
			t.Fatalf("record %d torn at joiner", j)
		}
		want := bytes.Repeat([]byte{byte(j + 1)}, 16)
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d lost during assimilation: got %v", j, got[:4])
		}
	}
}

func TestPeerDownDetectionLatency(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, nil)
	run(k, 20*sim.Millisecond)
	var detectedAt sim.Time = -1
	var failAt sim.Time
	nodes[0].OnPeerDown = func(id int) {
		if id == 2 && detectedAt < 0 {
			detectedAt = k.Now()
		}
	}
	k.After(0, func() {
		failAt = k.Now()
		nodes[2].AppFail()
	})
	run(k, 20*sim.Millisecond)
	if detectedAt < 0 {
		t.Fatal("failure never detected")
	}
	lat := detectedAt - failAt
	// Paper: "millisecond application failure detection". Default
	// config: 3 × 250 µs window plus one detection-loop tick.
	if lat > 2*sim.Millisecond {
		t.Fatalf("detection latency %v, want ≤ ~1ms class", lat)
	}
	if lat < 500*sim.Microsecond {
		t.Fatalf("detection latency %v suspiciously fast", lat)
	}
}

func TestPeerUpAfterReboot(t *testing.T) {
	k, _, nodes := bootCluster(3, 2, nil)
	run(k, 20*sim.Millisecond)
	ups := 0
	nodes[0].OnPeerUp = func(id int) {
		if id == 1 {
			ups++
		}
	}
	k.After(0, func() { nodes[1].Crash() })
	run(k, 20*sim.Millisecond)
	k.After(0, func() { nodes[1].Reboot() })
	run(k, 40*sim.Millisecond)
	if !nodes[1].Online() {
		t.Fatalf("rebooted node state = %v", nodes[1].State)
	}
	if ups == 0 {
		t.Fatal("peer-up never fired after reboot")
	}
}

func TestAppMessages(t *testing.T) {
	k, _, nodes := bootCluster(3, 2, nil)
	run(k, 20*sim.Millisecond)
	var got []uint8
	nodes[2].OnMessage = func(src micropacket.NodeID, tag uint8, pl [8]byte) {
		got = append(got, pl[0])
	}
	k.After(0, func() {
		nodes[0].SendMessage(2, TagApp+1, []byte{11})
		nodes[0].SendMessage(2, TagApp+1, []byte{22})
	})
	run(k, 5*sim.Millisecond)
	if len(got) != 2 || got[0] != 11 || got[1] != 22 {
		t.Fatalf("messages = %v", got)
	}
}

func TestAppTagRangeEnforced(t *testing.T) {
	k, _, nodes := bootCluster(2, 2, nil)
	run(k, 10*sim.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("kernel tag accepted as app message")
		}
	}()
	nodes[0].SendMessage(1, TagHeartbeat, nil)
}

func TestInterrupt(t *testing.T) {
	k, _, nodes := bootCluster(2, 2, nil)
	run(k, 20*sim.Millisecond)
	var vec uint8
	nodes[1].OnInterrupt = func(src micropacket.NodeID, v uint8) { vec = v }
	k.After(0, func() { nodes[0].Interrupt(1, 42) })
	run(k, 5*sim.Millisecond)
	if vec != 42 {
		t.Fatalf("vector = %d", vec)
	}
}

func TestPing(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, nil)
	run(k, 20*sim.Millisecond)
	var rtt sim.Time = -1
	k.After(0, func() { nodes[0].Ping(2, func(d sim.Time) { rtt = d }) })
	run(k, 5*sim.Millisecond)
	if rtt <= 0 {
		t.Fatal("no pong")
	}
	if rtt > sim.Millisecond {
		t.Fatalf("rtt = %v on a 50m ring", rtt)
	}
}

func TestSemaphoresAcrossKernel(t *testing.T) {
	k, _, nodes := bootCluster(3, 2, nil)
	run(k, 20*sim.Millisecond)
	acquired := false
	k.After(0, func() {
		nodes[2].Sem.Lock(9, func() { acquired = true })
	})
	run(k, 10*sim.Millisecond)
	if !acquired {
		t.Fatal("lock via kernel wiring failed")
	}
}

// TestCrashAbortsSemaphoreOps: a semaphore operation dies with the host
// that issued it. While the node is down nothing retries it, and after
// the reboot the dead incarnation's callback never runs.
func TestCrashAbortsSemaphoreOps(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, nil)
	run(k, 20*sim.Millisecond)
	n3 := nodes[3]
	ran := false
	k.After(0, func() {
		n3.Sem.Op(5, micropacket.OpFetchAdd, 1, func(uint64) { ran = true })
		n3.Crash()
	})
	run(k, 20*sim.Millisecond)
	retries := n3.Sem.Retries
	run(k, 20*sim.Millisecond)
	if n3.Sem.Retries != retries {
		t.Fatalf("a crashed node retried: %d retries, then %d 20 ms later", retries, n3.Sem.Retries)
	}
	k.After(0, n3.Reboot)
	run(k, 40*sim.Millisecond)
	if !n3.Online() {
		t.Fatal("node 3 did not come back")
	}
	if ran {
		t.Fatal("the crashed incarnation's callback ran after the reboot")
	}
}

func TestCrashHealsRingAndServicesContinue(t *testing.T) {
	k, _, nodes := bootCluster(5, 4, nil)
	run(k, 20*sim.Millisecond)
	k.After(0, func() { nodes[3].Crash() })
	run(k, 30*sim.Millisecond)
	// Ring healed without node 3.
	r := nodes[0].Agent.Roster()
	if r == nil || r.Contains(3) || r.Size() != 4 {
		t.Fatalf("post-crash roster: %v", r)
	}
	// Messaging still works across the healed ring.
	got := 0
	nodes[4].OnMessage = func(micropacket.NodeID, uint8, [8]byte) { got++ }
	k.After(0, func() { nodes[0].SendMessage(4, TagApp+2, []byte{1}) })
	run(k, 10*sim.Millisecond)
	if got != 1 {
		t.Fatalf("post-crash message deliveries = %d", got)
	}
}

func TestVersionHelpers(t *testing.T) {
	if Version(0x0102).Major() != 1 {
		t.Fatal("major extraction")
	}
	if !Compatible(0x0100, 0x0105) || Compatible(0x0100, 0x0200) {
		t.Fatal("compatibility rule")
	}
}

func TestStateString(t *testing.T) {
	for s := StateOffline; s <= StateRejected; s++ {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
	if State(99).String() == "" {
		t.Fatal("unknown state string")
	}
}
