package ampdk

import (
	"bytes"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/sim"
)

// TestSmartRecoveryAfterLoss: updates lost in a ring transition are
// restored by an explicit region refresh (slide 18's "smart data
// recovery").
func TestSmartRecoveryAfterLoss(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, func(i int) Config {
		return Config{Regions: map[uint8]int{1: 4096}}
	})
	run(k, 20*sim.Millisecond)

	// Detach node 3's MAC silently (simulates the window where a
	// transition loses frames without taking links dark): updates
	// broadcast now will not reach it... we emulate by writing records
	// directly while node 3's egress path drops transit via a cut that
	// rostering will heal.
	recs := records(16, 8)
	writeAll := func(val byte) {
		for _, r := range recs {
			if err := nodes[0].CacheW.WriteRecord(r, bytes.Repeat([]byte{val}, 16)); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.After(0, func() { writeAll(1) })
	run(k, 5*sim.Millisecond)

	// Corrupt node 3's replica to model lost updates (the transport
	// gap), then recover via refresh.
	n3 := nodes[3]
	n3.Cache.Apply(1, 0, make([]byte, 1024)) // wipe
	if _, ok := n3.Cache.TryRead(recs[0]); ok {
		// wiped counters read as version 0 with zero data — "ok" but stale
	}
	k.After(0, func() { n3.RequestRefresh(1) })
	run(k, 20*sim.Millisecond)

	for i, r := range recs {
		got, ok := n3.Cache.TryRead(r)
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{1}, 16)) {
			t.Fatalf("record %d not recovered: %v ok=%v", i, got[:2], ok)
		}
	}
	if n3.RefreshReqs != 1 {
		t.Fatalf("refresh requests = %d", n3.RefreshReqs)
	}
	served := nodes[0].RefreshServed
	if served != 1 {
		t.Fatalf("sponsor served = %d", served)
	}
}

// TestAutoRecoveryTriggersOnGaps: DMA gaps observed after a heal cause
// an automatic refresh round.
func TestAutoRecoveryTriggersOnGaps(t *testing.T) {
	k, c, nodes := bootCluster(4, 2, func(i int) Config {
		return Config{Regions: map[uint8]int{1: 2048}}
	})
	for _, nd := range nodes {
		nd.EnableAutoRecovery(2 * sim.Millisecond)
	}
	run(k, 20*sim.Millisecond)

	// Continuous cache writes while a switch dies: some updates are in
	// flight during the transition and are lost at some replicas,
	// producing sequence gaps there.
	rec := netcache.Record{Region: 1, Off: 0, Size: 16}
	i := byte(0)
	var tick func()
	tick = func() {
		i++
		nodes[0].CacheW.WriteRecord(rec, bytes.Repeat([]byte{i}, 16))
		if i < 200 {
			k.After(20*sim.Microsecond, tick)
		}
	}
	k.After(0, tick)
	k.After(500*sim.Microsecond, func() { c.Switches[0].Fail() })
	run(k, 60*sim.Millisecond)

	var gaps, recoveries uint64
	for _, nd := range nodes {
		gaps += nd.DMA.Gaps
		recoveries += nd.AutoRecoveries
	}
	if gaps == 0 {
		t.Skip("transition lost no frames at this timing; nothing to recover")
	}
	if recoveries == 0 {
		t.Fatal("gaps observed but auto-recovery never triggered")
	}
	// After recovery, every replica converges to the final record.
	want := bytes.Repeat([]byte{200}, 16)
	for id, nd := range nodes {
		got, ok := nd.Cache.TryRead(rec)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("node %d not converged: %v ok=%v", id, got[:2], ok)
		}
	}
}

// TestAutoRecoverySurvivesCrash: auto-recovery is the node's own timer.
// Enabling it twice leaves one check queued, not two; a crash stops it
// and the reboot re-arms it, so gaps seen after the reboot are answered.
func TestAutoRecoverySurvivesCrash(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, func(i int) Config {
		return Config{Regions: map[uint8]int{1: 2048}}
	})
	for _, nd := range nodes {
		nd.EnableAutoRecovery(2 * sim.Millisecond)
	}
	queued := k.Pending()
	nodes[1].EnableAutoRecovery(2 * sim.Millisecond)
	if k.Pending() != queued {
		t.Fatalf("a second EnableAutoRecovery queued %d more events", k.Pending()-queued)
	}
	run(k, 20*sim.Millisecond)
	k.After(0, nodes[3].Crash)
	run(k, 5*sim.Millisecond)
	k.After(0, nodes[3].Reboot)
	run(k, 40*sim.Millisecond)
	if !nodes[3].Online() {
		t.Fatal("node 3 did not come back")
	}
	// A cache write lost on its way to node 3 shows there as a gap on
	// the cache channel when the next one arrives.
	before := nodes[3].AutoRecoveries
	dropCacheWrites(nodes[3], 1)
	rec := records(16, 1)[0]
	for val := range byte(2) {
		k.After(0, func() {
			if err := nodes[0].CacheW.WriteRecord(rec, bytes.Repeat([]byte{val}, 16)); err != nil {
				t.Error(err)
			}
		})
		run(k, sim.Millisecond)
	}
	run(k, 10*sim.Millisecond)
	if nodes[3].AutoRecoveries == before {
		t.Fatal("gaps after the reboot never triggered auto-recovery")
	}
}

// dropCacheWrites makes nd's station discard the next n CacheChannel
// segments that reach it.
func dropCacheWrites(nd *Node, n int) {
	deliver := nd.Station.OnDeliver
	nd.Station.OnDeliver = func(p *micropacket.Packet) {
		if n > 0 && p.Type == micropacket.TypeDMA && p.DMA.Channel == CacheChannel {
			n--
			return
		}
		deliver(p)
	}
}

// TestRebootAdoptsDMAStreams: a rebooted node has heard nothing of the
// broadcast streams that moved while it was down, so the first
// broadcast of each after the reboot sets what it expects next there.
// Node 0 broadcasts on channel 3 before node 3 crashes, while it is
// down and after it reboots. Keeping the crashed incarnation's
// expectation (Boot without ForgetSources), node 3 counted the first
// broadcast after the reboot as a gap: the one it missed was lost to
// the node, not to the ring.
func TestRebootAdoptsDMAStreams(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, nil)
	run(k, 20*sim.Millisecond)
	got := 0
	nodes[3].SetRegionHandler(200, func(micropacket.NodeID, micropacket.DMAHeader, []byte, bool) { got++ })
	write := func() { nodes[0].DMA.Write(3, micropacket.Broadcast, 200, 0, []byte{1}, nil) }
	k.After(0, write)
	run(k, sim.Millisecond)
	k.After(0, nodes[3].Crash)
	k.After(0, write) // lost with node 3
	run(k, 5*sim.Millisecond)
	k.After(0, nodes[3].Reboot)
	run(k, 40*sim.Millisecond)
	if !nodes[3].Online() {
		t.Fatal("node 3 did not come back")
	}
	gaps := nodes[3].DMA.Gaps
	k.After(0, write)
	run(k, sim.Millisecond)
	if got != 2 {
		t.Fatalf("node 3 received %d broadcasts, want the one before the crash and the one after the reboot", got)
	}
	if n := nodes[3].DMA.Gaps - gaps; n != 0 {
		t.Fatalf("the first broadcast on channel 3 after the reboot counted %d gaps", n)
	}
}

// TestRefreshReqToSelfIsNoop: the sponsor asking itself does nothing.
func TestRefreshReqToSelfIsNoop(t *testing.T) {
	k, _, nodes := bootCluster(2, 2, nil)
	run(k, 15*sim.Millisecond)
	nodes[0].RequestRefresh(0) // node 0 is its own sponsor
	run(k, 5*sim.Millisecond)
	if nodes[0].RefreshReqs != 0 {
		t.Fatal("self-refresh should be a no-op")
	}
}

// TestRefreshUnknownRegionIgnored: refresh requests for absent regions
// are dropped without effect.
func TestRefreshUnknownRegionIgnored(t *testing.T) {
	k, _, nodes := bootCluster(2, 2, nil)
	run(k, 15*sim.Millisecond)
	nodes[1].RequestRefresh(99)
	run(k, 5*sim.Millisecond)
	if nodes[0].RefreshServed != 0 {
		t.Fatal("unknown region served")
	}
}

// TestRestreamAllocatesNothing: a region refresh streams the sponsor's
// snapshot of the region, made once per version and queued uncopied,
// so streaming it again with no write between allocates nothing. It
// was a 4 KiB copy a stream, kept in the refresh channel's slab.
func TestRestreamAllocatesNothing(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, func(int) Config {
		return Config{Regions: map[uint8]int{1: 4096}}
	})
	run(k, 20*sim.Millisecond)
	req := micropacket.NewData(3, 0, TagRefreshReq, []byte{1})
	stream := func() {
		nodes[0].handleRefreshReq(req)
		run(k, sim.Millisecond)
	}
	applied := nodes[3].Cache.Applied
	if n := alloctest.Count(10, stream); n != 0 {
		t.Fatalf("streaming region 1 ten times more allocates %d times, want 0", n)
	}
	if got := nodes[3].Cache.Applied - applied; got != 11*64 {
		t.Fatalf("node 3 applied %d refresh segments, want 11 streams of 64", got)
	}
}

// TestBufferedWritesReplayInOrder: cache writes that reach a node while
// it assimilates are held back, payloads packed in one slab, and
// applied in arrival order once it is online. Node 0 rewrites one
// record every 10 µs while node 3 assimilates after a reboot, until
// node 3 holds eight segments back, so its last value reaches node 3 only
// through the buffer, behind the values it replaced; node 3 ends with
// node 0's bytes.
func TestBufferedWritesReplayInOrder(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, func(int) Config {
		return Config{Regions: map[uint8]int{1: 1024}}
	})
	run(k, 20*sim.Millisecond)
	k.After(0, nodes[3].Crash)
	run(k, 5*sim.Millisecond)
	n3 := nodes[3]
	rec := records(16, 1)[0]
	held := 0
	k.After(0, n3.Reboot)
	for i := range 2000 {
		k.After(sim.Time(i)*10*sim.Microsecond, func() {
			held = max(held, len(n3.buffered))
			if n3.State != StateAssimilating || held >= 8 {
				return
			}
			if err := nodes[0].CacheW.WriteRecord(rec, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
				t.Error(err)
			}
		})
	}
	run(k, 40*sim.Millisecond)
	if !n3.Online() {
		t.Fatal("node 3 did not come back")
	}
	if held < 8 {
		t.Fatalf("node 3 held back %d writes while assimilating; the rig needs 8", held)
	}
	for _, id := range []uint8{ConfigRegion, 1} {
		if !bytes.Equal(n3.Cache.Snapshot(id), nodes[0].Cache.Snapshot(id)) {
			t.Fatalf("node 3's region %d differs from node 0's", id)
		}
	}
}
