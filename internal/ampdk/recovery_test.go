package ampdk

import (
	"bytes"
	"testing"

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
	copy(n3.Cache.Region(1), make([]byte, 1024)) // wipe
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
	// Frames lost on the cache channel show as DMA sequence gaps.
	before := nodes[3].AutoRecoveries
	k.After(0, func() { nodes[3].DMA.Gaps += 5 })
	run(k, 10*sim.Millisecond)
	if nodes[3].AutoRecoveries == before {
		t.Fatal("gaps after the reboot never triggered auto-recovery")
	}
}

// TestRebootAdoptsDMAStreams: a rebooted node has heard nothing of the
// streams that moved while it was down, so the first frame of each
// stream after the reboot sets what it expects next there. Keeping the
// crashed incarnation's expectations, it counted that frame as a gap,
// and so did a node that had adopted the source on another channel.
func TestRebootAdoptsDMAStreams(t *testing.T) {
	k, _, nodes := bootCluster(4, 2, nil)
	run(k, 20*sim.Millisecond)
	got := 0
	nodes[3].RegionHandler[200] = func(micropacket.NodeID, micropacket.DMAHeader, []byte, bool) { got++ }
	write := func() { nodes[0].DMA.Write(3, 3, 200, 0, []byte{1}, nil) }
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
		t.Fatalf("node 3 received %d writes, want the one before the crash and the one after the reboot", got)
	}
	if n := nodes[3].DMA.Gaps - gaps; n != 0 {
		t.Fatalf("the first frame on channel 3 after the reboot counted %d gaps", n)
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
