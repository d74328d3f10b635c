package failover

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ampdk"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// rig boots an n-node cluster with a failover manager on every node and
// one control group spanning all nodes.
type rig struct {
	k     *sim.Kernel
	c     *phys.Cluster
	nodes []*ampdk.Node
	mgrs  []*Manager
	grps  []*Group
}

func newRig(t *testing.T, n int, gcfg GroupConfig) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 2, 50)
	r := &rig{k: k, c: c}
	for i := 0; i < n; i++ {
		nd := ampdk.NewNode(k, c, ampdk.Config{ID: i, Regions: map[uint8]int{1: 4096}})
		r.nodes = append(r.nodes, nd)
		m := NewManager(nd)
		r.mgrs = append(r.mgrs, m)
		r.grps = append(r.grps, m.AddGroup(gcfg))
	}
	for _, nd := range r.nodes {
		nd := nd
		k.After(0, func() { nd.Boot() })
	}
	r.run(20 * sim.Millisecond)
	for i, nd := range r.nodes {
		if !nd.Online() {
			t.Fatalf("node %d not online at rig start", i)
		}
	}
	return r
}

func (r *rig) run(d sim.Time) { r.k.RunUntil(r.k.Now() + d) }

func groupCfg(n int) GroupConfig {
	members := make([]int, n)
	rank := map[int]int{}
	for i := range members {
		members[i] = i
		rank[i] = n - i // node 0 best qualified
	}
	return GroupConfig{
		ID: 1, Members: members, Rank: rank,
		Period: 500 * sim.Microsecond,
		State:  netcache.NewDoubleBuffer(1, 0, 32),
	}
}

func TestInitialPrimaryIsBestQualified(t *testing.T) {
	r := newRig(t, 4, groupCfg(4))
	for i, g := range r.grps {
		if g.Primary() != 0 {
			t.Fatalf("node %d thinks primary = %d", i, g.Primary())
		}
	}
	if !r.grps[0].IsPrimary() || r.grps[1].IsPrimary() {
		t.Fatal("IsPrimary wrong")
	}
}

func TestFailoverToNextQualified(t *testing.T) {
	r := newRig(t, 4, groupCfg(4))
	took := make([]int, 4)
	for i, g := range r.grps {
		i := i
		g.OnTakeover = func(state []byte) { took[i]++ }
	}
	r.k.After(0, func() { r.nodes[0].AppFail() })
	r.run(20 * sim.Millisecond)
	for i := 1; i < 4; i++ {
		if r.grps[i].Primary() != 1 {
			t.Fatalf("node %d: primary = %d, want 1", i, r.grps[i].Primary())
		}
	}
	if took[1] != 1 {
		t.Fatalf("takeovers at node 1 = %d, want 1", took[1])
	}
	if took[2] != 0 && took[3] != 0 {
		t.Fatal("non-elected nodes took over")
	}
}

func TestFailoverLatencyTracksPeriod(t *testing.T) {
	for _, period := range []sim.Time{200 * sim.Microsecond, 2 * sim.Millisecond} {
		cfg := groupCfg(3)
		cfg.Period = period
		r := newRig(t, 3, cfg)
		var failAt, tookAt sim.Time
		r.grps[1].OnTakeover = func([]byte) { tookAt = r.k.Now() }
		r.k.After(0, func() { failAt = r.k.Now(); r.nodes[0].AppFail() })
		r.run(30 * sim.Millisecond)
		if tookAt == 0 {
			t.Fatalf("period %v: no takeover", period)
		}
		lat := tookAt - failAt
		// Latency = detection (≈750µs+tick) + the fail-over period.
		min := period
		max := period + 2*sim.Millisecond
		if lat < min || lat > max {
			t.Fatalf("period %v: failover latency %v outside [%v, %v]", period, lat, min, max)
		}
	}
}

func TestPrimaryReturningWithinPeriodKeepsControl(t *testing.T) {
	cfg := groupCfg(3)
	cfg.Period = 10 * sim.Millisecond // long period
	r := newRig(t, 3, cfg)
	takeovers := 0
	r.grps[1].OnTakeover = func([]byte) { takeovers++ }
	// Fail and recover the primary inside the fail-over period.
	r.k.After(0, func() { r.nodes[0].AppFail() })
	r.k.After(3*sim.Millisecond, func() { r.nodes[0].Reboot() })
	r.run(40 * sim.Millisecond)
	if takeovers != 0 {
		t.Fatalf("takeover happened despite primary returning within period")
	}
	if r.grps[1].Primary() != 0 {
		t.Fatalf("primary = %d, want 0 retained", r.grps[1].Primary())
	}
}

func TestStateSurvivesFailover(t *testing.T) {
	r := newRig(t, 3, groupCfg(3))
	// Primary checkpoints state.
	want := bytes.Repeat([]byte{0x77}, 32)
	r.k.After(0, func() {
		if err := r.grps[0].CheckpointState(want); err != nil {
			t.Error(err)
		}
	})
	r.run(5 * sim.Millisecond)
	var recovered []byte
	r.grps[1].OnTakeover = func(state []byte) { recovered = state }
	r.k.After(0, func() { r.nodes[0].AppFail() })
	r.run(20 * sim.Millisecond)
	if !bytes.Equal(recovered, want) {
		t.Fatalf("recovered state = %v, want checkpoint", recovered)
	}
}

// TestNoDataLossWhenPrimaryDiesMidCheckpoint: the double buffer must
// hand the survivor the last COMMITTED checkpoint even when the crash
// interrupts a checkpoint broadcast halfway.
func TestNoDataLossWhenPrimaryDiesMidCheckpoint(t *testing.T) {
	r := newRig(t, 3, groupCfg(3))
	commit1 := make([]byte, 32)
	binary.LittleEndian.PutUint64(commit1, 111)
	r.k.After(0, func() {
		if err := r.grps[0].CheckpointState(commit1); err != nil {
			t.Error(err)
		}
	})
	r.run(5 * sim.Millisecond)
	// Second checkpoint: crash the primary before the broadcast drains
	// (local apply is immediate; replication is in flight).
	commit2 := make([]byte, 32)
	binary.LittleEndian.PutUint64(commit2, 222)
	r.k.After(0, func() {
		r.grps[0].CheckpointState(commit2)
		r.nodes[0].Crash() // kills links; in-flight updates lost
	})
	var recovered []byte
	r.grps[1].OnTakeover = func(state []byte) { recovered = state }
	r.run(30 * sim.Millisecond)
	if recovered == nil {
		t.Fatal("no takeover")
	}
	got := binary.LittleEndian.Uint64(recovered)
	if got != 111 && got != 222 {
		t.Fatalf("recovered %d — neither committed checkpoint (data loss)", got)
	}
}

func TestCascadingFailover(t *testing.T) {
	r := newRig(t, 4, groupCfg(4))
	r.k.After(0, func() { r.nodes[0].AppFail() })
	r.run(20 * sim.Millisecond)
	r.k.After(0, func() { r.nodes[1].AppFail() })
	r.run(20 * sim.Millisecond)
	for i := 2; i < 4; i++ {
		if r.grps[i].Primary() != 2 {
			t.Fatalf("node %d primary = %d after cascade, want 2", i, r.grps[i].Primary())
		}
	}
}

func TestRankOverridesID(t *testing.T) {
	cfg := groupCfg(3)
	cfg.Rank = map[int]int{0: 1, 1: 5, 2: 9} // node 2 best
	r := newRig(t, 3, cfg)
	// All alive: best qualified is node 2 even though id order favors 0.
	for i, g := range r.grps {
		if g.Primary() != 2 {
			t.Fatalf("node %d primary = %d, want 2", i, g.Primary())
		}
	}
}

func TestOnPrimaryChangeFiresEverywhere(t *testing.T) {
	r := newRig(t, 3, groupCfg(3))
	changed := make([]int, 3)
	for i, g := range r.grps {
		i := i
		g.OnPrimaryChange = func(p int) { changed[i] = p }
	}
	r.k.After(0, func() { r.nodes[0].Crash() })
	r.run(30 * sim.Millisecond)
	for i := 1; i < 3; i++ {
		if changed[i] != 1 {
			t.Fatalf("node %d saw primary change to %d, want 1", i, changed[i])
		}
	}
}

func TestStatelessGroup(t *testing.T) {
	cfg := groupCfg(2)
	cfg.State = netcache.DoubleBuffer{}
	r := newRig(t, 2, cfg)
	var got []byte = []byte{9}
	r.grps[1].OnTakeover = func(state []byte) { got = state }
	r.k.After(0, func() { r.nodes[0].AppFail() })
	r.run(20 * sim.Millisecond)
	if got != nil {
		t.Fatal("stateless group passed state")
	}
}

// TestCrashCancelsPendingElection: an election dies with the node that
// armed it. Node 1 arms its fail-over period when node 0 dies and
// crashes inside it; the election never runs on the offline node.
func TestCrashCancelsPendingElection(t *testing.T) {
	r := newRig(t, 4, groupCfg(4))
	offline := 0
	r.grps[1].OnPrimaryChange = func(int) {
		if !r.nodes[1].Online() {
			offline++
		}
	}
	r.k.After(0, r.nodes[0].Crash)
	for end := r.k.Now() + 20*sim.Millisecond; !r.grps[1].pending.Active(); {
		if r.k.Now() > end {
			t.Fatal("node 1 never armed an election")
		}
		r.run(10 * sim.Microsecond)
	}
	r.nodes[1].Crash()
	r.run(5 * sim.Millisecond)
	if offline != 0 {
		t.Fatalf("offline node 1 changed primary %d times", offline)
	}
}
