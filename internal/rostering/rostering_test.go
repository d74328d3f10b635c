package rostering

import (
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
	"repro/internal/frameacct"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// harness builds a full cluster with stations and rostering agents and
// boots them all at t=0.
type harness struct {
	k        *sim.Kernel
	net      *phys.Net
	cluster  *phys.Cluster
	stations []*insertion.Station
	agents   []*Agent
}

func newHarness(nodes, switches int, fiberM float64) *harness {
	h := &harness{k: sim.NewKernel(1)}
	h.net = phys.NewNet(h.k)
	h.cluster = phys.BuildCluster(h.net, nodes, switches, fiberM)
	for i := 0; i < nodes; i++ {
		st := insertion.NewStation(h.k, micropacket.NodeID(i), h.cluster.NodePorts[i])
		h.stations = append(h.stations, st)
		h.agents = append(h.agents, NewAgent(h.k, i, h.cluster, st, fiberM))
	}
	for _, a := range h.agents {
		a := a
		h.k.After(0, func() { a.Start() })
	}
	return h
}

// settle advances the simulation far enough for any rostering round to
// complete (keepalive/watchdog timers run forever, so Run() would not
// return).
func (h *harness) settle() { h.k.RunUntil(h.k.Now() + 5*sim.Millisecond) }

// liveAgents returns agents of nodes that still have at least one live
// link.
func (h *harness) liveAgents() []*Agent {
	var out []*Agent
	for i, a := range h.agents {
		for s := range h.cluster.Switches {
			if h.cluster.NodeLinks[i][s].Up() {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// requireConsistent asserts all live agents adopted equal rosters of
// the wanted size and that every hop is physically live.
func (h *harness) requireConsistent(t *testing.T, wantSize int) *Roster {
	t.Helper()
	live := h.liveAgents()
	if len(live) == 0 {
		t.Fatal("no live agents")
	}
	ref := live[0].Roster()
	if ref == nil {
		t.Fatal("agent 0 never adopted a roster")
	}
	for _, a := range live {
		r := a.Roster()
		if r == nil {
			t.Fatalf("agent %d never adopted", a.ID)
		}
		if !ref.Equal(r) {
			t.Fatalf("inconsistent rosters:\n  %v\n  %v", ref, r)
		}
	}
	if ref.Size() != wantSize {
		t.Fatalf("roster size = %d, want %d (%v)", ref.Size(), wantSize, ref)
	}
	// Physical validity.
	lsdb := map[int]LinkState{}
	for i := range h.stations {
		var m LinkState
		for s := range h.cluster.Switches {
			if h.cluster.NodeLinks[i][s].Up() {
				m |= 1 << s
			}
		}
		lsdb[i] = m
	}
	if !ref.ValidInFabric(lsdb, nil) {
		t.Fatalf("roster uses dead links: %v", ref)
	}
	return ref
}

func TestInitialRosterFormsFullRing(t *testing.T) {
	h := newHarness(6, 4, 50)
	h.settle()
	r := h.requireConsistent(t, 6)
	for i := 0; i < 6; i++ {
		if !r.Contains(i) {
			t.Fatalf("node %d missing from boot roster %v", i, r)
		}
	}
}

func TestDataFlowsOnBootedRing(t *testing.T) {
	h := newHarness(4, 2, 50)
	h.settle()
	got := 0
	h.stations[3].OnDeliver = func(p *micropacket.Packet) { got++ }
	h.stations[0].Send(micropacket.NewData(0, 3, 1, []byte{42}))
	h.settle()
	if got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
}

func TestHealAfterLinkFailure(t *testing.T) {
	h := newHarness(6, 4, 50)
	h.settle()
	// Fail a link the current roster actually uses.
	r := h.agents[0].Roster()
	a := r.Nodes[0]
	via := r.Paths[0][0]
	h.k.After(0, func() { h.cluster.NodeLinks[a][via].Fail() })
	h.settle()
	r2 := h.requireConsistent(t, 6)
	// The new roster must not route node a through the dead switch link.
	for i, n := range r2.Nodes {
		prev := r2.Nodes[(i+len(r2.Nodes)-1)%len(r2.Nodes)]
		if (n == a || prev == a) && r2.Paths[(i+len(r2.Nodes)-1)%len(r2.Nodes)][0] == via && prev == a {
			t.Fatalf("healed roster still uses dead link n%d-s%d: %v", a, via, r2)
		}
	}
}

func TestQuadRedundancySurvivesThreeSwitchFailures(t *testing.T) {
	h := newHarness(6, 4, 50)
	h.settle()
	h.k.After(0, func() { h.cluster.Switches[0].Fail() })
	h.settle()
	h.requireConsistent(t, 6)
	h.k.After(0, func() { h.cluster.Switches[1].Fail() })
	h.settle()
	h.requireConsistent(t, 6)
	h.k.After(0, func() { h.cluster.Switches[2].Fail() })
	h.settle()
	r := h.requireConsistent(t, 6)
	// All hops must now use the sole surviving switch.
	for _, path := range r.Paths {
		if path[0] != 3 {
			t.Fatalf("hop uses failed switch: %v", r)
		}
	}
}

func TestDualRedundancySurvivesOneSwitchFailure(t *testing.T) {
	h := newHarness(4, 2, 50)
	h.settle()
	h.k.After(0, func() { h.cluster.Switches[1].Fail() })
	h.settle()
	h.requireConsistent(t, 4)
}

func TestNodeFailureShrinksRing(t *testing.T) {
	h := newHarness(6, 4, 50)
	h.settle()
	h.k.After(0, func() { h.cluster.FailNode(2) })
	h.settle()
	r := h.requireConsistent(t, 5)
	if r.Contains(2) {
		t.Fatalf("dead node still rostered: %v", r)
	}
}

func TestNodeRejoinGrowsRing(t *testing.T) {
	h := newHarness(5, 2, 50)
	h.settle()
	h.k.After(0, func() { h.cluster.FailNode(4) })
	h.settle()
	h.requireConsistent(t, 4)
	h.k.After(0, func() {
		h.cluster.RestoreNode(4)
	})
	h.settle()
	r := h.requireConsistent(t, 5)
	if !r.Contains(4) {
		t.Fatalf("rejoined node missing: %v", r)
	}
}

// TestCompletionWithinTwoRingTours is slide 16's headline claim: from
// failure detection to the last adoption takes about two ring-tour
// times.
func TestCompletionWithinTwoRingTours(t *testing.T) {
	h := newHarness(8, 4, 1000) // 1 km fiber
	h.settle()

	var failAt sim.Time
	lastAdopt := sim.Time(-1)
	for _, a := range h.agents {
		a := a
		a.OnAdopt = func(*Roster) {
			if h.k.Now() > lastAdopt {
				lastAdopt = h.k.Now()
			}
		}
	}
	h.k.After(sim.Millisecond, func() {
		failAt = h.k.Now()
		h.cluster.Switches[0].Fail()
	})
	h.settle()
	if lastAdopt < 0 {
		t.Fatal("no adoption after failure")
	}
	tour := EstimateTour(8, 1000)
	elapsed := lastAdopt - failAt - h.net.Detect // from detection, like the hardware
	if elapsed > 3*tour {
		t.Fatalf("rostering took %v (= %.2f tours), want ≈2 tours (%v)",
			elapsed, float64(elapsed)/float64(tour), tour)
	}
	if elapsed < tour/2 {
		t.Fatalf("rostering suspiciously fast: %v vs tour %v", elapsed, tour)
	}
}

func TestDataFlowsAfterHeal(t *testing.T) {
	h := newHarness(6, 4, 50)
	h.settle()
	h.k.After(0, func() { h.cluster.Switches[0].Fail() })
	h.settle()
	got := 0
	h.stations[5].OnDeliver = func(p *micropacket.Packet) { got++ }
	h.stations[1].Send(micropacket.NewData(1, 5, 0, []byte{1}))
	h.settle()
	if got != 1 {
		t.Fatalf("post-heal deliveries = %d, want 1", got)
	}
}

func TestEpochMonotone(t *testing.T) {
	h := newHarness(3, 2, 50)
	h.settle()
	e1 := h.agents[0].Epoch()
	h.k.After(0, func() { h.cluster.NodeLinks[1][0].Fail() })
	h.settle()
	if h.agents[0].Epoch() <= e1 {
		t.Fatalf("epoch did not advance: %d → %d", e1, h.agents[0].Epoch())
	}
}

func TestConcurrentFailuresConverge(t *testing.T) {
	h := newHarness(8, 4, 50)
	h.settle()
	h.k.After(0, func() {
		h.cluster.Switches[2].Fail()
		h.cluster.NodeLinks[0][0].Fail()
		h.cluster.NodeLinks[5][1].Fail()
	})
	h.settle()
	h.requireConsistent(t, 8)
}

func TestFailureDuringRostering(t *testing.T) {
	h := newHarness(6, 4, 200)
	h.settle()
	h.k.After(0, func() { h.cluster.Switches[0].Fail() })
	// Second failure lands mid-round (detection is 10µs, settle ~µs).
	h.k.After(15*sim.Microsecond, func() { h.cluster.Switches[1].Fail() })
	h.settle()
	h.requireConsistent(t, 6)
}

// --- BuildRosterFabric unit tests (nil view: a trunkless fabric) ---

func fullMask(switches int) LinkState { return LinkState(1<<switches) - 1 }

func TestBuildRosterAllConnected(t *testing.T) {
	lsdb := map[int]LinkState{}
	for i := 0; i < 6; i++ {
		lsdb[i] = fullMask(4)
	}
	r := BuildRosterFabric(1, lsdb, nil)
	if r.Size() != 6 {
		t.Fatalf("size = %d", r.Size())
	}
	if !r.ValidInFabric(lsdb, nil) {
		t.Fatal("invalid roster")
	}
}

func TestBuildRosterExcludesIsolated(t *testing.T) {
	lsdb := map[int]LinkState{
		0: 0b0001, 1: 0b0001, 2: 0b0001,
		3: 0b0000, // dark node
		4: 0b0010, // lives only on switch 1, unreachable from 0/1/2's ring? it
		// shares no switch with anyone — cannot join.
	}
	r := BuildRosterFabric(1, lsdb, nil)
	if r.Contains(3) {
		t.Fatal("dark node rostered")
	}
	if r.Contains(4) {
		t.Fatal("switch-isolated node rostered")
	}
	if r.Size() != 3 {
		t.Fatalf("size = %d, want 3", r.Size())
	}
}

func TestBuildRosterSingleAndPair(t *testing.T) {
	r := BuildRosterFabric(1, map[int]LinkState{7: 0b1}, nil)
	if r.Size() != 1 || len(r.Paths) != 0 {
		t.Fatalf("singleton: %v", r)
	}
	r = BuildRosterFabric(1, map[int]LinkState{1: 0b01, 2: 0b01}, nil)
	if r.Size() != 2 || len(r.Paths) != 2 {
		t.Fatalf("pair: %v", r)
	}
	if !r.ValidInFabric(map[int]LinkState{1: 0b01, 2: 0b01}, nil) {
		t.Fatal("pair roster invalid")
	}
}

func TestBuildRosterEmpty(t *testing.T) {
	r := BuildRosterFabric(1, map[int]LinkState{}, nil)
	if r.Size() != 0 {
		t.Fatalf("empty lsdb: %v", r)
	}
}

func TestBuildRosterDeterministic(t *testing.T) {
	lsdb := map[int]LinkState{0: 0b11, 1: 0b01, 2: 0b10, 3: 0b11, 4: 0b11}
	a := BuildRosterFabric(9, lsdb, nil)
	for i := 0; i < 20; i++ {
		b := BuildRosterFabric(9, lsdb, nil)
		if !a.Equal(b) {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

// TestBuildRosterPropertyCommonSwitch: if one switch is live at every
// node, the roster must always include every node (the common segment
// guarantees a full ring).
func TestBuildRosterPropertyCommonSwitch(t *testing.T) {
	f := func(masks []uint8) bool {
		if len(masks) == 0 || len(masks) > 32 {
			return true
		}
		lsdb := map[int]LinkState{}
		for i, m := range masks {
			lsdb[i] = LinkState(m) | 0b100 // switch 2 live everywhere
		}
		r := BuildRosterFabric(1, lsdb, nil)
		if r.Size() != len(masks) {
			return false
		}
		return r.ValidInFabric(lsdb, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRosterPropertyAlwaysValid: whatever the masks, the roster
// must only use live common switches.
func TestBuildRosterPropertyAlwaysValid(t *testing.T) {
	f := func(masks []uint8) bool {
		if len(masks) > 40 {
			masks = masks[:40]
		}
		lsdb := map[int]LinkState{}
		for i, m := range masks {
			lsdb[i] = LinkState(m)
		}
		return BuildRosterFabric(1, lsdb, nil).ValidInFabric(lsdb, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRosterNext(t *testing.T) {
	r := &Roster{Nodes: []int{3, 5, 9}, Paths: [][]int{{1}, {0}, {2}}}
	next, via, ok := r.Next(5)
	if !ok || next != 9 || via != 0 {
		t.Fatalf("Next(5) = %d,%d,%v", next, via, ok)
	}
	next, via, ok = r.Next(9) // wraps
	if !ok || next != 3 || via != 2 {
		t.Fatalf("Next(9) = %d,%d,%v", next, via, ok)
	}
	if _, _, ok := r.Next(4); ok {
		t.Fatal("Next of absent node should fail")
	}
}

func TestNewerSeqWraps(t *testing.T) {
	if !newerSeq(1, 0) || newerSeq(0, 1) {
		t.Fatal("basic order")
	}
	if !newerSeq(0, 255) {
		t.Fatal("wrap: 0 is newer than 255")
	}
	if newerSeq(5, 5) {
		t.Fatal("equal is not newer")
	}
}

func TestEstimateTourScales(t *testing.T) {
	t4 := EstimateTour(4, 100)
	t8 := EstimateTour(8, 100)
	if t8 != 2*t4 {
		t.Fatalf("tour should scale linearly with nodes: %v vs %v", t4, t8)
	}
	short := EstimateTour(8, 10)
	long := EstimateTour(8, 2000)
	if long <= short {
		t.Fatal("tour should grow with fiber length")
	}
}

// TestControlFramesAllocateNothing: on a settled ring a duplicate
// announcement is dropped, and the quiescence timer re-armed, without
// allocating — no Timer and no closure per control frame.
func TestControlFramesAllocateNothing(t *testing.T) {
	h := newHarness(4, 2, 50)
	h.settle()
	a := h.agents[0]
	ann := micropacket.Announcement{Origin: 1, Mask: uint8(a.lsdb[1].mask), Epoch: a.epoch, Seq: a.lsdb[1].seq}
	dup := h.net.NewFrame(h.net.Packets.Rostering(1, 0, ann.Payload()))
	port := a.Station.Ports[0]
	before := h.net.Acct.Losses[frameacct.LossDupAnnounce]
	if n := alloctest.Count(100, func() { a.handleControl(port, dup) }); n != 0 {
		t.Errorf("100 duplicate announcements allocate %d times, want 0", n)
	}
	if got := h.net.Acct.Losses[frameacct.LossDupAnnounce] - before; got != 101 {
		t.Fatalf("%d of 101 announcements counted as duplicates", got)
	}
	if n := alloctest.Count(100, a.resetSettle); n != 0 {
		t.Errorf("re-arming the settle timer 100 times allocates %d times, want 0", n)
	}
}
