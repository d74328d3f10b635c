package ampip

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/micropacket"
	"repro/internal/sim"
)

func TestGather(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	var gathered [][]byte
	completions := 0
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			c.Gather(1, []byte{byte(i), byte(i * 2)}, func(blocks [][]byte) {
				completions++
				if i == 1 {
					gathered = blocks
				} else if blocks != nil {
					t.Errorf("non-root rank %d got blocks", i)
				}
			})
		}
	})
	r.run(10 * sim.Millisecond)
	if completions != 4 {
		t.Fatalf("completions = %d", completions)
	}
	if gathered == nil {
		t.Fatal("root never completed")
	}
	for i, b := range gathered {
		if len(b) != 2 || b[0] != byte(i) || b[1] != byte(i*2) {
			t.Fatalf("block %d = %v", i, b)
		}
	}
}

func TestScatter(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	got := make([][]byte, 4)
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			var slices [][]byte
			if i == 2 { // root
				slices = [][]byte{{10}, {11}, {12}, {13}}
			}
			c.Scatter(2, slices, func(mine []byte) { got[i] = mine })
		}
	})
	r.run(10 * sim.Millisecond)
	for i, b := range got {
		if len(b) != 1 || b[0] != byte(10+i) {
			t.Fatalf("rank %d slice = %v", i, b)
		}
	}
}

func TestScatterThenGatherPipeline(t *testing.T) {
	// The map-reduce shape: scatter work, compute, gather results.
	r := newRig(t, 3)
	cs := comms(r)
	var results [][]byte
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			var slices [][]byte
			if i == 0 {
				slices = [][]byte{{1}, {2}, {3}}
			}
			c.Scatter(0, slices, func(mine []byte) {
				// "Compute": square the work item, then gather.
				out := []byte{mine[0] * mine[0]}
				c.Gather(0, out, func(blocks [][]byte) {
					if i == 0 {
						results = blocks
					}
				})
			})
		}
	})
	r.run(20 * sim.Millisecond)
	if results == nil {
		t.Fatal("gather never completed")
	}
	for i, b := range results {
		want := byte((i + 1) * (i + 1))
		if b[0] != want {
			t.Fatalf("rank %d result = %d, want %d", i, b[0], want)
		}
	}
}

// TestCollectivesSurviveHeal: a barrier and an allreduce issued right
// as a switch dies still complete (retransmission across the roster
// transition).
func TestCollectivesSurviveHeal(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	done := 0
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			c.AllReduceSum(uint64(i), func(total uint64) {
				if total != 6 {
					t.Errorf("total = %d", total)
				}
				c.Barrier(func() { done++ })
			})
		}
	})
	// Kill the ring's switch while the collective traffic is in flight.
	r.k.After(30*sim.Microsecond, func() { r.cluster.Switches[0].Fail() })
	r.run(100 * sim.Millisecond)
	if done != 4 {
		t.Fatalf("completions after heal = %d", done)
	}
	var resends uint64
	for _, c := range cs {
		resends += c.Resends
	}
	if resends == 0 {
		t.Log("no resends needed at this timing (frames survived)")
	}
}

func TestGatherLargeBlocks(t *testing.T) {
	r := newRig(t, 3)
	cs := comms(r)
	big := bytes.Repeat([]byte{0xAB}, 2000)
	var got [][]byte
	r.k.After(0, func() {
		for i, c := range cs {
			i, c := i, c
			c.Gather(0, big, func(blocks [][]byte) {
				if i == 0 {
					got = blocks
				}
			})
		}
	})
	r.run(20 * sim.Millisecond)
	if got == nil {
		t.Fatal("gather incomplete")
	}
	for i, b := range got {
		if !bytes.Equal(b, big) {
			t.Fatalf("block %d corrupted (%d bytes)", i, len(b))
		}
	}
}

// round runs one AllReduceSum and then one Barrier on every rank to
// completion and returns the totals the ranks were given.
func round(t *testing.T, r *rig, cs []*Comm, vals []uint64) []uint64 {
	t.Helper()
	totals := make([]uint64, len(cs))
	reduced, released := 0, 0
	for i, c := range cs {
		c.AllReduceSum(vals[i], func(total uint64) { totals[i] = total; reduced++ })
	}
	r.run(100 * sim.Microsecond)
	for _, c := range cs {
		c.Barrier(func() { released++ })
	}
	r.run(100 * sim.Microsecond)
	if reduced != len(cs) || released != len(cs) {
		t.Fatalf("round incomplete: %d reduced, %d released of %d", reduced, released, len(cs))
	}
	return totals
}

// TestCollectiveRoundAllocations: an op record, its rank tables and its
// retry Timer are reused from op to op, an op builds no closure, and a
// datagram is copied once, into its pooled MicroPacket, so a round on 8
// ranks (28 datagrams) allocates 23 times. 18 are round's own: its
// totals, its counters and a callback per rank and op. Most of the rest
// are dma.keep's copies of the coordinator's releases, still queued when
// the Write that sent them returns. It was 53 with the ops' closures,
// and 310 with a state, three maps, a Timer and three more copies of
// each datagram per op.
func TestCollectiveRoundAllocations(t *testing.T) {
	r := newRig(t, 8)
	cs := comms(r)
	vals := make([]uint64, len(cs))
	round(t, r, cs, vals)
	if n := testing.AllocsPerRun(20, func() { round(t, r, cs, vals) }); n > 23 {
		t.Fatalf("one AllReduceSum + Barrier round on 8 ranks allocates %.0f times, want <= 23", n)
	}
}

// TestCollectiveAllocatesNothing: an op is a pooled record stepped by
// its methods, not a pair of closures, so with its callbacks built once
// an AllReduceSum + Barrier round on 4 ranks allocates nothing — 14 when
// every op built its completion and resend closures.
func TestCollectiveAllocatesNothing(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	reduced, released := 0, 0
	onTotal := func(uint64) { reduced++ }
	onRelease := func() { released++ }
	round := func() {
		for i, c := range cs {
			c.AllReduceSum(uint64(i), onTotal)
		}
		r.run(100 * sim.Microsecond)
		for _, c := range cs {
			c.Barrier(onRelease)
		}
		r.run(100 * sim.Microsecond)
	}
	n := alloctest.Count(20, round) // and one warm-up round
	if reduced != 21*len(cs) || released != 21*len(cs) {
		t.Fatalf("%d reduced, %d released of %d", reduced, released, 21*len(cs))
	}
	if n != 0 {
		t.Fatalf("20 AllReduceSum + Barrier rounds on 4 ranks allocate %d times, want 0", n)
	}
}

// TestHandleDMASingleSegmentAllocatesNothing: a datagram that fits one
// segment is handed to its handler as the packet's own bytes.
func TestHandleDMASingleSegmentAllocatesNothing(t *testing.T) {
	r := newRig(t, 2)
	s := r.stacks[1]
	body := []byte("0123456789")
	var got []byte
	s.Bind(9, func(_ Addr, _ uint16, data []byte) { got = data })
	r.stacks[0].Bind(9, func(_ Addr, _ uint16, data []byte) {})
	// The frame SendTo would build, delivered as its one DMA segment.
	var seg []byte
	r.nodes[0].SetRegionHandler(IPRegion, nil)
	r.nodes[1].SetRegionHandler(IPRegion, func(src micropacket.NodeID, hdr micropacket.DMAHeader, data []byte, last bool) {
		seg = append([]byte(nil), data...)
	})
	r.stacks[0].SendTo(NodeToIP(1), 9, 9, body)
	r.run(sim.Millisecond)
	if len(seg) != dgHeader+len(body) {
		t.Fatalf("captured a %d-byte segment", len(seg))
	}
	arrive := func() { s.handleDMA(0, micropacket.DMAHeader{}, seg, true) }
	arrive()
	if !bytes.Equal(got, body) || &got[0] != &seg[dgHeader] {
		t.Fatal("a single-segment datagram was not handed over as the segment itself")
	}
	if n := alloctest.Count(100, arrive); n != 0 {
		t.Fatalf("100 single-segment arrivals allocate %d times, want 0", n)
	}
}

// TestAllReduceArrivalOrder: the coordinator summed a map in whatever
// order it iterated and sums a rank-indexed table now; the total is the
// same for every order the contributions arrive in — the coordinator's
// own among them, wrap-around included.
func TestAllReduceArrivalOrder(t *testing.T) {
	r := newRig(t, 8)
	cs := comms(r)
	vals := []uint64{1 << 63, 1 << 63, 3, 5, 1<<64 - 1, 7, 11, 13}
	var want uint64
	for _, v := range vals {
		want += v
	}
	rng := sim.NewRNG(21)
	for trial := 0; trial < 24; trial++ {
		order := rng.Perm(len(cs))
		got := make([]uint64, len(cs))
		done := 0
		for slot, rank := range order {
			r.k.After(sim.Time(slot)*5*sim.Microsecond, func() {
				cs[rank].AllReduceSum(vals[rank], func(total uint64) { got[rank] = total; done++ })
			})
		}
		r.run(200 * sim.Microsecond)
		if done != len(cs) {
			t.Fatalf("order %v: %d of %d ranks completed", order, done, len(cs))
		}
		for rank, total := range got {
			if total != want {
				t.Fatalf("order %v: rank %d was given %d, want %d", order, rank, total, want)
			}
		}
	}
}

// refMemory is the coordinator's result memory as the bounded maps kept
// it (commit 2b33355), verbatim: the reference the ring is pinned to.
type refMemory map[uint32]uint64

func (m refMemory) remember(seq uint32, v uint64) {
	if len(m) > completedMemory {
		for s := range m {
			if s+completedMemory < seq {
				delete(m, s)
			}
		}
	}
	m[seq] = v
}

// TestResultRingRemembersWhatTheMapDid: after any number of ops
// completed in order the ring answers for exactly the sequence numbers
// the bounded map held — the latest and the completedMemory before it.
func TestResultRingRemembersWhatTheMapDid(t *testing.T) {
	var ring resultRing
	ref := refMemory{}
	for seq := uint32(0); seq < 3*completedMemory+7; seq++ {
		ring.put(seq, uint64(seq)*3+1)
		ref.remember(seq, uint64(seq)*3+1)
		for s := uint32(0); s <= seq+completedMemory+2; s++ {
			want, held := ref[s]
			got, ok := ring.get(s)
			if ok != held || (ok && got != want) {
				t.Fatalf("after op %d: ring answers op %d with (%d, %v), the map with (%d, %v)", seq, s, got, ok, want, held)
			}
		}
	}
	if _, ok := ring.get(2*completedMemory + 6); !ok {
		t.Fatalf("an op %d behind the latest is forgotten", completedMemory)
	}
	if _, ok := ring.get(2*completedMemory + 5); ok {
		t.Fatalf("an op %d behind the latest is still answered", completedMemory+1)
	}
}

// TestStragglerAnsweredByAge: a contribution retransmitted into an op
// the coordinator completed long ago is answered from memory when the
// op is at most completedMemory behind the latest, and dropped one op
// further back. Either way it leaves no state: the op is finished, so
// the message is not an early arrival.
func TestStragglerAnsweredByAge(t *testing.T) {
	r := newRig(t, 2)
	cs := comms(r)
	const ops = completedMemory + 40
	vals := []uint64{2, 3}
	for i := 0; i < ops; i++ {
		round(t, r, cs, vals)
	}
	latest := uint32(ops - 1)
	straggle := func(kind uint8, seq uint32) (answered bool) {
		msg := []byte{kind, 0, 0, 0, 0, 0, 1, 0, partContrib, 0, 0, 0, 0, 0, 0, 0, 3}
		binary.BigEndian.PutUint32(msg[1:5], seq)
		before := cs[0].Stack.Sent
		cs[0].recv(0, 0, msg)
		return cs[0].Stack.Sent == before+1
	}
	for _, tc := range []struct {
		age  uint32
		want bool
	}{{0, true}, {1, true}, {completedMemory - 1, true}, {completedMemory, true}, {completedMemory + 1, false}, {completedMemory + 30, false}} {
		for _, kind := range []uint8{kindBarrier, kindReduce} {
			if got := straggle(kind, latest-tc.age); got != tc.want {
				t.Errorf("kind %d, op %d behind the latest: answered = %v, want %v", kind, tc.age, got, tc.want)
			}
		}
	}
	if n := len(cs[0].ops); n != 0 {
		t.Fatalf("the stragglers left %d op states at the coordinator, want 0", n)
	}
}

// TestRecvStoresNothingForBadOrFinishedOps: a message for no kind, part
// or rank, a reduce value cut short, and a message for an op this rank
// has finished neither open a state nor panic. Only a payload or block
// sent again is answered: its sender retries until acknowledged.
func TestRecvStoresNothingForBadOrFinishedOps(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	round(t, r, cs, []uint64{1, 2, 3, 4})
	var got [][]byte
	cs[1].Bcast(0, nil, func([]byte) {})
	cs[0].Bcast(0, []byte{7}, func(b []byte) { got = append(got, b) })
	for _, c := range cs[2:] {
		c.Bcast(0, nil, func([]byte) {})
	}
	r.run(100 * sim.Microsecond)
	if len(got) != 1 {
		t.Fatal("the bcast did not complete")
	}
	msg := func(kind uint8, seq uint32, from, part uint16, body ...byte) []byte {
		m := binary.BigEndian.AppendUint32([]byte{kind}, seq)
		m = binary.BigEndian.AppendUint16(m, from)
		m = binary.BigEndian.AppendUint16(m, part)
		return append(m, body...)
	}
	for _, tc := range []struct {
		name   string
		rank   int
		msg    []byte
		answer bool
	}{
		{"no such rank", 1, msg(kindBarrier, 1, 4, partContrib), false},
		{"no such kind", 1, msg(numKinds, 0, 0, partContrib), false},
		{"no such part", 1, msg(kindBarrier, 1, 0, partAck+1), false},
		{"short reduce contribution", 0, msg(kindReduce, 1, 1, partContrib, 1), false},
		{"empty reduce result", 1, msg(kindReduce, 1, 0, partRelease), false},
		{"release of a finished barrier", 1, msg(kindBarrier, 0, 0, partRelease), false},
		{"result of a finished reduce", 2, msg(kindReduce, 0, 0, partRelease, 0, 0, 0, 0, 0, 0, 0, 10), false},
		{"ack of a finished bcast", 0, msg(kindBcast, 0, 3, partAck), false},
		{"payload of a finished bcast", 3, msg(kindBcast, 0, 0, partContrib, 7), true},
	} {
		c := cs[tc.rank]
		sent := c.Stack.Sent
		c.recv(0, 0, tc.msg)
		if n := len(c.ops); n != 0 {
			t.Errorf("%s: rank %d holds %d op states, want 0", tc.name, tc.rank, n)
		}
		if answered := c.Stack.Sent > sent; answered != tc.answer {
			t.Errorf("%s: answered = %v, want %v", tc.name, answered, tc.answer)
		}
		clear(c.ops)
	}
}

// TestCrashAbortsCollectiveOps: a collective op dies with the rank that
// issued it. While the node is down nothing is re-sent for it, and after
// the reboot, when the other ranks join the op, the dead incarnation's
// callback never runs.
func TestCrashAbortsCollectiveOps(t *testing.T) {
	r := newRig(t, 4)
	cs := comms(r)
	ran := false
	r.k.After(0, func() {
		cs[3].AllReduceSum(1, func(uint64) { ran = true })
		r.nodes[3].Crash()
	})
	r.run(20 * sim.Millisecond)
	resends := cs[3].Resends
	r.run(20 * sim.Millisecond)
	if cs[3].Resends != resends {
		t.Fatalf("a crashed rank re-sent: %d resends, then %d 20 ms later", resends, cs[3].Resends)
	}
	r.k.After(0, r.nodes[3].Reboot)
	r.run(40 * sim.Millisecond)
	if !r.nodes[3].Online() {
		t.Fatal("node 3 did not come back")
	}
	r.k.After(0, func() {
		for _, c := range cs[:3] {
			c.AllReduceSum(1, func(uint64) {})
		}
	})
	r.run(20 * sim.Millisecond)
	if ran {
		t.Fatal("the crashed incarnation's callback ran after the reboot")
	}
}
