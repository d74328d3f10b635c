package frameacct_test

import (
	"testing"

	"repro/internal/enc8b10b"
	"repro/internal/frameacct"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/rostering"
	"repro/internal/sim"
)

// This file is the reachability property for the loss taxonomy: every
// LossCause in the closed enum is produced by at least one concrete
// scenario. The external test package lets it drive the real layers
// (phys, insertion, rostering) that own the death sites; the closure
// loop at the bottom fails the moment a new cause is added without a
// scenario here, so the taxonomy cannot silently grow untestable
// entries.

// rig is one scenario's world: a kernel, a Net, and (when the scenario
// needs a fabric) a cluster built on it.
type rig struct {
	k   *sim.Kernel
	net *phys.Net
	c   *phys.Cluster
}

func newRig(topo *phys.Topology) *rig {
	r := &rig{k: sim.NewKernel(1)}
	r.net = phys.NewNet(r.k)
	if topo != nil {
		c, err := phys.BuildFabric(r.net, *topo)
		if err != nil {
			panic(err)
		}
		r.c = c
	}
	return r
}

func (r *rig) run(d sim.Time) { r.k.RunUntil(r.k.Now() + d) }

// ledger reads the Net's ledger the way every reader must: settled.
func (r *rig) ledger() *frameacct.Acct {
	a := r.net.Ledger()
	return &a
}

func dataPkt(src, dst micropacket.NodeID) *micropacket.Packet {
	return micropacket.NewData(src, dst, 1, []byte{0xAB})
}

// rosteringPkt builds origin's announcement on switch 0.
func rosteringPkt(origin micropacket.NodeID, epoch uint32, seq uint8) *micropacket.Packet {
	ann := micropacket.Announcement{Origin: origin, Mask: 0x01, Epoch: epoch, Seq: seq}
	return micropacket.NewRostering(origin, 0, ann.Payload())
}

// lossScenarios maps every cause to the smallest setup that produces
// it. Each returns the Acct whose counter must have moved.
var lossScenarios = map[frameacct.LossCause]func() *frameacct.Acct{
	frameacct.LossDarkPort: func() *frameacct.Acct {
		r := newRig(nil)
		p := r.net.NewPort("orphan", nil)
		p.Send(r.net.NewFrame(dataPkt(0, 1)))
		return r.ledger()
	},
	frameacct.LossFifoFull: func() *frameacct.Acct {
		r := newRig(nil)
		a, b := r.net.NewPort("a", nil), r.net.NewPort("b", func(*phys.Port, phys.Frame) {})
		r.net.Connect(a, b, 50)
		a.SetCapacity(1)
		a.Send(r.net.NewFrame(dataPkt(0, 1)))
		a.Send(r.net.NewFrame(dataPkt(0, 1))) // FIFO holds the serializing head; this one overflows
		return r.ledger()
	},
	frameacct.LossFifoClear: func() *frameacct.Acct {
		r := newRig(nil)
		a, b := r.net.NewPort("a", nil), r.net.NewPort("b", func(*phys.Port, phys.Frame) {})
		l := r.net.Connect(a, b, 50)
		for i := 0; i < 3; i++ {
			a.Send(r.net.NewFrame(dataPkt(0, 1)))
		}
		l.Fail() // the serializing head dies as link_cut; the two queued behind it as fifo_clear
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossLinkCut: func() *frameacct.Acct {
		r := newRig(nil)
		a, b := r.net.NewPort("a", nil), r.net.NewPort("b", func(*phys.Port, phys.Frame) {})
		l := r.net.Connect(a, b, 50)
		a.Send(r.net.NewFrame(dataPkt(0, 1)))
		l.Fail() // launched, in flight, fiber cut before arrival
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossCRC: func() *frameacct.Acct {
		r := newRig(nil)
		r.net.DeepPHY = true
		r.net.Corrupt = func(_ *phys.Port, syms []enc8b10b.Symbol) {
			for i := range syms {
				syms[i] = 0 // flatten the stream; the receive decode must reject it
			}
		}
		a, b := r.net.NewPort("a", nil), r.net.NewPort("b", func(*phys.Port, phys.Frame) {})
		r.net.Connect(a, b, 50)
		a.Send(r.net.NewFrame(dataPkt(0, 1)))
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossNoHandler: func() *frameacct.Acct {
		r := newRig(nil)
		a, b := r.net.NewPort("a", nil), r.net.NewPort("b", nil) // receiver has no handler
		r.net.Connect(a, b, 50)
		a.Send(r.net.NewFrame(dataPkt(0, 1)))
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossSwitchDead: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		r.c.Switches[0].SetRoute(0, 1)
		f := r.net.NewFrame(dataPkt(0, 1))
		// Fail the switch while the frame is latency-staged inside it:
		// after its receive (serialization + fiber flight) but before
		// the cut-through forward dispatches.
		arrival := phys.SerTime(int(f.Wire)+phys.DefaultIFG) + phys.PropTime(50)
		r.k.After(arrival+phys.DefaultSwitchLatency/2, func() { r.c.Switches[0].Fail() })
		r.c.NodePorts[0][0].Send(f)
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossUnroutedXbar: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		r.c.NodePorts[0][0].Send(r.net.NewFrame(dataPkt(0, 1))) // crossbar never programmed
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossUnroutedVC: func() *frameacct.Acct {
		topo := phys.Sharded(2, 1, 1, 50)
		r := newRig(&topo)
		// Route node 0's ingress onto the trunk; the far switch has no
		// virtual-circuit entry for it.
		r.c.Switches[0].SetRoute(0, r.c.Trunks[0].PortA)
		r.c.NodePorts[0][0].Send(r.net.NewFrame(dataPkt(0, 1)))
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossFloodExpired: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		f := r.net.NewFrame(rosteringPkt(0, 1, 1))
		f.Hops = phys.MaxFloodHops // arrives with an exhausted hop budget
		r.c.NodePorts[0][0].Send(f)
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossFloodDeduped: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		// The same announcement wave twice: the second is a duplicate.
		r.c.NodePorts[0][0].Send(r.net.NewFrame(rosteringPkt(0, 1, 1)))
		r.c.NodePorts[0][0].Send(r.net.NewFrame(rosteringPkt(0, 1, 1)))
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossEgressDark: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		r.c.Switches[0].SetRoute(0, 1)
		f := r.net.NewFrame(dataPkt(0, 1))
		// Cut the egress fiber while the frame is latency-staged.
		arrival := phys.SerTime(int(f.Wire)+phys.DefaultIFG) + phys.PropTime(50)
		r.k.After(arrival+phys.DefaultSwitchLatency/2, func() { r.c.NodeLinks[1][0].Fail() })
		r.c.NodePorts[0][0].Send(f)
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossUnroutedTransit: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		insertion.NewStation(r.k, 0, r.c.NodePorts[0])
		// A transit frame (neither broadcast nor addressed to node 0)
		// reaches a station whose ring egress was never programmed.
		r.c.Switches[0].SetRoute(1, 0)
		r.c.NodePorts[1][0].Send(r.net.NewFrame(dataPkt(5, 7)))
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossHopExpired: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		st := insertion.NewStation(r.k, 0, r.c.NodePorts[0])
		st.SetEgress(0)
		r.c.Switches[0].SetRoute(1, 0)
		f := r.net.NewFrame(dataPkt(5, 7))
		f.Hops = st.MaxHops // transit budget already spent
		r.c.NodePorts[1][0].Send(f)
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossAgentStopped: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		for i := 0; i < 2; i++ {
			st := insertion.NewStation(r.k, micropacket.NodeID(i), r.c.NodePorts[i])
			a := rostering.NewAgent(r.k, i, r.c, st, 50)
			if i == 1 {
				r.k.After(0, a.Start) // node 0 never boots; floods reaching it must die typed
			}
		}
		r.run(5 * sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossStaleRound: func() *frameacct.Acct {
		topo := phys.Uniform(2, 1, 50)
		r := newRig(&topo)
		for i := 0; i < 2; i++ {
			st := insertion.NewStation(r.k, micropacket.NodeID(i), r.c.NodePorts[i])
			a := rostering.NewAgent(r.k, i, r.c, st, 50)
			r.k.After(0, a.Start)
		}
		r.run(5 * sim.Millisecond) // both agents settle at epoch >= 1
		// A straggler announcement from a superseded round, injected on
		// the switch port facing node 0 (bypassing the switch's own
		// flood dedup, which would absorb it first).
		r.c.Switches[0].Port(0).SendPriority(r.net.NewFrame(rosteringPkt(1, 0, 9)))
		r.run(sim.Millisecond)
		return r.ledger()
	},
	frameacct.LossDupAnnounce: func() *frameacct.Acct {
		// Two switches flood every announcement to each agent twice;
		// the second copy is always a database duplicate.
		topo := phys.Uniform(2, 2, 50)
		r := newRig(&topo)
		for i := 0; i < 2; i++ {
			st := insertion.NewStation(r.k, micropacket.NodeID(i), r.c.NodePorts[i])
			a := rostering.NewAgent(r.k, i, r.c, st, 50)
			r.k.After(0, a.Start)
		}
		r.run(5 * sim.Millisecond)
		return r.ledger()
	},
}

// TestEveryLossCauseReachable runs each scenario and requires the
// targeted counter to move; the closure loop requires a scenario for
// every member of the enum.
func TestEveryLossCauseReachable(t *testing.T) {
	for c := frameacct.LossCause(0); c < frameacct.NumCauses; c++ {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			scenario, ok := lossScenarios[c]
			if !ok {
				t.Fatalf("no reachability scenario for cause %q — every LossCause needs one", c)
			}
			acct := scenario()
			if acct.Losses[c] == 0 {
				t.Fatalf("scenario for %q produced no such loss; ledger: %+v", c, acct.Losses)
			}
			if v := acct.Violations(); len(v) != 0 {
				t.Fatalf("scenario for %q broke conservation: %v", c, v)
			}
		})
	}
}

// TestFaultInsideTheDeviceGap puts a fault in the middle of each kind
// of device latency — the switch's cut-through delay under a forward
// and under a flood, the station's insertion register — and requires
// the far side of the gap to account the frame: held in the in-device
// gauge until then, dead by the typed cause after, never sent on. The
// forward and the transit are plans on their egress ports when the fault
// lands (the flood never is): it must take them back.
func TestFaultInsideTheDeviceGap(t *testing.T) {
	// hop is one transmission's flight: serialization plus 50 m of fiber.
	hop := func(r *rig, f phys.Frame) sim.Time {
		return phys.SerTime(int(f.Wire)+phys.DefaultIFG) + phys.PropTime(50)
	}
	for _, tc := range []struct {
		name  string
		cause frameacct.LossCause
		// arm sends one frame and returns the middle of the gap it will
		// sit in, the fault to apply there, and what must not have moved
		// by the end of the run.
		arm func(r *rig) (mid sim.Time, fault func(), passed func() uint64)
	}{
		{"switch forward", frameacct.LossSwitchDead, func(r *rig) (sim.Time, func(), func() uint64) {
			sw := r.c.Switches[0]
			sw.SetRoute(0, 1)
			f := r.net.NewFrame(dataPkt(0, 1))
			r.c.NodePorts[0][0].Send(f)
			return hop(r, f) + phys.DefaultSwitchLatency/2, sw.Fail, func() uint64 { return sw.Forwarded }
		}},
		{"switch flood", frameacct.LossSwitchDead, func(r *rig) (sim.Time, func(), func() uint64) {
			sw := r.c.Switches[0]
			f := r.net.NewFrame(rosteringPkt(0, 1, 1))
			r.c.NodePorts[0][0].Send(f)
			return hop(r, f) + phys.DefaultSwitchLatency/2, sw.Fail, func() uint64 {
				return sw.Flooded + r.ledger().Consumed[frameacct.ConsumeFloodFanout]
			}
		}},
		{"station transit", frameacct.LossUnroutedTransit, func(r *rig) (sim.Time, func(), func() uint64) {
			st := insertion.NewStation(r.k, 0, r.c.NodePorts[0])
			st.SetEgress(0)
			r.c.Switches[0].SetRoute(1, 0)
			f := r.net.NewFrame(dataPkt(5, 7))
			r.c.NodePorts[1][0].Send(f)
			return 2*hop(r, f) + phys.DefaultSwitchLatency + insertion.DefaultForwardDelay/2,
				func() { st.SetEgress(-1) }, func() uint64 { return st.Forwarded }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := phys.Uniform(2, 1, 50)
			r := newRig(&topo)
			mid, fault, passed := tc.arm(r)
			held := int64(-1)
			var atFault phys.HoldStats
			r.k.After(mid, func() {
				held, atFault = r.ledger().InDevice, r.net.Holds
				fault()
			})
			r.run(sim.Millisecond)
			acct := r.ledger()
			if held != 1 {
				t.Fatalf("in-device gauge at the fault = %d, want 1 (the fault missed the gap)", held)
			}
			planned := uint64(1)
			if tc.name == "switch flood" {
				planned = 0
			}
			if took := r.net.Holds.Unplanned - atFault.Unplanned; atFault.Unplanned != 0 || took != planned {
				t.Fatalf("the fault took back %d plan(s), want %d (holds at the fault %+v)", took, planned, atFault)
			}
			if acct.Losses[tc.cause] != 1 || acct.DeviceLosses() != 1 {
				t.Fatalf("losses = %v, want exactly one %s", acct.LossMap(), tc.cause)
			}
			if n := passed(); n != 0 {
				t.Fatalf("%d frame(s) left the device after the fault", n)
			}
			if acct.InDevice != 0 || !acct.Conserved() {
				t.Fatalf("in-device = %d, violations = %v", acct.InDevice, acct.Violations())
			}
		})
	}
}

// sameInstantPair sends a rostering flood from node flood and a data
// frame from node data (routed to node 2) so that both reach switch 0
// at one instant, and returns what node 2 receives, in order, with the
// frame whose bits hit the fiber first — the one the switch takes
// first — named in first.
func sameInstantPair(t *testing.T, r *rig, flood, data int) (got []micropacket.Type, first micropacket.Type) {
	t.Helper()
	sw := r.c.Switches[0]
	sw.SetRoute(data, 2)
	r.c.NodePorts[2][0].SetHandler(func(_ *phys.Port, f phys.Frame) {
		got = append(got, f.Pkt.Type)
		r.net.Acct.Consume(frameacct.ConsumeHost)
	})
	ff := r.net.NewFrame(rosteringPkt(micropacket.NodeID(flood), 1, 1))
	df := r.net.NewFrame(dataPkt(micropacket.NodeID(data), 2))
	// The longer frame starts earlier by the difference in serialization.
	fser, dser := phys.SerTime(int(ff.Wire)+phys.DefaultIFG), phys.SerTime(int(df.Wire)+phys.DefaultIFG)
	fp, dp := r.c.NodePorts[flood][0], r.c.NodePorts[data][0]
	fAt, dAt := max(dser-fser, 0), max(fser-dser, 0)
	r.k.Do(fAt, func() { fp.SendPriority(ff) })
	r.k.Do(dAt, func() { dp.Send(df) })
	r.run(sim.Millisecond)
	first = micropacket.TypeData
	if fAt < dAt || fAt == dAt && fp.UID() < dp.UID() {
		first = micropacket.TypeRostering
	}
	return got, first
}

// TestSameInstantFloodAndDataLeaveInArrivalOrder: a rostering flood and
// a data frame reach one switch at one instant for one egress port. The
// two device latencies end on one key but for the sequence number; the
// frames must leave in the order they came in, whichever came first —
// a plan keyed without its seq lets the flood's stage event overtake a
// data frame that was there before it.
func TestSameInstantFloodAndDataLeaveInArrivalOrder(t *testing.T) {
	seen := map[micropacket.Type]bool{}
	for _, nodes := range [][2]int{{0, 1}, {1, 0}} {
		topo := phys.Uniform(3, 1, 50)
		r := newRig(&topo)
		got, first := sameInstantPair(t, r, nodes[0], nodes[1])
		second := micropacket.TypeData + micropacket.TypeRostering - first
		if len(got) != 2 || got[0] != first || got[1] != second {
			t.Errorf("flood from node %d, data from node %d: node 2 received %v, want %v then %v", nodes[0], nodes[1], got, first, second)
		}
		if a := r.ledger(); !a.Conserved() || a.InDevice != 0 {
			t.Errorf("in-device = %d, violations = %v", a.InDevice, a.Violations())
		}
		seen[first] = true
	}
	if len(seen) != 2 {
		t.Fatalf("both pairs had the %v arrive first: the test needs one of each", seen)
	}
}

// TestLedgerReadInsideAPlannedGap: while a forwarded frame is a plan on
// the switch's egress port the ledger says in-device, not in-flight —
// and reading it leaves the plan standing; once the clock is on the
// emerging instant, with no event there to say so, it says launched.
func TestLedgerReadInsideAPlannedGap(t *testing.T) {
	topo := phys.Uniform(2, 1, 50)
	r := newRig(&topo)
	sw := r.c.Switches[0]
	sw.SetRoute(0, 1)
	delivered := 0
	r.c.NodePorts[1][0].SetHandler(func(*phys.Port, phys.Frame) {
		delivered++
		r.net.Acct.Consume(frameacct.ConsumeHost)
	})
	f := r.net.NewFrame(dataPkt(0, 1))
	r.c.NodePorts[0][0].Send(f)
	arrive := phys.SerTime(int(f.Wire)+phys.DefaultIFG) + phys.PropTime(50)

	r.k.RunUntil(arrive + phys.DefaultSwitchLatency/2)
	a := r.ledger()
	if a.InDevice != 1 || a.InFlight != 0 || a.Offered != 1 || a.Relaunched != 0 || sw.Forwarded != 0 {
		t.Fatalf("inside the gap: in-device %d, in-flight %d, offered %d, relaunched %d, forwarded %d; want 1, 0, 1, 0, 0",
			a.InDevice, a.InFlight, a.Offered, a.Relaunched, sw.Forwarded)
	}
	if h := r.net.Holds; h.Planned != 1 || h.Unplanned != 0 {
		t.Fatalf("inside the gap: %+v, want the one plan standing", h)
	}
	fired := r.k.Fired
	r.k.RunUntil(arrive + phys.DefaultSwitchLatency)
	a = r.ledger()
	if a.InDevice != 0 || a.InFlight != 1 || a.Offered != 2 || a.Relaunched != 1 || sw.Forwarded != 1 || !a.Conserved() {
		t.Fatalf("at the emerging instant: in-device %d, in-flight %d, offered %d, relaunched %d, forwarded %d, violations %v; want 0, 1, 2, 1, 1, none",
			a.InDevice, a.InFlight, a.Offered, a.Relaunched, sw.Forwarded, a.Violations())
	}
	if r.k.Fired != fired {
		t.Fatalf("%d kernel event(s) fired for the frame to emerge, want none", r.k.Fired-fired)
	}
	r.run(sim.Millisecond)
	if a = r.ledger(); delivered != 1 || r.k.Fired != 2 || !a.Conserved() || a.InFlight != 0 {
		t.Fatalf("%d delivered in %d events (want 1 in 2: one per hop), in-flight %d, violations %v", delivered, r.k.Fired, a.InFlight, a.Violations())
	}
}
