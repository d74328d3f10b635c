// Package insertion implements AmpNet's MAC layer: a variant of a
// register insertion ring (paper, slide 8).
//
// Each node (Station) sits on the current logical ring with one ingress
// and one egress hop. Ring traffic passing through the node has absolute
// priority. Slide 8 says a node adjusts its contribution to the flow
// from its local view of the network:
//
//	"Each node monitors its local view of the network and can increase
//	 or decrease its contribution to the total flow accordingly. Even if
//	 everyone does a broadcast at the same time (all-to-all broadcast)
//	 the network is guaranteed to not drop packets."
//
// Here that view is the egress queue, and insert applies two rules. A
// station inserts its next MicroPacket when the egress queue holds at
// most InsertThreshold frames, and then halves its pace. Otherwise it
// backs off: the first retry waits paceStep, each further one doubles
// the wait up to DefaultMaxPace.
//
// The losslessness guarantee holds because (a) transit traffic is never
// displaced by insertion, (b) insertion requires the egress queue to be
// at or below InsertThreshold, and (c) a ring node has exactly one
// upstream link, so transit arrivals can never exceed the line rate that
// the egress serializes at. The experiments assert that
// Acct.CongestionDrops() is 0 under saturating all-to-all broadcast
// (experiment E4).
//
// Stripping rules: the destination strips unicast MicroPackets (allowing
// spatial reuse — slide 7's multiple simultaneous streams); the source
// strips its own broadcasts after a full tour.
package insertion

import (
	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Defaults for station tuning.
const (
	// DefaultForwardDelay models the insertion-register latency of the
	// transit path (about four byte times).
	DefaultForwardDelay = 40 * sim.Nanosecond
	// DefaultInsertThreshold: insert only when the egress FIFO is empty.
	DefaultInsertThreshold = 0
	// DefaultInsertQueue is the host-side insertion queue depth; a full
	// queue pushes back on the host (Refused), never onto the wire.
	DefaultInsertQueue = 256
	// DefaultMaxPace bounds the adaptive backoff.
	DefaultMaxPace = 50 * sim.Microsecond
	// paceStep is the initial backoff when the egress queue is too long.
	paceStep = 500 * sim.Nanosecond
	// DefaultMaxHops is the transit hop budget for stations built
	// without topology knowledge — the historical value, enough for
	// any ≤255-node ring. Stacks that know the fabric size scale it
	// with MaxHopsFor: the budget must exceed the ring circumference
	// (a broadcast legitimately crosses every hop) but stay small
	// enough to expire transition-time loops promptly — the expiry is
	// part of the deterministic model, so serial and sharded engines
	// cut a loop at exactly the same hop.
	DefaultMaxHops = 255
)

// MaxHopsFor returns the transit hop budget for a fabric of the given
// node count. Every fabric the one-byte address space could build
// (≤255 nodes) keeps the historical 255 bit for bit — their reports
// must not change under this PR — and only fabrics beyond the v1
// ceiling scale up, to twice the ring circumference (room for a full
// broadcast tour plus mid-heal detours), capped at the counter range.
func MaxHopsFor(nodes int) uint16 {
	if nodes <= DefaultMaxHops {
		return DefaultMaxHops
	}
	h := 2 * nodes
	if h > 65535 {
		return 65535
	}
	return uint16(h)
}

// Station is one node's MAC engine.
type Station struct {
	ID micropacket.NodeID
	K  *sim.Kernel

	// Ports are the node's physical ports, indexed by switch.
	Ports []*phys.Port
	// net is the Net the ports live on; frames are sized under its
	// wire-format version.
	net *phys.Net

	egress       *phys.Port
	egressSwitch int

	// InsertThreshold is the maximum egress queue length at which the
	// station may still insert its own traffic.
	InsertThreshold int
	// ForwardDelay is the transit-path latency through the node.
	ForwardDelay sim.Time
	// MaxInsertQueue bounds the host insertion queue.
	MaxInsertQueue int
	// MaxHops expires transit frames after this many forwards,
	// protecting against transient loops while rosters converge. It
	// must exceed the largest possible ring circumference (a broadcast
	// legitimately crosses every hop of the ring), so it is as wide as
	// the node address space: the historical uint8 counter silently
	// expired broadcasts on >255-node rings.
	MaxHops uint16

	// OnDeliver receives MicroPackets addressed to (or broadcast past)
	// this node. The packet is lent for the call: it may be freed and
	// reused once OnDeliver returns.
	OnDeliver func(*micropacket.Packet)
	// OnControl receives Rostering MicroPackets; they do not transit
	// the ring MAC (the rostering agent floods them itself).
	OnControl func(*phys.Port, phys.Frame)
	// OnStatus receives port status changes (loss of light / re-light).
	OnStatus func(*phys.Port, bool)

	// LastRx is the time the station last saw any frame arrive on any
	// of its ports — the ring-liveness signal the rostering watchdog
	// uses to detect a dead upstream hop (a node failure leaves all
	// fibers lit, so loss-of-light alone cannot catch it).
	LastRx sim.Time

	// insertQ holds the host frames waiting to insert.
	insertQ phys.Queue[phys.Frame]
	// holding mirrors QueueLen() > 0 onto the ports (syncHold).
	holding bool
	pace    sim.Time
	// paceTmr is the one paced-retry timer, made unarmed by NewStation
	// and re-armed with Reset.
	paceTmr sim.Timer

	// Counters.
	Inserted  uint64 // own frames put on the ring
	Forwarded uint64 // transit frames passed through
	Delivered uint64 // frames handed to OnDeliver
	Stripped  uint64 // own broadcasts removed after a full tour
	Refused   uint64 // host sends rejected (queue full) — backpressure
	Unrouted  uint64 // transit frames with no egress (mid-rostering)
	Expired   uint64 // transit frames that exceeded MaxHops
}

// NewStation creates a station owning the given ports (one per switch)
// and installs itself as their frame/status handler.
func NewStation(k *sim.Kernel, id micropacket.NodeID, ports []*phys.Port) *Station {
	s := &Station{
		ID: id, K: k, Ports: ports,
		InsertThreshold: DefaultInsertThreshold,
		ForwardDelay:    DefaultForwardDelay,
		MaxInsertQueue:  DefaultInsertQueue,
		MaxHops:         DefaultMaxHops,
		egressSwitch:    -1,
	}
	s.paceTmr = k.NewTimer(s.tryInsert)
	for _, p := range ports {
		if p == nil {
			continue // the topology does not attach this node there
		}
		if s.net == nil {
			s.net = p.Net()
		}
		p.SetHandler(s.handleFrame)
		p.SetStatusHandler(func(port *phys.Port, up bool) {
			if s.OnStatus != nil {
				s.OnStatus(port, up)
			}
		})
		p.SetTxDone(s.tryInsert)
	}
	return s
}

// SetEgress programs the station's ring egress: frames leave via the
// port facing switch sw. Pass sw < 0 to detach from the ring.
func (s *Station) SetEgress(sw int) {
	if s.egress != nil {
		// A transit frame planned onto the old egress leaves by the new one.
		s.egress.Unplan()
	}
	if sw < 0 {
		s.egress = nil
		s.egressSwitch = -1
		return
	}
	s.egress = s.Ports[sw]
	s.egressSwitch = sw
	s.tryInsert()
}

// EgressSwitch returns the switch index of the current egress, or -1.
func (s *Station) EgressSwitch() int { return s.egressSwitch }

// Net returns the phys.Net the station's ports live on (and thereby the
// frame-accounting ledger its MAC decisions are counted in).
func (s *Station) Net() *phys.Net { return s.net }

// OnRing reports whether the station currently has a ring egress.
func (s *Station) OnRing() bool { return s.egress != nil }

// QueueLen returns the host insertion queue length.
func (s *Station) QueueLen() int { return s.insertQ.Len() }

// Send enqueues a host MicroPacket for insertion onto the ring. It
// returns false (backpressure) when the insertion queue is full or the
// station is off-ring.
func (s *Station) Send(p *micropacket.Packet) bool {
	if s.egress == nil || s.QueueLen() >= s.MaxInsertQueue {
		s.Refused++
		return false
	}
	s.insertQ.Push(s.net.NewFrame(p))
	s.tryInsert()
	return true
}

// Abort drops the host frames waiting to insert, and the paced retry
// with them: the NIC died (a node crash), and what it had not put on the
// ring must not go out when the node comes back. The frames were never
// offered to a port, so the ledger has nothing to forget.
func (s *Station) Abort() {
	s.insertQ.Clear()
	s.paceTmr.Cancel()
	s.syncHold()
}

// syncHold keeps the ports' tx-done hold on exactly while host frames
// wait to insert: a transmit completion on any port is an insertion
// opportunity then, and provably a no-op otherwise — which is what lets
// the ports not spend a kernel event on it (phys.Port.HoldTxDone).
func (s *Station) syncHold() {
	if on := s.QueueLen() > 0; on != s.holding {
		s.holding = on
		for _, p := range s.Ports {
			if p != nil {
				p.HoldTxDone(on)
			}
		}
	}
}

// tryInsert inserts the head host frame if the MAC rules allow it now,
// otherwise arms the adaptive pacing timer.
func (s *Station) tryInsert() {
	s.insert()
	s.syncHold()
}

// insert is tryInsert's decision; only tryInsert calls it.
func (s *Station) insert() {
	if s.egress == nil || s.QueueLen() == 0 {
		return
	}
	if s.egress.QueueLen() <= s.InsertThreshold {
		// The egress is idle: insert now, even if a paced retry was
		// pending (a tx completion beat the timer to the opportunity).
		s.paceTmr.Cancel()
		f := s.insertQ.Pop()
		// Before the Send: if that was the last waiting frame, its own
		// completion is no opportunity for anything.
		s.syncHold()
		if s.egress.Send(f) {
			s.Inserted++
		}
		// Ring looks usable from here: relax the pace.
		s.pace /= 2
		return
	}
	if s.paceTmr.Active() {
		return // a paced attempt is already scheduled
	}
	// The egress queue says the ring is busy: back off and retry later.
	if s.pace == 0 {
		s.pace = paceStep
	} else {
		s.pace *= 2
		if s.pace > DefaultMaxPace {
			s.pace = DefaultMaxPace
		}
	}
	s.paceTmr.Reset(s.pace)
}

// KeepaliveTag marks Diagnostic MicroPackets used as ring keepalives;
// they refresh LastRx and are stripped without host delivery.
const KeepaliveTag = 0xA5

// handleFrame implements the ring forwarding rules.
func (s *Station) handleFrame(port *phys.Port, f phys.Frame) {
	s.LastRx = s.K.Now()
	pkt := f.Pkt
	if pkt.Type == micropacket.TypeRostering {
		if s.OnControl != nil {
			s.OnControl(port, f) // the agent accounts the frame's fate
		} else {
			s.net.Acct.Lose(frameacct.LossNoHandler)
		}
		return
	}
	if pkt.Type == micropacket.TypeDiagnostic && pkt.Tag == KeepaliveTag && pkt.Dst == s.ID {
		// Liveness already recorded; strip silently.
		s.net.Acct.Consume(frameacct.ConsumeKeepalive)
		return
	}
	switch {
	case pkt.IsBroadcast() && pkt.Src == s.ID:
		// Our broadcast completed a full tour: strip it. Its life ends
		// here, so its packet goes back to the pool that built it.
		s.Stripped++
		s.net.Acct.Consume(frameacct.ConsumeBroadcastStrip)
		s.net.Packets.Free(pkt)
		return
	case pkt.IsBroadcast():
		// The host observes a copy; the frame itself continues its tour
		// (its ledger fate is decided by forward).
		s.Delivered++
		s.net.Acct.HostCopy()
		if s.OnDeliver != nil {
			s.OnDeliver(pkt)
		}
		s.forward(f)
	case pkt.Dst == s.ID:
		// Destination strip: unicast leaves the ring here. The host
		// borrows the packet for the callback only, and then it is freed.
		s.Delivered++
		s.net.Acct.Consume(frameacct.ConsumeHost)
		if s.OnDeliver != nil {
			s.OnDeliver(pkt)
		}
		s.net.Packets.Free(pkt)
	default:
		s.forward(f)
	}
}

// forward sends a transit frame out the egress after the insertion
// register delay. Transit traffic has priority by construction: it is
// enqueued unconditionally, whereas insertion checks occupancy first.
func (s *Station) forward(f phys.Frame) {
	if s.egress == nil {
		s.Unrouted++
		s.net.Acct.Lose(frameacct.LossUnroutedTransit)
		return
	}
	if f.Hops >= s.MaxHops {
		s.Expired++
		s.net.Acct.Lose(frameacct.LossHopExpired)
		return
	}
	f.Hops++
	s.net.Hold(s.ForwardDelay, s, 0, f, s.egress)
}

// Emerge is the far side of the insertion register (phys.Device): the
// transit frame leaves by whatever egress the station has now.
func (s *Station) Emerge(_ int, f phys.Frame) {
	if s.egress == nil {
		s.Unrouted++
		s.net.Acct.Lose(frameacct.LossUnroutedTransit)
		return
	}
	s.CountForward()
	s.net.Acct.Relaunch()
	s.egress.Send(f)
}

// CountForward counts one transit forward (phys.Device).
func (s *Station) CountForward() { s.Forwarded++ }
