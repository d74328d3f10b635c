// Package baseline holds the conventional-network comparators AmpNet's
// claims are measured against. Each is AmpNet's own MAC,
// insertion.Station, with its rules off (greedy), plus the one
// mechanism that makes it a strawman:
//
//   - TokenRing: token passing, one transmitter at a time — the contrast
//     for slide 7's multiple streams per segment (experiment E3).
//   - NewDropTailRing: small egress FIFOs that all-to-all broadcast
//     overruns — the contrast for slide 8's lossless guarantee (E4).
//   - StaticNet: routes programmed once and re-converged only after a
//     long protection delay (spanning-tree style), with no rostering —
//     the contrast for slide 16's two-ring-tour self-healing (E11).
//
// So the comparators strip, forward and account frames as AmpNet does,
// and their ledgers conserve.
package baseline

import (
	"math"

	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// greedy builds one station per node with the MAC's two rules off: it
// inserts whatever its egress queue holds (InsertThreshold is never
// reached, so it never backs off), and transit skips the insertion
// register (ForwardDelay 0). The stations have no egress yet.
func greedy(k *sim.Kernel, cluster *phys.Cluster) []*insertion.Station {
	sts := make([]*insertion.Station, cluster.NumNodes())
	for i := range sts {
		st := insertion.NewStation(k, micropacket.NodeID(i), cluster.NodePorts[i])
		st.InsertThreshold = math.MaxInt
		st.ForwardDelay = 0
		sts[i] = st
	}
	return sts
}

// greedyRing rings greedy stations over switch 0 of the cluster (its
// ports must be otherwise unused).
func greedyRing(k *sim.Kernel, cluster *phys.Cluster) []*insertion.Station {
	sts := greedy(k, cluster)
	for i, st := range sts {
		cluster.Switches[0].SetRoute(i, (i+1)%len(sts))
		st.SetEgress(0)
	}
	return sts
}

// --- token ring ---

// tokenTag marks the circulating token (a Diagnostic MicroPacket).
const tokenTag = 0x70

// TokenBurst is how many queued frames a station sends per token visit;
// TokenHold is the processing delay before it passes the token on.
const (
	TokenBurst = 8
	TokenHold  = 1 * sim.Microsecond
)

// TokenStation is one station on a token-passing ring: a greedy
// station that sends only while it holds the token.
type TokenStation struct {
	st    *insertion.Station
	ring  *TokenRing
	sendQ []*micropacket.Packet
	pass  sim.Timer

	// OnDeliver receives frames addressed to (or broadcast past) this
	// station.
	OnDeliver func(*micropacket.Packet)

	// Counters (mirror insertion.Station where meaningful).
	Sent      uint64
	Delivered uint64
	Refused   uint64
}

// TokenRing couples n stations on one switch into a token ring.
type TokenRing struct {
	// MaxQueue bounds each station's send queue.
	MaxQueue int

	Stations []*TokenStation
	// Rotations counts full token tours.
	Rotations uint64
}

// NewTokenRing wires n stations into a logical ring over switch 0 of
// the cluster (ports must be otherwise unused).
func NewTokenRing(k *sim.Kernel, cluster *phys.Cluster) *TokenRing {
	tr := &TokenRing{MaxQueue: 256}
	sts := greedyRing(k, cluster)
	for _, st := range sts {
		ts := &TokenStation{st: st, ring: tr}
		ts.pass = k.NewTimer(ts.passToken)
		st.OnDeliver = ts.deliver
		tr.Stations = append(tr.Stations, ts)
	}
	return tr
}

// Start injects the token at station 0.
func (tr *TokenRing) Start() { tr.Stations[0].acquireToken() }

// Send queues a packet at station id; false = queue full (backpressure).
func (tr *TokenRing) Send(id int, p *micropacket.Packet) bool {
	ts := tr.Stations[id]
	if len(ts.sendQ) >= tr.MaxQueue {
		ts.Refused++
		return false
	}
	ts.sendQ = append(ts.sendQ, p)
	return true
}

// deliver is the station's OnDeliver: the token, addressed to this
// station and stripped here by the MAC, or host traffic.
func (ts *TokenStation) deliver(p *micropacket.Packet) {
	if p.Type == micropacket.TypeDiagnostic && p.Tag == tokenTag {
		if ts.st.ID == 0 {
			ts.ring.Rotations++
		}
		ts.acquireToken()
		return
	}
	ts.Delivered++
	if ts.OnDeliver != nil {
		ts.OnDeliver(p)
	}
}

// acquireToken gives the station its transmission opportunity.
func (ts *TokenStation) acquireToken() {
	n := min(TokenBurst, len(ts.sendQ))
	for _, p := range ts.sendQ[:n] {
		ts.st.Send(p)
		ts.Sent++
	}
	ts.sendQ = ts.sendQ[n:]
	// Pass the token after the hold time (its wire time is modeled by
	// the token frame itself).
	ts.pass.Reset(TokenHold)
}

// passToken sends the token to the next station.
func (ts *TokenStation) passToken() {
	next := micropacket.NodeID((int(ts.st.ID) + 1) % len(ts.ring.Stations))
	ts.st.Send(ts.st.Net().Packets.Diagnostic(ts.st.ID, next, tokenTag))
}

// --- drop-tail ring ---

// NewDropTailRing wires greedy stations into a ring over switch 0,
// with deliberately small egress FIFOs (like a NIC with a shallow
// transmit queue and no backpressure): a full FIFO drops the frame
// (Acct.CongestionDrops()).
func NewDropTailRing(k *sim.Kernel, cluster *phys.Cluster, fifoCap int) []*insertion.Station {
	sts := greedyRing(k, cluster)
	for i := range sts {
		cluster.NodePorts[i][0].SetCapacity(fifoCap)
	}
	return sts
}

// --- static switched network ---

// StaticNet is a switched network with fixed forwarding and slow
// protection switching: after a failure it stays broken for
// ReconvergeDelay (spanning-tree style hold-down), then reprograms
// routes around surviving links. No network cache, no rostering.
type StaticNet struct {
	K       *sim.Kernel
	Cluster *phys.Cluster
	// ReconvergeDelay models STP-class re-convergence (hundreds of ms
	// to tens of seconds; default 1 s, generous to the baseline).
	ReconvergeDelay sim.Time

	// Stations refuse a Send with no live switch to their successor.
	Stations []*insertion.Station
	// Reconvergences counts repair events.
	Reconvergences uint64
	pending        bool
}

// DefaultReconverge is the default protection-switching delay.
const DefaultReconverge = 1 * sim.Second

// NewStaticNet builds the baseline over the same redundant cluster
// hardware AmpNet uses, rings the nodes over switch 0, and watches for
// failures with the same PHY detection.
func NewStaticNet(k *sim.Kernel, cluster *phys.Cluster) *StaticNet {
	sn := &StaticNet{K: k, Cluster: cluster, ReconvergeDelay: DefaultReconverge}
	sn.Stations = greedy(k, cluster)
	for _, st := range sn.Stations {
		st.OnStatus = func(_ *phys.Port, up bool) {
			if !up {
				sn.scheduleReconverge()
			}
		}
	}
	sn.program()
	return sn
}

// program rebuilds a ring over the lowest switch alive at every
// consecutive pair, mimicking a manually-configured network.
func (sn *StaticNet) program() {
	for _, sw := range sn.Cluster.Switches {
		sw.ClearRoutes()
	}
	for i, st := range sn.Stations {
		next := (i + 1) % len(sn.Stations)
		cands := sn.Cluster.LiveSwitchesBetween(i, next)
		if len(cands) == 0 {
			st.SetEgress(-1)
			continue
		}
		sn.Cluster.Switches[cands[0]].SetRoute(i, next)
		st.SetEgress(cands[0])
	}
}

// scheduleReconverge arms one repair after the protection delay.
func (sn *StaticNet) scheduleReconverge() {
	if sn.pending {
		return
	}
	sn.pending = true
	sn.K.After(sn.ReconvergeDelay, func() {
		sn.pending = false
		sn.Reconvergences++
		sn.program()
	})
}
