package rostering

import (
	"repro/internal/frameacct"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// lsRecord is one slot of an agent's database, which is indexed by
// origin id: the ids of a fabric are 0..NumNodes-1, part of the
// ubiquitous configuration database (slide 2).
type lsRecord struct {
	mask  LinkState
	seq   uint8
	known bool // announced in the current round
}

// Agent runs the rostering protocol on one node. It owns the node's
// Rostering MicroPackets (delivered by the Station's OnControl hook) and
// reprograms the Station and its hop's switch when a new roster is
// adopted.
type Agent struct {
	ID      int
	K       *sim.Kernel
	Cluster *phys.Cluster
	Station *insertion.Station

	// Shard is the shard this agent's node runs on (0 at one shard).
	// Crossbar programming aimed at a remote shard's switch is routed
	// through the cluster's barrier-deferred path; see
	// phys.Cluster.Program.
	Shard int
	// Rounds builds this agent's rosters; the agents of one shard share
	// one, so a round's roster is built once there. An agent with none
	// makes its own on its first adoption.
	Rounds *Rounds

	// SettleWindow is how long the link-state database must stay quiet
	// before the roster is computed. The hardware's scheme paces its
	// exploration and confirmation waves at ring-tour granularity (one
	// tour each); the settle window stands in for both waves, so the
	// default is two estimated ring tours — which is exactly where
	// slide 16 puts rostering completion.
	SettleWindow sim.Time

	// KeepaliveInterval paces the idle keepalives each node sends its
	// downstream ring neighbor; the downstream's watchdog uses their
	// absence to detect a dead upstream hop. In hardware this role is
	// played by the continuous FC idle/fill-word stream.
	KeepaliveInterval sim.Time
	// SilenceTimeout is how long the ring ingress may stay silent
	// before the watchdog declares the upstream hop dead and triggers
	// rostering.
	SilenceTimeout sim.Time

	// OnAdopt is called after this agent adopts a new roster.
	OnAdopt func(*Roster)

	epoch uint32
	seq   uint8
	lsdb  []lsRecord
	// Each periodic activity owns one Timer, made unarmed by NewAgent,
	// re-armed with Reset, cancelled by Stop.
	settle    sim.Timer
	keepalive sim.Timer
	watchdog  sim.Timer
	// kaFrame is the keepalive to the current roster's downstream
	// neighbor, built when an adoption changes that neighbor; Pkt is nil
	// off the ring.
	kaFrame   phys.Frame
	current   *Roster
	adoptedAt sim.Time
	stopped   bool

	// Adoptions counts rosters adopted; Announced counts own floods.
	Adoptions uint64
	Announced uint64

	// exploring reports a rostering round is in progress.
	exploring bool
}

// Default liveness parameters. The watchdog gives "network failures
// detected by hardware" (slide 18) for failures that leave fibers lit,
// e.g. a dead node or switch crossbar.
const (
	DefaultKeepalive      = 20 * sim.Microsecond
	DefaultSilenceTimeout = 60 * sim.Microsecond
)

// NewAgent wires a rostering agent to its station. The station's
// OnControl and OnStatus hooks are installed. fiberM is used to
// calibrate the default settle window.
func NewAgent(k *sim.Kernel, id int, cluster *phys.Cluster, st *insertion.Station, fiberM float64) *Agent {
	a := &Agent{
		ID: id, K: k, Cluster: cluster, Station: st,
		SettleWindow:      2 * EstimateTour(cluster.NumNodes(), fiberM),
		KeepaliveInterval: DefaultKeepalive,
		SilenceTimeout:    DefaultSilenceTimeout,
		lsdb:              make([]lsRecord, cluster.NumNodes()),
		stopped:           true, // dark until Start (NIC not yet booted)
	}
	a.settle = k.NewTimer(a.settled)
	a.keepalive = k.NewTimer(a.keepaliveLoop)
	a.watchdog = k.NewTimer(a.watchdogLoop)
	st.OnControl = a.handleControl
	st.OnStatus = func(_ *phys.Port, _ bool) { a.sensed() }
	// Trunk failures leave every node-facing fiber lit; the switch
	// hardware senses the dark trunk and raises the failure to the
	// rostering layer (slide 18: "network failures detected by
	// hardware").
	cluster.WatchTrunks(k, a.sensed)
	return a
}

// sensed is a status change seen by a running agent's node: a port's
// light or a trunk's. It starts a round.
func (a *Agent) sensed() {
	if !a.stopped {
		a.Trigger()
	}
}

// Stop halts the agent's periodic activity (node shutdown). The agent
// no longer reacts to port status changes or emits keepalives.
func (a *Agent) Stop() {
	a.stopped = true
	a.settle.Cancel()
	a.keepalive.Cancel()
	a.watchdog.Cancel()
}

// Roster returns the currently adopted roster (nil before the first
// adoption).
func (a *Agent) Roster() *Roster { return a.current }

// Epoch returns the agent's current rostering epoch.
func (a *Agent) Epoch() uint32 { return a.epoch }

// Start begins initial rostering (node self-boot, slide 17) and arms
// the keepalive and silence-watchdog loops.
func (a *Agent) Start() {
	a.stopped = false
	a.Trigger()
	a.keepaliveLoop()
	a.watchdogLoop()
}

// keepaliveLoop sends a keepalive Diagnostic to the downstream neighbor
// every KeepaliveInterval while the node is on a ring.
func (a *Agent) keepaliveLoop() {
	if a.stopped {
		return
	}
	if a.kaFrame.Pkt != nil && a.Station.OnRing() {
		if p := a.Station.Ports[a.Station.EgressSwitch()]; p.Up() {
			p.SendPriority(a.kaFrame)
		}
	}
	a.keepalive.Reset(a.KeepaliveInterval)
}

// watchdogLoop detects upstream silence: if the node sits on a ring but
// has heard nothing for SilenceTimeout — and is not mid-round, with a
// grace period after adoption for the ring to fill — the upstream hop
// is declared dead and rostering starts.
func (a *Agent) watchdogLoop() {
	if a.stopped {
		return
	}
	now := a.K.Now()
	grace := 2 * a.SettleWindow
	if a.Station.OnRing() && !a.exploring &&
		now-a.Station.LastRx > a.SilenceTimeout &&
		now-a.adoptedAt > grace {
		a.Trigger()
	}
	a.watchdog.Reset(a.SilenceTimeout / 2)
}

// Trigger starts a new rostering round: failure detected, light
// restored, or a node (re-)booting.
func (a *Agent) Trigger() {
	a.beginEpoch(a.epoch + 1)
	a.announce()
}

// mask returns this node's live-switch bitmask from its port status.
// Ports are nil for switches the topology does not attach this node to.
func (a *Agent) mask() LinkState {
	var m LinkState
	for s, p := range a.Station.Ports {
		if p != nil && p.Up() {
			m |= 1 << s
		}
	}
	return m
}

// beginEpoch resets round state for epoch e.
func (a *Agent) beginEpoch(e uint32) {
	a.epoch = e
	a.exploring = true
	clear(a.lsdb)
	a.record(a.ID, a.mask(), a.seq)
	a.resetSettle()
}

// record stores origin's link state in the round's database. Origins
// are node ids below NumNodes; the table grows rather than trust a
// frame's claim to that.
func (a *Agent) record(origin int, mask LinkState, seq uint8) {
	if origin >= len(a.lsdb) {
		a.lsdb = append(a.lsdb, make([]lsRecord, origin+1-len(a.lsdb))...)
	}
	a.lsdb[origin] = lsRecord{mask: mask, seq: seq, known: true}
}

// announce floods this node's link-state record out every live port.
func (a *Agent) announce() {
	a.floodOwn()
	a.resetSettle()
}

// floodOwn records this node's link state under a fresh sequence number
// and floods it out every live port.
func (a *Agent) floodOwn() {
	a.seq++
	mask := a.mask()
	a.record(a.ID, mask, a.seq)
	a.Announced++
	own := micropacket.Announcement{Origin: micropacket.NodeID(a.ID), Mask: uint8(mask), Epoch: a.epoch, Seq: a.seq}
	a.floodExcept(a.Station.Net().Packets.Rostering(own.Origin, 0, own.Payload()), nil)
}

// floodExcept sends the packet on every live port except skip.
func (a *Agent) floodExcept(pkt *micropacket.Packet, skip *phys.Port) {
	var f phys.Frame
	for _, p := range a.Station.Ports {
		if p == nil || p == skip || !p.Up() {
			continue
		}
		if f.Pkt == nil {
			f = p.Net().NewFrame(pkt)
		}
		p.SendPriority(f)
	}
}

// handleControl processes a Rostering MicroPacket arriving on port.
// A stopped agent (node not booted, or shut down) ignores floods: it
// must not be rostered, since it would neither keepalive nor forward
// reliably.
func (a *Agent) handleControl(port *phys.Port, f phys.Frame) {
	acct := &port.Net().Acct
	if a.stopped {
		acct.Lose(frameacct.LossAgentStopped)
		return
	}
	ann := f.Pkt.Announcement()
	origin, mask := int(ann.Origin), LinkState(ann.Mask)
	switch {
	case ann.Epoch < a.epoch:
		acct.Lose(frameacct.LossStaleRound)
		return // stale round
	case ann.Epoch > a.epoch:
		// Someone started a newer round: join it and contribute our
		// own link state.
		acct.Consume(frameacct.ConsumeControl)
		a.beginEpoch(ann.Epoch)
		a.record(origin, mask, ann.Seq)
		a.floodExcept(f.Pkt, port)
		a.floodOwn()
		a.resetSettle()
		return
	}
	// Same epoch: accept if new origin or newer sequence.
	if origin < len(a.lsdb) {
		if prev := a.lsdb[origin]; prev.known && !newerSeq(ann.Seq, prev.seq) {
			acct.Lose(frameacct.LossDupAnnounce)
			return // duplicate: do not re-flood (this breaks flood loops)
		}
	}
	acct.Consume(frameacct.ConsumeControl)
	a.record(origin, mask, ann.Seq)
	a.floodExcept(f.Pkt, port)
	if !a.exploring {
		// New information for an epoch we had already adopted — a
		// booting node whose epoch counter collided with the network's
		// current round. Reopen the round and contribute our own link
		// state so the newcomer learns the full database. The reopen
		// happens at most once per new announcement (duplicates are
		// filtered above), so floods cannot storm.
		a.exploring = true
		a.floodOwn()
	}
	a.resetSettle()
}

// newerSeq compares wrapping uint8 sequence numbers.
func newerSeq(a, b uint8) bool { return int8(a-b) > 0 }

// resetSettle (re)arms the quiescence timer for the current round. A
// new epoch always passes through here (beginEpoch), so a settle timer
// that fires belongs to the round it was armed in.
func (a *Agent) resetSettle() {
	a.settle.Reset(a.SettleWindow)
}

// settled is the quiescence timer's callback.
func (a *Agent) settled() {
	if a.exploring {
		a.adopt()
	}
}

// adopt computes the roster from the settled database and programs this
// node's share of it: its ring egress and its hop's crossbar route.
func (a *Agent) adopt() {
	a.exploring = false
	a.adoptedAt = a.K.Now()
	a.Station.LastRx = a.K.Now()
	if a.Rounds == nil {
		a.Rounds = new(Rounds)
	}
	rs := a.Rounds
	ids, masks := rs.dbIDs[:0], rs.dbMasks[:0]
	for id, rec := range a.lsdb {
		if rec.known && rec.mask != 0 {
			ids, masks = append(ids, id), append(masks, rec.mask)
		}
	}
	rs.dbIDs, rs.dbMasks = ids, masks
	r := rs.Build(a.epoch, ids, masks, a.Cluster.View())
	a.current = r
	a.Adoptions++

	if next, via, ok := r.Next(a.ID); ok {
		// Packets are immutable once sent, so every keepalive to the
		// same neighbor is the same frame.
		if a.kaFrame.Pkt == nil || a.kaFrame.Pkt.Dst != micropacket.NodeID(next) {
			a.kaFrame = a.Station.Net().NewFrame(micropacket.NewDiagnostic(
				micropacket.NodeID(a.ID), micropacket.NodeID(next), insertion.KeepaliveTag))
		}
		// Program our hop's switch path. (Port n on every switch
		// belongs to node n, by construction of the cluster wiring,
		// which is part of the ubiquitous configuration database —
		// slide 2.) A single-switch hop is one crossbar route from our
		// port to the downstream node's; a hop healing across trunks
		// additionally programs each trunk crossing under our virtual
		// circuit (our node id), so many hops can share a trunk.
		//
		// The trunk-crossing writes are issued as circuit-setup cells:
		// each lands after the fiber flight from this node to its
		// switch along the path (setup accumulates below). Our own
		// frames pay the same flight plus serialization and per-switch
		// cut-through latency, so they can never outrun the setup; a
		// frame already in flight keeps the stale route — identically
		// on the serial and sharded engines, which is what keeps their
		// reports byte-equal when a ring heals under live traffic.
		path := r.PathOf(a.ID)
		now := a.K.Now()
		var setup sim.Time
		if l := a.Cluster.NodeLinks[a.ID][path[0]]; l != nil {
			setup = l.Prop()
		}
		for j, sw := range path {
			ingress := a.ID
			if j > 0 {
				t := a.Cluster.TrunkBetween(path[j-1], sw)
				if t == nil {
					break // trunk died since the database settled; next round heals
				}
				setup += t.Link.Prop()
				ingress = t.PortB
				if t.A == sw {
					ingress = t.PortA
				}
			}
			egress := next
			if j+1 < len(path) {
				t := a.Cluster.TrunkBetween(sw, path[j+1])
				if t == nil {
					break
				}
				egress = t.PortA
				if t.B == sw {
					egress = t.PortB
				}
			}
			if j == 0 {
				a.Cluster.Program(a.Shard, 0, phys.RouteOp{Switch: sw, In: ingress, Out: egress})
			} else {
				a.Cluster.Program(a.Shard, now+setup, phys.RouteOp{Switch: sw, In: ingress, Out: egress, VC: uint16(a.ID), IsVC: true})
			}
		}
		a.Station.SetEgress(via)
	} else {
		a.kaFrame = phys.Frame{}
		a.Station.SetEgress(-1)
	}
	if a.OnAdopt != nil {
		a.OnAdopt(r)
	}
}
