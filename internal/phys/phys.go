// Package phys models AmpNet's FC-0 physical layer (paper, slide 3) and
// the redundant switched topologies of slides 14–15: gigabit serial
// links with real serialization and fiber propagation delay, ports with
// bounded egress FIFOs, switches, and failure injection with
// loss-of-light detection.
//
// SUBST (DESIGN.md): this package replaces the paper's fibre-optic
// hardware. The constants match the Fibre Channel gigabit PHY the paper
// builds on: 1.0625 Gbaud line rate with 8b/10b coding (10 baud per
// byte) and ~5 ns/m propagation in fiber. Loss-of-light is detected by
// the receiver hardware after a configurable latency (default 10 µs).
package phys

import (
	"fmt"

	"repro/internal/enc8b10b"
	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Physical constants (Fibre Channel gigabit PHY).
const (
	// BaudRate is the line rate in symbols (10-bit characters) per
	// second: 1.0625 Gbaud.
	BaudRate = 1_062_500_000
	// NsPerMeter is signal propagation delay in optical fiber.
	NsPerMeter = 5.0
	// DefaultIFG is the inter-frame gap in bytes (two idle words) every
	// transmitter adds after every frame.
	DefaultIFG = 8
	// DefaultDetect is the loss-of-light detection latency.
	DefaultDetect = 10 * sim.Microsecond
	// DefaultFIFO is a new port's egress FIFO capacity in frames
	// (Port.SetCapacity changes one port's).
	DefaultFIFO = 64
)

// SerTime returns the serialization time of n bytes at the line rate
// (10 baud per byte under 8b/10b). Every transmission asks, so the
// sizes a frame can have are answered from a table.
func SerTime(n int) sim.Time {
	if uint(n) < uint(len(serTable)) {
		return serTable[n]
	}
	return serTime(n)
}

func serTime(n int) sim.Time {
	return sim.Time(float64(n)*10*1e9/BaudRate + 0.5)
}

// serTable holds serTime(n) for every n up to the largest frame of any
// wire-format version plus the default inter-frame gap, rounded up to a
// multiple of 64.
var serTable = func() []sim.Time {
	largest := 0
	for _, v := range wire.Versions() {
		largest = max(largest, wire.Size(v, micropacket.TypeDMA, micropacket.MaxPayload))
	}
	t := make([]sim.Time, (largest+DefaultIFG)/64*64+64)
	for n := range t {
		t[n] = serTime(n)
	}
	return t
}()

// PropTime returns the propagation delay across meters of fiber. The
// explicit conversion rounds the product before the half is added, so no
// architecture may fuse the two into one FMA (the Go spec allows it
// otherwise, and arm64 does it) and a link's delay is the same on every
// build.
func PropTime(meters float64) sim.Time {
	return sim.Time(float64(meters*NsPerMeter) + 0.5)
}

// Frame is one MicroPacket in flight, with its wire size (which
// determines serialization time) and a hop count used by the MAC to
// expire frames that would otherwise circulate during roster
// transitions. It is 16 bytes on a 64-bit host: every egress FIFO slot,
// MAC insert-queue slot and pooled hop record holds one.
type Frame struct {
	Pkt *micropacket.Packet
	// Wire is the encoded size in bytes. The largest frame of any wire
	// version (a full 64-byte variable payload) is under 100.
	Wire uint16
	// Hops counts MAC forwards. It must be wide enough for a full tour
	// of the largest addressable ring (a broadcast crosses every hop),
	// so it tracks the micropacket.NodeID width.
	Hops uint16
	// VC is the frame's virtual-circuit tag, stamped by the first
	// switch on a hop with the ingress node-port index (the hop's
	// source node). Switches use it to route frames arriving over
	// inter-switch trunks; see Switch.SetVCRoute.
	VC uint16
	// Prio marks frames queued via SendPriority; used to keep priority
	// traffic FIFO among itself while it overtakes data.
	Prio bool
}

// NewFrame wraps a packet, computing its wire size under the Net's
// wire-format version (frame size sets serialization time, so the
// version is part of the fabric's timing model).
func (n *Net) NewFrame(p *micropacket.Packet) Frame {
	return Frame{Pkt: p, Wire: uint16(wire.Size(n.Wire, p.Type, len(p.Data)))}
}

// Handler receives frames delivered to a port.
type Handler func(p *Port, f Frame)

// StatusHandler is notified of link status changes seen by a port:
// up=false on loss of light, up=true when light returns.
type StatusHandler func(p *Port, up bool)

// RemoteExchange carries frames between the Nets of a sharded fabric.
// When a port transmits to a peer owned by a different Net (a split
// link: the cross-shard fibers of internal/parsim), the frame is not
// delivered by a local kernel event; it is handed to the sender Net's
// exchange with its precise arrival time, and the engine injects it
// into the receiving shard's kernel at a window barrier. Conservative
// lookahead guarantees arrival is always beyond the current window, so
// the handoff never reorders anything.
type RemoteExchange interface {
	// RemoteFrame ships f from src to dst (a port of another Net)
	// arriving at the absolute virtual time arrival. link/epoch are
	// the sending link and its epoch at transmit start; the receiver
	// re-checks them at arrival exactly as a local delivery would, and
	// schedules the arrival under src's wire key (transmit start, port
	// identity) so same-instant ordering matches a one-shard run.
	RemoteFrame(src, dst *Port, f Frame, link *Link, epoch uint64, arrival sim.Time)
}

// Net is a collection of ports and links sharing one simulation kernel
// and one set of PHY parameters.
type Net struct {
	K *sim.Kernel

	// Shard identifies this Net's shard in a sharded fabric (0 when
	// the whole fabric shares one Net). Remote, when set, receives
	// frames transmitted to ports of other Nets; without it such a
	// transmit panics (a split link needs an engine behind it).
	Shard  int
	Remote RemoteExchange

	// Wire is the fabric's wire-format version (see internal/wire): it
	// decides frame sizes (and thereby serialization times) and how
	// node addresses are carried in the DeepPHY datapath. NewNet
	// defaults to V1, the byte-exact historical format; fabrics larger
	// than its one-byte address space must run V2. Every Net of a
	// sharded fabric carries the same version (the builder stamps it
	// from the Topology).
	Wire wire.Version

	// Detect is the loss-of-light detection latency.
	Detect sim.Time

	// DeepPHY, when true, serializes every delivered frame through the
	// full MicroPacket wire codec and the 8b/10b line code and decodes
	// it at the receiver — the hardware datapath, bit for bit. Frames
	// that fail to decode (code violation, bad CRC, broken ordered
	// sets) are discarded and counted as LossCRC, exactly as the NIC
	// hardware discards them; higher layers recover via sequence gaps
	// and cache refresh. Corrupt, if set, may mutate the symbol stream
	// in flight (bit-error injection); dst is the port receiving it.
	DeepPHY bool
	Corrupt func(dst *Port, syms []enc8b10b.Symbol)

	// Acct is the Net's frame-lifecycle ledger, and its only frame
	// counter: every creation, delivery and typed death of a frame on
	// this Net, plus the residual gauges that make the conservation
	// invariant exact mid-flight. Congestion drops, failure losses and
	// CRC discards are read from it (Acct.CongestionDrops,
	// FailureLosses, CRCDrops; deliveries are Acct.WireDelivered).
	// Device code writes it here; readers go through Ledger, which first
	// counts the plans that are due.
	Acct frameacct.Acct

	// Holds counts how device latencies were spent (see Hold).
	Holds HoldStats

	// Packets is the pool the nodes of this Net draw the DMA and Data
	// packets of their sends from; a packet goes back where its frame's
	// life ends (see micropacket.Pool).
	Packets micropacket.Pool

	// ports is every port of the Net, for Settle.
	ports []*Port

	// deepRaw, deepSyms and deepPkt are deepPath's scratch: one frame's
	// bytes, its 10-bit symbols and the packet they decode to,
	// overwritten by the next frame.
	deepRaw  []byte
	deepSyms []enc8b10b.Symbol
	deepPkt  micropacket.Packet

	// Hot-path event pools (see pool.go). Per-Net and therefore
	// per-shard: only ever touched from this Net's kernel context.
	deliveries records[delivery]
	txDones    records[txDone]
	stages     records[stage]
	statuses   records[status]
}

// NewNet creates a physical network on kernel k with default parameters.
func NewNet(k *sim.Kernel) *Net {
	return &Net{K: k, Wire: wire.V1, Detect: DefaultDetect}
}

// Port is one optical transceiver. Frames sent on a port are serialized
// in FIFO order at the line rate and delivered to the peer port after
// the fiber propagation delay.
type Port struct {
	Name string
	net  *Net
	link *Link
	end  int    // 0 or 1: which end of link
	uid  uint32 // stable identity hash of Name; wire-order tie-break

	onFrame  Handler
	onStatus StatusHandler
	onTxDone func()

	// The egress FIFO; its head is the frame being serialized while the
	// transmitter is busy.
	fifo Queue[Frame]
	cap  int

	// Transmitter state. While busy, the head-of-line frame is being
	// serialized and the transmitter frees at the completion key
	// (txEnd, txAt, uid). txLazy means the port is a lazy train: no
	// kernel event exists for any completion, every observer of the
	// transmitter settles the port first, and the hold is off. The FIFO
	// leaves back to back — each frame starts as the one before it ends,
	// the last of them serialized over [tailAt, tailEnd) — and every
	// frame behind the head has its arrival queued already: waiting is
	// the first frame's pooled record, each record links the next, last
	// is the tail's. txArmed means a txDone event is queued under the
	// head's key, and the frames behind it start at events as they come
	// due. hold is the MAC's standing request to be called at completions
	// (HoldTxDone).
	tx              txState
	hold            bool
	txEnd, txAt     sim.Time
	tailEnd, tailAt sim.Time
	waiting, last   *delivery

	// plan is the arrival Net.Hold queued for a frame still inside its
	// device: the port will be idle when the frame emerges and leaves by
	// it, or the frame will join the lazy train still running then,
	// unless something touches the port first, and no kernel event says
	// so. settle promotes the plan once the
	// firing order has passed the key of the stage event it stands in
	// for; whatever would change what that event finds — a Send, the
	// MAC's hold, a link failure, a new egress — takes it back first
	// (Unplan), and the event is queued after all.
	plan *delivery
}

type txState uint8

const (
	txIdle txState = iota
	txLazy
	txArmed
)

// NewPort creates an unconnected port. handler may be nil (frames are
// then counted but discarded); use SetHandler to attach later.
func (n *Net) NewPort(name string, handler Handler) *Port {
	p := &Port{Name: name, net: n, onFrame: handler, cap: DefaultFIFO, uid: nameHash(name)}
	n.ports = append(n.ports, p)
	return p
}

// Settle brings every port of the Net up to the kernel's firing
// position: the ledger, the device counters and the FIFOs then say what
// they would if every device latency and transmit completion were an
// event. Reads of Acct or of a device's Forwarded at an instant come
// after it.
func (n *Net) Settle() {
	for _, p := range n.ports {
		p.settle()
	}
}

// Ledger returns the Net's frame ledger as of now (a settled copy).
func (n *Net) Ledger() frameacct.Acct {
	n.Settle()
	return n.Acct
}

// nameHash is FNV-1a over the port name: an engine-independent port
// identity (a fabric's ports are created in a different order at every
// shard count, but with identical names). The fabric builder makes the
// identities of one fabric non-zero and distinct (resolveUIDs).
func nameHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// UID returns the port's stable identity hash.
func (p *Port) UID() uint32 { return p.uid }

// SetHandler attaches the frame delivery callback.
func (p *Port) SetHandler(h Handler) { p.onFrame = h }

// SetStatusHandler attaches the link status callback.
func (p *Port) SetStatusHandler(h StatusHandler) { p.onStatus = h }

// SetTxDone attaches the callback invoked when the transmitter finishes
// serializing a frame while HoldTxDone is on; MAC layers use it to
// schedule insertion opportunities.
func (p *Port) SetTxDone(h func()) { p.onTxDone = h }

// HoldTxDone turns the tx-done callback on or off. A completion calls
// the callback only while the hold is on, and only a held (or
// contended) transmitter spends a kernel event on its completion, so a
// MAC must hold exactly while a completion could let it act — the
// insertion station holds while it has frames waiting to insert.
// Turning the hold on mid-frame takes effect for that frame's
// completion.
func (p *Port) HoldTxDone(on bool) {
	p.hold = on
	if !on {
		return
	}
	if p.Unplan(); p.tx == txLazy {
		p.voidTrain()
		p.arm()
	}
}

// Net returns the Net (and thereby the shard kernel) owning this port.
func (p *Port) Net() *Net { return p.net }

// Up reports whether the port's link exists and carries light.
func (p *Port) Up() bool { return p.link != nil && p.link.up }

// Peer returns the port at the other end of the link, or nil.
func (p *Port) Peer() *Port {
	if p.link == nil {
		return nil
	}
	return p.link.ports[1-p.end]
}

// QueueLen returns the number of frames waiting in the egress FIFO
// (including the frame currently being serialized).
func (p *Port) QueueLen() int {
	p.settle()
	return p.queued()
}

// queued is QueueLen of an already settled port.
func (p *Port) queued() int { return p.fifo.Len() }

// settle realizes what the kernel's firing order has gone beyond
// without an event for it: the lazy completions (each head frame leaves
// the FIFO, and the frame behind it is on the wire since), then a
// planned relaunch (the frame left its device at the plan's instant) —
// exactly what the events would have left behind. Everything that reads
// or changes transmitter state settles first.
func (p *Port) settle() {
	if p.tx == txLazy && p.net.K.Passed(p.txEnd, p.txAt, p.uid) {
		p.pop()
	}
	if d := p.plan; d != nil && p.net.K.PassedKey(d.at, d.priT, 0, d.seq) {
		p.promote()
	}
}

// pop realizes the lazy completions the firing order has passed, the
// head's first: the head leaves, and the next frame of the train starts
// as it ended.
func (p *Port) pop() {
	for {
		if p.fifo.Pop(); p.queued() == 0 {
			p.tx = txIdle
			return
		}
		// The first waiting frame is on the wire: its arrival is no longer
		// the port's to take back.
		d := p.waiting
		if p.waiting, d.next, d.src = d.next, nil, nil; p.waiting == nil {
			p.last = nil
		}
		p.net.Acct.Launch()
		p.net.Holds.TrainStarts++
		p.txAt, p.txEnd = p.txEnd, p.txEnd+SerTime(int(p.fifo.At(0).Wire)+DefaultIFG)
		if !p.net.K.Passed(p.txEnd, p.txAt, p.uid) {
			return
		}
	}
}

// Unplan settles the port and takes back a plan that is still not due.
// It comes before any change to the port, or to what the device reads
// when a frame emerges (a station's egress), and leaves a port without
// a plan.
func (p *Port) Unplan() {
	if p.settle(); p.plan != nil {
		p.unplan()
	}
}

// arm queues the completion of the frame being serialized as a kernel
// event, under the key it has always had. The port must be settled: the
// key then lies ahead of the firing position, so the event lands where
// it would have had it been queued at transmit start; only its seq is
// later, and (at, priT, priH) is already unique for it — plain events
// carry priH 0, another port another uid, and the same transmission's
// delivery on a zero-length fiber was pushed before it either way. A
// link failure bumps the epoch and clears the FIFO, so a stale
// completion must not pop the new queue.
func (p *Port) arm() {
	p.tx = txArmed
	td := p.net.newTxDone(p, p.link, p.link.epoch)
	p.net.K.DoPri(p.txEnd, p.txAt, p.uid, td)
}

// SetCapacity adjusts the egress FIFO capacity.
func (p *Port) SetCapacity(c int) {
	p.Unplan()
	p.cap = c
}

// Send enqueues a frame for transmission. It returns false — and counts
// a typed loss — if the FIFO is full or the port is not connected. The MAC
// layer above is responsible for avoiding drops via flow control; the
// experiments assert the drop counter stays at zero for AmpNet MACs.
func (p *Port) Send(f Frame) bool {
	p.net.Acct.Offer()
	if p.link == nil || !p.link.up {
		p.net.Acct.Lose(frameacct.LossDarkPort)
		return false
	}
	if p.Unplan(); p.queued() >= p.cap {
		p.net.Acct.Lose(frameacct.LossFifoFull)
		return false
	}
	p.fifo.Push(f)
	p.enqueued(f)
	return true
}

// enqueued follows f into the FIFO of a settled port: an idle
// transmitter starts on it, and a lazy train takes it on at its tail —
// unless the link is split, where the exchange wants the frame when it
// is launched, so the completion ahead of it must happen.
func (p *Port) enqueued(f Frame) {
	p.net.Acct.Enqueue()
	switch {
	case p.tx == txIdle:
		p.startTx()
	case p.tx == txLazy && p.Peer().net != p.net:
		p.arm()
	case p.tx == txLazy:
		p.wait(p.follow(f, p.tailEnd))
		p.tailAt, p.tailEnd = p.tailEnd, p.tailEnd+SerTime(int(f.Wire)+DefaultIFG)
	}
}

// wait links d, the arrival of a frame joining the lazy train, behind
// the train's waiting frames.
func (p *Port) wait(d *delivery) {
	if p.last != nil {
		p.last.next = d
	} else {
		p.waiting = d
	}
	p.last = d
}

// follow queues the arrival of f, launched on p at start with no event
// to say so: a frame joining a lazy train, or a plan. The record names
// p, which settles before recycling it.
func (p *Port) follow(f Frame, start sim.Time) *delivery {
	link := p.link
	d := p.net.newDelivery(link.ports[1-p.end], f, link, link.epoch)
	d.src = p
	p.net.K.DoPri(start+SerTime(int(f.Wire)+DefaultIFG)+link.prop, start, p.uid, d)
	return d
}

// voidTrain takes back the queued arrivals of the frames waiting in a
// lazy train: the records fire as no-ops, and the frames start at events
// after all (Link.Fail clears them instead). The port stays armed until
// it drains — startTx never makes a train of a backlog, or every
// priority frame inserted into a long queue would void all of it again.
func (p *Port) voidTrain() {
	for d := p.waiting; d != nil; {
		next := d.next
		d.void()
		d = next
		p.net.Holds.TrainVoids++
	}
	p.waiting, p.last = nil, nil
}

// SendPriority enqueues a frame ahead of queued frames (behind the one
// currently being serialized). It is not subject to the FIFO capacity:
// rostering traffic must get through even on a congested ring, as the
// hardware's dedicated rostering path guarantees. Returns false only if
// the link is dark.
func (p *Port) SendPriority(f Frame) bool {
	p.net.Acct.Offer()
	if p.link == nil || !p.link.up {
		p.net.Acct.Lose(frameacct.LossDarkPort)
		return false
	}
	f.Prio = true
	if p.Unplan(); p.queued() > 0 {
		// Insert behind the frame being serialized and behind any
		// earlier priority frames (priority is FIFO among itself).
		pos := 1
		for pos < p.queued() && p.fifo.At(pos).Prio {
			pos++
		}
		if p.queued() > 1 && p.tx == txLazy {
			// A priority frame moves the starts of the frames it overtakes,
			// and a flood would grow a train of priority frames whose
			// waiting arrivals each hold a pooled record: the port goes
			// eager instead, for the rest of its busy period.
			p.voidTrain()
			p.arm()
		}
		p.fifo.Insert(pos, f)
	} else {
		p.fifo.Push(f)
	}
	p.enqueued(f)
	return true
}

// startTx begins serializing the head-of-line frame of an idle,
// non-empty port. The completion stays a timestamp, the head of a lazy
// train, unless somebody is already waiting for it: a frame queued
// behind the head, or the MAC's hold.
func (p *Port) startTx() {
	p.net.Acct.Launch()
	f := *p.fifo.At(0)
	ser := SerTime(int(f.Wire) + DefaultIFG)
	link := p.link
	epoch := link.epoch
	dst := link.ports[1-p.end]
	txAt := p.net.K.Now()
	if dst.net != p.net {
		// Split link: the peer lives on another shard's Net. Hand the
		// frame to the exchange with its exact arrival time; the engine
		// injects it into the receiving kernel at a window barrier
		// (always before arrival, by the lookahead bound).
		if p.net.Remote == nil {
			panic(fmt.Sprintf("phys: port %s transmits across Nets without a RemoteExchange", p.Name))
		}
		p.net.Remote.RemoteFrame(p, dst, f, link, epoch, txAt+ser+link.prop)
	} else {
		// Delivery at tx end + propagation, if the link survives. The
		// event carries the wire key (transmit start, port identity):
		// same-instant arrivals order by when their bits hit the fiber
		// on every engine, not by scheduler bookkeeping. The record is
		// pooled and the scheduling Timer-free (see pool.go): the
		// steady-state frame hop does not allocate.
		p.net.ScheduleDelivery(txAt+ser+link.prop, txAt, p.uid, dst, f, link, epoch)
	}
	// Transmitter frees at tx end, under the same wire key.
	p.txEnd, p.txAt = txAt+ser, txAt
	if p.hold || p.queued() > 1 {
		p.arm()
	} else {
		p.tx, p.tailAt, p.tailEnd = txLazy, txAt, txAt+ser
	}
}

// CompleteDelivery is the receive side of a frame's flight: it runs at
// the frame's arrival time on the destination port's Net, re-checks
// that the link survived, applies the DeepPHY datapath, and hands the
// frame to the port's handler. Local deliveries and cross-shard
// injections share this path, so a split link delivers byte-for-byte
// what a local one would.
func (n *Net) CompleteDelivery(dst *Port, f Frame, link *Link, epoch uint64) {
	n.Acct.Arrive()
	if link.epoch != epoch || !link.up {
		n.Acct.Lose(frameacct.LossLinkCut)
		return
	}
	if n.DeepPHY {
		pkt, ok := n.deepPath(dst, f)
		if !ok {
			n.Acct.Lose(frameacct.LossCRC)
			return
		}
		// Only the packet crossed the fiber; the frame's tags (hops, the
		// trunk VC, priority) and wire size travel with it unchanged.
		f.Pkt = pkt
	}
	n.Acct.Deliver()
	if dst.onFrame != nil {
		dst.onFrame(dst, f)
	} else {
		n.Acct.Lose(frameacct.LossNoHandler)
	}
}

// deepPath runs a frame through the real transmit and receive datapath:
// MicroPacket wire encode, 8b/10b line coding, optional corruption, and
// the receive-side decode at dst. It returns the received packet, or
// ok=false when the hardware would discard the frame. Each frame starts
// from the canonical negative running disparity (frames are separated
// by idle fill words that re-establish it). A packet that cannot be
// encoded is a model fault, not a line error: it panics with the packet
// and the error, which the engine turns into the run's Err.
func (n *Net) deepPath(dst *Port, f Frame) (*micropacket.Packet, bool) {
	// The bytes and symbols on the fiber, and the packet they decode to,
	// live in the Net's scratch, so a hop allocates nothing.
	raw, err := wire.AppendEncode(n.deepRaw[:0], n.Wire, f.Pkt)
	if err != nil {
		panic(fmt.Sprintf("phys: DeepPHY cannot encode %v: %v", f.Pkt, err))
	}
	syms, err := wire.AppendSymbols(n.deepSyms[:0], raw, enc8b10b.NewEncoder())
	if err != nil {
		panic(fmt.Sprintf("phys: DeepPHY cannot line-code %v: %v", f.Pkt, err))
	}
	n.deepRaw, n.deepSyms = raw, syms
	if n.Corrupt != nil {
		n.Corrupt(dst, syms)
	}
	raw, err = wire.AppendFrame(raw[:0], syms, enc8b10b.NewDecoder())
	if err != nil {
		return nil, false
	}
	if _, err := wire.DecodeInto(raw, &n.deepPkt); err != nil {
		return nil, false
	}
	// What arrives is what was sent, field for field, unless a bit error
	// got past the CRC: the frame keeps its packet, as on plain PHY.
	if n.deepPkt.Equal(f.Pkt) {
		return f.Pkt, true
	}
	return n.deepPkt.Clone(), true
}

// statusWatcher is a fabric-level observer of a link's light, bound to
// the kernel it must be notified on (its shard's kernel in a sharded
// fabric). Watchers fire after the same detection latency as port
// status handlers.
type statusWatcher struct {
	k  *sim.Kernel
	fn func()
}

// Link is a bidirectional fiber between two ports.
type Link struct {
	ports  [2]*Port
	prop   sim.Time
	up     bool
	epoch  uint64 // incremented on every failure, invalidating in-flight frames
	net    *Net
	Meters float64

	watchers []statusWatcher
}

// Connect joins two ports with meters of fiber. Both ports must be
// unconnected. The ports may belong to different Nets (a split link of
// a sharded fabric); state flips (Fail/Restore) must then only happen
// while both shards are parked on a window barrier.
func (n *Net) Connect(a, b *Port, meters float64) *Link {
	if a.link != nil || b.link != nil {
		panic(fmt.Sprintf("phys: port already connected (%s / %s)", a.Name, b.Name))
	}
	l := &Link{ports: [2]*Port{a, b}, prop: PropTime(meters), up: true, net: n, Meters: meters}
	a.link, a.end = l, 0
	b.link, b.end = l, 1
	return l
}

// Watch registers a status observer fired on kernel k after the
// detection latency whenever the link's light changes; it reads Up if
// it needs the direction. The rostering layer uses it to sense trunk
// failures from every shard.
func (l *Link) Watch(k *sim.Kernel, fn func()) {
	l.watchers = append(l.watchers, statusWatcher{k: k, fn: fn})
}

// Up reports whether the link carries light.
func (l *Link) Up() bool { return l.up }

// Prop returns the one-way propagation delay.
func (l *Link) Prop() sim.Time { return l.prop }

// Fail cuts the fiber: in-flight frames are lost immediately and both
// ports observe loss of light after the detection latency.
func (l *Link) Fail() {
	if !l.up {
		return
	}
	// Both ends settle and give up their plans before anything changes: a
	// plan that is due is a frame launched under the old epoch (its
	// arrival dies as a stale-epoch LossLinkCut, and the ledger must have
	// seen it leave the device), one that is not must meet the dark port
	// when its stage event fires.
	for _, p := range l.ports {
		p.Unplan()
	}
	l.up = false
	l.epoch++
	for _, p := range l.ports {
		// Frames queued behind the serializing head die here, uncounted
		// by any delivery event (a train's queued arrivals are void); the
		// head itself (if the transmitter was busy) is already launched
		// and its scheduled arrival dies as a counted stale-epoch
		// LossLinkCut.
		cleared := p.queued()
		if p.tx != txIdle {
			cleared--
		}
		p.voidTrain()
		p.net.Acct.ClearFifo(cleared)
		p.fifo.Clear()
		p.tx = txIdle
	}
	l.notify(false)
}

// notify schedules the loss/return-of-light observations: each port's
// status handler on that port's own kernel, then every fabric watcher
// on its registered kernel — all after the detection latency. On a
// single-Net fabric every event lands on the same kernel with
// consecutive sequence numbers, which is exactly the historical
// ordering; on a sharded fabric each shard senses the change on its own
// kernel at the same virtual instant. Port observations are pooled
// records (pool.go) and watchers are scheduled as registered, so a
// fault allocates nothing.
func (l *Link) notify(up bool) {
	for _, p := range l.ports {
		p.net.statusAt(p.net.K.Now()+p.net.Detect, p, up)
	}
	for _, w := range l.watchers {
		w.k.Do(w.k.Now()+l.net.Detect, w.fn)
	}
}

// Restore re-lights the fiber; ports observe light after the detection
// latency.
func (l *Link) Restore() {
	if l.up {
		return
	}
	l.up = true
	l.notify(true)
}
