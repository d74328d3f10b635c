package phys

import (
	"fmt"

	"repro/internal/sim"
)

// Hot-path event pools.
//
// Every frame hop used to cost four heap allocations: a delivery
// closure and its Timer, and a tx-done closure and its Timer. At E15
// scale (millions of frame hops) those allocations — and the GC scan
// load of the closures they retain — dominate the profile next to heap
// operations. The records below make the steady state allocation-free:
// each Net keeps one pool per record type — delivery, tx-done,
// device-latency stage, port status — and each record is its own
// sim.Event, queued through the kernel's DoPri/DoKey fast path with
// no Timer and no closure. A pool whose free list is empty cuts its
// next record from a block of recordBlock; blocks are never given
// back, their records cycle through the free list for the Net's life.
//
// Records are recycled at the top of Fire (fields copied to locals,
// record pushed back on the free list, then the work runs), so a model
// callback that transmits more frames reuses the very record that
// delivered to it. The pools are per-Net and therefore per-shard: they
// are only touched from their own kernel's event context (or, for
// cross-shard injection, from the coordinator while every shard is
// parked at a barrier), the same single-threaded discipline as the
// rest of the Net's state.

// recordBlock is how many records a pool cuts at once.
const recordBlock = 16

// records is a Net's pool of one record type: a free list, and the
// block new records are cut from when it is empty.
type records[T any] struct {
	free  []*T
	block []T
}

// get returns a free record, or a zero one cut from the block.
func (r *records[T]) get() *T {
	if m := len(r.free); m > 0 {
		x := r.free[m-1]
		r.free = r.free[:m-1]
		return x
	}
	if len(r.block) == 0 {
		r.block = make([]T, recordBlock)
	}
	x := &r.block[0]
	r.block = r.block[1:]
	return x
}

// put returns x to the free list.
func (r *records[T]) put(x *T) { r.free = append(r.free, x) }

// delivery carries one scheduled frame arrival (local hop or
// cross-shard injection).
type delivery struct {
	n     *Net
	dst   *Port
	f     Frame
	link  *Link
	epoch uint64

	// src is set while a port points at the record — a plan, or the
	// arrival of a frame waiting in a lazy train (Port.plan,
	// Port.waiting, linked through next) — and Fire settles that
	// port before it recycles the record. A void arrival, taken back with
	// its train or its plan, has neither src nor dst.
	src  *Port
	next *delivery
	// While the arrival is a plan (Net.Hold queued it before the frame
	// left its device) dev is set, start is when src will launch it and
	// the rest is what the device-latency stage the plan stands in for
	// would have carried: the device's argument and the stage's key (at,
	// priT, 0, seq).
	dev             Device
	arg             int
	at, priT, start sim.Time
	seq             uint64
}

func (n *Net) newDelivery(dst *Port, f Frame, link *Link, epoch uint64) *delivery {
	d := n.deliveries.get()
	d.n, d.dst, d.f, d.link, d.epoch = n, dst, f, link, epoch
	return d
}

// Fire lands the frame, unless the arrival was voided.
func (d *delivery) Fire() {
	if d.src != nil {
		// A frame arrives a serialization time after it started, so the
		// settled port has let go of the record (promote, pop).
		d.src.settle()
	}
	n, dst, f, link, epoch := d.n, d.dst, d.f, d.link, d.epoch
	d.dst, d.f, d.link = nil, Frame{}, nil
	n.deliveries.put(d)
	if dst != nil {
		n.CompleteDelivery(dst, f, link, epoch)
	}
}

// ScheduleDelivery queues a pooled frame arrival on this Net's kernel
// at the absolute time arrival, under the wire key (txAt, srcUID). It
// is the shared scheduling path for local hops (Port.startTx) and for
// the engine's cross-shard barrier injection, so both cost zero
// allocations and land in the identical same-instant order.
func (n *Net) ScheduleDelivery(arrival, txAt sim.Time, srcUID uint32, dst *Port, f Frame, link *Link, epoch uint64) {
	d := n.newDelivery(dst, f, link, epoch)
	n.K.DoPri(arrival, txAt, srcUID, d)
}

// txDone carries one armed transmitter-free event (Port.arm; most
// completions stay a timestamp on the port and never get one). It is
// pooled — not a single reusable record per port — because two can be
// in flight for one port at once: a link failure clears the FIFO
// mid-frame and a restore lets a new transmission start before the
// stale completion (which the epoch check parries) has fired.
type txDone struct {
	n     *Net
	p     *Port
	link  *Link
	epoch uint64
}

func (n *Net) newTxDone(p *Port, link *Link, epoch uint64) *txDone {
	t := n.txDones.get()
	t.n, t.p, t.link, t.epoch = n, p, link, epoch
	return t
}

// Fire frees the transmitter, unless a link fault came in between.
func (t *txDone) Fire() {
	n, p, link, epoch := t.n, t.p, t.link, t.epoch
	t.p, t.link = nil, nil
	n.txDones.put(t)
	if link.epoch != epoch {
		return
	}
	p.fifo.Pop()
	p.tx = txIdle
	if p.queued() > 0 {
		p.startTx()
	}
	if p.hold && p.onTxDone != nil {
		p.onTxDone()
	}
}

// Device is the far side of a device-latency stage: a switch or a
// station, anything a frame spends a fixed pipeline delay inside.
type Device interface {
	// Emerge takes the frame back when its latency has elapsed; arg is
	// whatever the device passed to Hold.
	Emerge(arg int, f Frame)
	// CountForward counts a frame that left by the egress port Hold was
	// given without Emerge being called — what Emerge counts before it
	// relaunches one.
	CountForward()
}

// stage carries one frame through a device's fixed pipeline delay
// (switch cut-through, insertion register) as a kernel event.
type stage struct {
	n   *Net
	dev Device
	arg int
	f   Frame
}

// status carries one port's loss/return-of-light observation to the
// port's status handler (Link.notify).
type status struct {
	p  *Port
	up bool
}

// statusAt queues p's status observation at time at on this Net's
// kernel, which must be p's, under the key a Do would have given it.
func (n *Net) statusAt(at sim.Time, p *Port, up bool) {
	s := n.statuses.get()
	s.p, s.up = p, up
	n.K.DoPri(at, n.K.Now(), 0, s)
}

// Fire hands the observation to the port's status handler.
func (s *status) Fire() {
	p, up := s.p, s.up
	s.p = nil
	p.net.statuses.put(s)
	if p.onStatus != nil {
		p.onStatus(p, up)
	}
}

// HoldStats counts what Hold did with the frames devices gave it, and
// what lazy trains did with the frames queued behind a busy head.
type HoldStats struct {
	// Planned frames cost no stage event, unless the plan was taken back
	// (Unplanned) because something touched the egress port first.
	Planned, Unplanned uint64
	// The rest were staged at once, for want of an egress port to plan
	// on (NoEgress: flood fan-out, an unrouted exit) or because the port
	// was armed, full or already planned (Busy), held by its MAC (Held),
	// dark (Dark) or the near end of a cross-shard link (Split).
	NoEgress, Busy, Held, Dark, Split uint64
	// TrainStarts counts frames a lazy train started as the frame ahead
	// of them ended, with no txDone event; TrainVoids the arrivals of
	// waiting frames a train taken back voided.
	TrainStarts, TrainVoids uint64
}

// Add sums o into h (the per-shard Nets of one fabric).
func (h *HoldStats) Add(o HoldStats) {
	h.Planned += o.Planned
	h.Unplanned += o.Unplanned
	h.NoEgress += o.NoEgress
	h.Busy += o.Busy
	h.Held += o.Held
	h.Dark += o.Dark
	h.Split += o.Split
	h.TrainStarts += o.TrainStarts
	h.TrainVoids += o.TrainVoids
}

// String renders the counts on one line, for ampsim.
func (h HoldStats) String() string {
	return fmt.Sprintf("%d planned (%d taken back), %d staged: no-egress %d, busy %d, held %d, dark %d, split %d; trains started %d frames (%d arrivals voided)",
		h.Planned, h.Unplanned, h.NoEgress+h.Busy+h.Held+h.Dark+h.Split, h.NoEgress, h.Busy, h.Held, h.Dark, h.Split,
		h.TrainStarts, h.TrainVoids)
}

// Hold keeps f inside dev for latency, then hands it to dev.Emerge. The
// frame is counted in the ledger's in-device gauge for exactly that
// long; what becomes of it afterwards is Emerge's to account.
//
// egress, when not nil, is the port Emerge will relaunch f on if nothing
// changes in between. If that port is lit, not held, on this Net and
// idle, or a lazy train with room behind it, the stage is not queued:
// the port keeps a plan and the frame's next arrival is queued straight
// away, under the key the relaunch would have given it (see Port.plan).
// Everything else — and every plan something touches before it is due —
// goes through the stage event.
func (n *Net) Hold(latency sim.Time, dev Device, arg int, f Frame, egress *Port) {
	n.Acct.Enter()
	now := n.K.Now()
	// The sequence number the stage event takes, queued or not.
	seq := n.K.Reserve()
	if egress == nil {
		n.Holds.NoEgress++
	} else if egress.planFor(now+latency, now, seq, dev, arg, f) {
		return
	}
	n.stageAt(now+latency, now, seq, dev, arg, f)
}

// stageAt queues the stage event of (dev, arg, f) under the complete
// key (at, priT, 0, seq).
func (n *Net) stageAt(at, priT sim.Time, seq uint64, dev Device, arg int, f Frame) {
	st := n.stages.get()
	st.n, st.dev, st.arg, st.f = n, dev, arg, f
	n.K.DoKey(at, priT, 0, seq, st)
}

// Fire hands the frame back to its device.
func (st *stage) Fire() {
	n, dev, arg, f := st.n, st.dev, st.arg, st.f
	st.dev, st.f = nil, Frame{}
	n.stages.put(st)
	n.Acct.Exit()
	dev.Emerge(arg, f)
}

// planFor tries to leave the relaunch of f at time at on p as a plan
// instead of a stage event; (at, priT, 0, seq) is that event's key. It
// reports false, having changed nothing, if p's transmitter cannot be
// known then: the frame starts at once on a port idle by then, or at
// the tail of a lazy train still running, with room for one more.
func (p *Port) planFor(at, priT sim.Time, seq uint64, dev Device, arg int, f Frame) bool {
	n := p.net
	p.settle()
	link, dst := p.link, p.Peer()
	// The train's last completion key (tailEnd, tailAt, uid) lies above
	// the stage's: the frame emerges behind it. One that lies below ends
	// the train before the frame emerges onto an idle port.
	behind := p.tx == txLazy && (p.tailEnd > at || p.tailEnd == at && p.tailAt >= priT)
	switch {
	case link == nil || !link.up:
		n.Holds.Dark++
	case p.plan != nil || p.tx == txArmed || p.cap <= 0 || behind && p.queued() >= p.cap:
		// A second frame for a planned port is staged; its Send finds the
		// plan due, or takes it back.
		n.Holds.Busy++
	case p.hold:
		n.Holds.Held++
	case dst.net != n:
		// The exchange wants the frame when it is launched, not before.
		n.Holds.Split++
	default:
		n.Holds.Planned++
		start := at
		if behind {
			start = p.tailEnd
		}
		d := p.follow(f, start)
		d.dev, d.arg, d.at, d.priT, d.seq, d.start = dev, arg, at, priT, seq, start
		p.plan = d
		return true
	}
	return false
}

// promote makes a due plan what its stage event would have left behind:
// the frame out of the device and relaunched — at the tail of the train
// it was made behind if that still runs, and otherwise on the wire since
// its start, or through already (its own arrival promotes a plan nobody
// looked at, a serialization time after the start). The port is settled
// up to the plan: whatever train it was made behind and has outlasted
// is gone.
func (p *Port) promote() {
	d := p.plan
	p.plan = nil
	a := &p.net.Acct
	a.Exit()
	d.dev.CountForward()
	d.dev = nil
	a.Relaunch()
	a.Offer()
	a.Enqueue()
	end := d.start + SerTime(int(d.f.Wire)+DefaultIFG)
	switch {
	case p.tx != txIdle:
		p.fifo.Push(d.f)
		p.wait(d)
	case p.net.K.Passed(end, d.start, p.uid):
		a.Launch()
		d.src = nil
	default:
		a.Launch()
		p.fifo.Push(d.f)
		p.tx, p.txAt, p.txEnd = txLazy, d.start, end
		d.src = nil
	}
	p.tailAt, p.tailEnd = d.start, end
}

// unplan takes back a plan that is not due: the queued arrival is void
// and the stage event goes in under its key, to find whatever has
// changed when it fires.
func (p *Port) unplan() {
	d := p.plan
	p.plan = nil
	p.net.Holds.Unplanned++
	p.net.stageAt(d.at, d.priT, d.seq, d.dev, d.arg, d.f)
	d.void()
}

// void takes back a queued arrival: it fires as a no-op.
func (d *delivery) void() {
	d.dst, d.src, d.next, d.dev, d.f = nil, nil, nil, nil, Frame{}
}
