package phys

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/sim"
)

// A port's transmit completions are lazy: usually timestamps the port
// settles against the kernel's firing position, an event only once
// somebody waits for one. A backlog behind a lazy head is a train, each
// frame starting as the one before it ends, its arrival queued as it
// joins. A device latency in front of an idle port or a running train is
// folded the same way: Net.Hold leaves a plan on the port and queues the
// frame's arrival, and the stage event exists only if something touches
// the port first. None of that may show. These tests drive a byte-coded
// op stream against a real port pair and against refPort — the same
// transmitter with its completion always scheduled and every device
// latency an event, the behaviour's definition — each on its own kernel,
// and compare everything observable after every op: delivery times and
// order, every QueueLen reading, every tx-done call, Drops/Lost/
// Delivered, the forwards the device counted and the settled frame
// ledger.

// txPort is what the op stream drives on either side.
type txPort interface {
	Send(Frame) bool
	SendPriority(Frame) bool
	QueueLen() int
	HoldTxDone(on bool)
}

// refNet, refLink and refPort are the eager reference: Port, Link and
// the Net counters as they are specified, with a kernel event for every
// completion.
type refNet struct {
	k                      *sim.Kernel
	detect                 sim.Time
	drops, lost, delivered uint64
	forwards               uint64
	acct                   frameacct.Acct
}

type refLink struct {
	n     *refNet
	ports [2]*refPort
	prop  sim.Time
	up    bool
	epoch uint64
}

type refPort struct {
	n   *refNet
	l   *refLink
	end int
	uid uint32
	cap int

	fifo []Frame
	busy bool
	hold bool
	// txEnd, txAt key the completion of the frame being serialized; the
	// op decoder aims readers at them.
	txEnd, txAt sim.Time

	onFrame  func(Frame)
	onStatus func(up bool)
	onTxDone func()
}

func (p *refPort) QueueLen() int      { return len(p.fifo) }
func (p *refPort) HoldTxDone(on bool) { p.hold = on }

func (p *refPort) offer() bool {
	p.n.acct.Offer()
	if !p.l.up {
		p.n.lost++
		p.n.acct.Lose(frameacct.LossDarkPort)
		return false
	}
	return true
}

func (p *refPort) enqueued() {
	p.n.acct.Enqueue()
	if !p.busy {
		p.startTx()
	}
}

func (p *refPort) Send(f Frame) bool {
	if !p.offer() {
		return false
	}
	if len(p.fifo) >= p.cap {
		p.n.drops++
		p.n.acct.Lose(frameacct.LossFifoFull)
		return false
	}
	p.fifo = append(p.fifo, f)
	p.enqueued()
	return true
}

func (p *refPort) SendPriority(f Frame) bool {
	if !p.offer() {
		return false
	}
	f.Prio = true
	pos := len(p.fifo)
	if p.busy {
		for pos = 1; pos < len(p.fifo) && p.fifo[pos].Prio; pos++ {
		}
	}
	p.fifo = slices.Insert(p.fifo, pos, f)
	p.enqueued()
	return true
}

// holdFrame is Net.Hold in front of this port, as specified: the frame sits
// in the device for lat, then the device counts it, relaunches it and
// sends it — whatever the port looks like by then.
func (p *refPort) holdFrame(lat sim.Time, f Frame) {
	n := p.n
	n.acct.Enter()
	n.k.Do(n.k.Now()+lat, func() {
		n.acct.Exit()
		n.forwards++
		n.acct.Relaunch()
		p.Send(f)
	})
}

// txDevice is the real side's device: Station.Emerge without a station.
type txDevice struct {
	ports    [2]*Port
	forwards uint64
}

func (d *txDevice) CountForward() { d.forwards++ }

func (d *txDevice) Emerge(arg int, f Frame) {
	d.CountForward()
	d.ports[arg].net.Acct.Relaunch()
	d.ports[arg].Send(f)
}

func (p *refPort) startTx() {
	if len(p.fifo) == 0 {
		p.busy = false
		return
	}
	p.busy = true
	n, l := p.n, p.l
	n.acct.Launch()
	f, epoch, dst := p.fifo[0], l.epoch, l.ports[1-p.end]
	p.txAt = n.k.Now()
	p.txEnd = p.txAt + SerTime(int(f.Wire)+DefaultIFG)
	n.k.DoPri(p.txEnd+l.prop, p.txAt, p.uid, sim.Func(func() {
		n.acct.Arrive()
		if l.epoch != epoch || !l.up {
			n.lost++
			n.acct.Lose(frameacct.LossLinkCut)
			return
		}
		n.delivered++
		n.acct.Deliver()
		dst.onFrame(f)
	}))
	n.k.DoPri(p.txEnd, p.txAt, p.uid, sim.Func(func() {
		if l.epoch != epoch {
			return
		}
		p.fifo = p.fifo[1:]
		p.startTx()
		if p.hold {
			p.onTxDone()
		}
	}))
}

func (l *refLink) fail() {
	if !l.up {
		return
	}
	l.up = false
	l.epoch++
	for _, p := range l.ports {
		cleared := len(p.fifo)
		if p.busy {
			cleared--
		}
		l.n.acct.ClearFifo(cleared)
		p.fifo, p.busy = nil, false
	}
	l.notify(false)
}

func (l *refLink) restore() {
	if l.up {
		return
	}
	l.up = true
	l.notify(true)
}

func (l *refLink) notify(up bool) {
	for _, p := range l.ports {
		l.n.k.Do(l.n.k.Now()+l.n.detect, func() { p.onStatus(up) })
	}
}

// txSide is one side of the comparison: a kernel, the port pair on it,
// and the log of everything the model code on that side observed.
type txSide struct {
	k             *sim.Kernel
	ports         [2]txPort
	fail, restore func()
	hold          func(port int, lat sim.Time, f Frame)
	counters      func() string
	log           []string
	// hostQ holds frames a port's tx-done callback sends, one per call —
	// the insertion MAC's use of the callback.
	hostQ [2][]Frame
}

func (s *txSide) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf("%d "+format, append([]any{int64(s.k.Now())}, args...)...))
}

// Frame tags carry what the receiver does with the frame in their low
// two bits: reply on its own port, send on the port the frame came from
// (whose completion, on a zero-length fiber, is this very instant and
// not yet passed), or nothing.
const (
	tagReplyOwn = iota
	tagReplyPeer
	tagQuiet
	tagReply // a reply: quiet
)

func (s *txSide) onFrame(i int, f Frame) {
	s.logf("rx p%d tag=%d own=%d peer=%d", i, f.Pkt.Tag, s.ports[i].QueueLen(), s.ports[1-i].QueueLen())
	switch reply := txFrame(f.Pkt.Tag|tagReply, 0); f.Pkt.Tag & 3 {
	case tagReplyOwn:
		s.logf("reply p%d ok=%v", i, s.ports[i].Send(reply))
	case tagReplyPeer:
		s.logf("reply p%d ok=%v", 1-i, s.ports[1-i].Send(reply))
	}
}

func (s *txSide) onTxDone(i int) {
	s.logf("txdone p%d", i)
	if q := s.hostQ[i]; len(q) > 0 {
		s.hostQ[i] = q[1:]
		s.logf("insert p%d ok=%v", i, s.ports[i].Send(q[0]))
	}
}

func txFrame(tag uint8, size int) Frame {
	p := micropacket.NewDMA(1, 2, micropacket.DMAHeader{}, make([]byte, size))
	p.Tag = tag
	return newFrameV1(p)
}

// portAction is one thing the stream does to a port — from driver
// context at once, or from inside a scheduled event.
type portAction struct {
	kind int
	port int
	f    Frame
	lat  sim.Time // actHold: the device's latency
}

const (
	actQueueLen = iota
	actSend
	actSendPriority
	actHoldOn
	actHoldOff
	actFail
	actRestore
	actStop
	numActs // the kinds an action byte's three bits code
	// actHold is a frame held in a device in front of the port for 40 or
	// 200 ns, then sent; opHold and opScheduleHold make it.
	actHold = numActs
)

func (s *txSide) do(a portAction) {
	p := s.ports[a.port]
	switch a.kind {
	case actQueueLen:
		s.logf("qlen p%d = %d", a.port, p.QueueLen())
	case actSend:
		s.logf("send p%d tag=%d ok=%v", a.port, a.f.Pkt.Tag, p.Send(a.f))
	case actSendPriority:
		s.logf("sendpri p%d tag=%d ok=%v", a.port, a.f.Pkt.Tag, p.SendPriority(a.f))
	case actHoldOn:
		p.HoldTxDone(true)
	case actHoldOff:
		p.HoldTxDone(false)
	case actFail:
		s.fail()
	case actRestore:
		s.restore()
	case actHold:
		s.logf("hold p%d tag=%d", a.port, a.f.Pkt.Tag)
		s.hold(a.port, a.lat, a.f)
	case actStop:
		// Leaves the kernel mid-instant, as Kernel.Step would: the two
		// kernels hold different events (that is the point), so a
		// literal Step cannot be applied to both in lockstep, but a
		// scheduled Stop lands at the same key on both.
		s.logf("stop")
		s.k.Stop()
	}
}

// txHarness applies each op to both sides.
type txHarness struct {
	t     testing.TB
	real  txSide
	ref   txSide
	rp    [2]*Port    // the real ports, for the corpus' white-box hit checks
	refp  [2]*refPort // the reference ports, whose txEnd the decoder aims at
	tag   uint8
	lastK int // kind of the previous op
	hits  map[string]bool

	stopped bool // the last run ended in a Stop

	// The real Net's counts of voided train arrivals and taken-back plans
	// before the action under way, and the hit it scores if it takes back
	// a plan behind a train (planBehind).
	voids, unplanned uint64
	planBehind       string

	failedLazyUntil sim.Time // stale txEnd of a port that was lazy when the link failed
	heldLazy        [2]sim.Time
	// emergeAt is when the last frame held in front of each port
	// emerges; the op decoder aims at it.
	emergeAt [2]sim.Time
	// ledger is the real side's counters read through Net.Ledger, which
	// settles the ports.
	ledger func() string
}

const txCap = 4

func newTxHarness(t testing.TB, meters float64) *txHarness {
	h := &txHarness{t: t, hits: map[string]bool{}}

	k := sim.NewKernel(1)
	n := NewNet(k)
	a, b := n.NewPort("a", nil), n.NewPort("b", nil)
	link := n.Connect(a, b, meters)
	h.rp = [2]*Port{a, b}
	dev := &txDevice{ports: h.rp}
	h.real = txSide{k: k, ports: [2]txPort{a, b}, fail: link.Fail, restore: link.Restore,
		hold: func(port int, lat sim.Time, f Frame) { n.Hold(lat, dev, port, f, h.rp[port]) },
		counters: func() string {
			// What Ledger would say, worked out without settling anything:
			// the checks must leave the ports as the ops left them.
			acct, forwards := n.Acct, dev.forwards
			for _, p := range h.rp {
				forwards += unsettled(k, p, &acct)
			}
			return fmt.Sprint(acct.CongestionDrops(), acct.FailureLosses(), acct.WireDelivered, forwards, acctFields(&acct))
		}}
	h.ledger = func() string {
		acct := n.Ledger()
		return fmt.Sprint(acct.CongestionDrops(), acct.FailureLosses(), acct.WireDelivered, dev.forwards, acctFields(&acct))
	}

	rn := &refNet{k: sim.NewKernel(1), detect: n.Detect}
	rl := &refLink{n: rn, prop: PropTime(meters), up: true}
	h.ref = txSide{k: rn.k, fail: rl.fail, restore: rl.restore,
		counters: func() string {
			return fmt.Sprint(rn.drops, rn.lost, rn.delivered, rn.forwards, acctFields(&rn.acct))
		}}
	for i, p := range h.rp {
		p.SetCapacity(txCap)
		p.SetHandler(func(_ *Port, f Frame) {
			reply := portAction{kind: actSend, port: 1 - i}
			if f.Pkt.Tag&3 == tagReplyPeer {
				h.note(reply)
			}
			h.real.onFrame(i, f)
			if f.Pkt.Tag&3 == tagReplyPeer {
				h.noteDone(reply)
			}
		})
		p.SetStatusHandler(func(_ *Port, up bool) { h.real.logf("status p%d up=%v", i, up) })
		p.SetTxDone(func() { h.real.onTxDone(i) })

		r := &refPort{n: rn, l: rl, end: i, uid: p.uid, cap: txCap}
		r.onFrame = func(f Frame) { h.ref.onFrame(i, f) }
		r.onStatus = func(up bool) { h.ref.logf("status p%d up=%v", i, up) }
		r.onTxDone = func() { h.ref.onTxDone(i) }
		rl.ports[i], h.refp[i], h.ref.ports[i] = r, r, r
	}
	h.ref.hold = func(port int, lat sim.Time, f Frame) { h.refp[port].holdFrame(lat, f) }
	return h
}

// unsettled adds to acct what settling p would count, and returns the
// forwards it would count, without settling: every completion of a lazy
// train the firing order has passed starts the frame behind it, and a
// due plan leaves its device — launched at once if the train it was
// made behind is over by then, queued at the train's tail if not.
func unsettled(k *sim.Kernel, p *Port, acct *frameacct.Acct) (forwards uint64) {
	left := 0
	if p.tx == txLazy {
		left = p.fifo.Len()
		at, end := p.txAt, p.txEnd
		for left > 0 && k.Passed(end, at, p.uid) {
			if left--; left > 0 {
				acct.Launch()
				at, end = end, end+SerTime(int(p.fifo.At(p.fifo.Len()-left).Wire)+DefaultIFG)
			}
		}
	}
	if d := p.plan; d != nil && k.PassedKey(d.at, d.priT, 0, d.seq) {
		forwards++
		acct.Exit()
		acct.Relaunch()
		acct.Offer()
		acct.Enqueue()
		if left == 0 {
			acct.Launch()
		}
	}
	return forwards
}

func acctFields(a *frameacct.Acct) string {
	return fmt.Sprint(a.Offered, a.WireDelivered, a.Relaunched, a.Losses, a.InFifo, a.InFlight, a.InDevice)
}

const (
	opAct       = iota // an action from driver context, now
	opSchedule         // an action from inside an event
	opHostQueue        // a frame for the port's tx-done callback to send
	opRunUntil
	opAdvanceTo
	opHold         // opAct with a held frame
	opScheduleHold // opSchedule with a held frame
	numTxOps
)

// Key modes of a scheduled action; the modes below keyBelowH are plain.
const (
	keyBelowH = 4 + iota
	keyAboveH
	keyBelowT
	keyAboveT
)

// when decodes an absolute time at or after now: a few ns or a few
// frame times ahead, now itself, or on and around the instant port
// a&1's transmitter frees or the frame held in front of it emerges.
func (h *txHarness) when(a, b byte) sim.Time {
	now := h.ref.k.Now()
	switch b % 5 {
	case 0:
		return now + sim.Time(a)
	case 1:
		return now + sim.Time(a)*16
	case 2:
		return max(now, h.refp[a&1].txEnd+sim.Time(a>>1&3)-1)
	case 3:
		return max(now, h.emergeAt[a&1]+sim.Time(a>>1&3)-1)
	}
	return now
}

// apply executes one four-byte op on both sides.
func (h *txHarness) apply(op, a, b, c byte) {
	kind := int(op) % numTxOps
	switch kind {
	case opAct, opHold:
		act := h.action(kind, a)
		h.emergeAt[act.port] = h.ref.k.Now() + act.lat
		h.noteDriver(act)
		h.real.do(act)
		h.noteDone(act)
		h.ref.do(act)
	case opSchedule, opScheduleHold:
		// The rest of the op byte picks the event's key: plain, or one
		// notch below or above the completion key (txAt, uid) of the
		// port acted on.
		act, at, mode := h.action(kind, c), h.when(a, b), int(op)/numTxOps%8
		h.emergeAt[act.port] = at + act.lat
		if mode < keyBelowH {
			h.real.k.Do(at, func() { h.noteEvent(act, mode); h.real.do(act); h.noteDone(act) })
			h.ref.k.Do(at, func() { h.ref.do(act) })
			break
		}
		p := h.refp[act.port]
		priT, priH := p.txAt, p.uid
		switch mode {
		case keyBelowH:
			priH--
		case keyAboveH:
			priH++
		case keyBelowT:
			priT--
		case keyAboveT:
			priT++
		}
		h.real.k.DoPri(at, priT, priH, sim.Func(func() { h.noteEvent(act, mode); h.real.do(act); h.noteDone(act) }))
		h.ref.k.DoPri(at, priT, priH, sim.Func(func() { h.ref.do(act) }))
	case opHostQueue:
		f := h.frame(a)
		h.real.hostQ[a&1] = append(h.real.hostQ[a&1], f)
		h.ref.hostQ[a&1] = append(h.ref.hostQ[a&1], f)
	case opRunUntil:
		at := h.when(a, b)
		h.stopped = false
		h.real.k.RunUntil(at)
		h.ref.k.RunUntil(at)
	case opAdvanceTo:
		// The reference holds every event the real kernel does and the
		// completions and device latencies besides — all but the void
		// arrival a plan taken back leaves queued.
		at := h.when(a, b)
		for _, k := range []*sim.Kernel{h.ref.k, h.real.k} {
			if next, ok := k.NextEventTime(); ok {
				at = min(at, next)
			}
		}
		h.real.k.AdvanceTo(at)
		h.ref.k.AdvanceTo(at)
	}
	h.lastK = kind
	h.check()
}

// frame builds the next frame: size and receiver behaviour from a.
func (h *txHarness) frame(a byte) Frame {
	h.tag += 4
	return txFrame(h.tag|a>>1&3, [...]int{0, 16, 40, 64}[a>>3&3])
}

// action decodes an action byte: kind<<5 | frame size<<3 | receiver
// behaviour<<1 | port, or for the hold ops latency<<5 in place of the
// kind.
func (h *txHarness) action(op int, a byte) portAction {
	act := portAction{kind: int(a>>5) % numActs, port: int(a & 1)}
	if op == opHold || op == opScheduleHold {
		act.kind, act.lat = actHold, [...]sim.Time{40, 200}[a>>5&1]
	}
	if act.kind == actSend || act.kind == actSendPriority || act.kind == actHold {
		act.f = h.frame(a)
	}
	return act
}

// noteDriver and noteEvent record, from the real port's internals,
// which of the states the seed corpus is there for an action met.
func (h *txHarness) noteDriver(a portAction) {
	p, now := h.rp[a.port], h.real.k.Now()
	if a.kind == actQueueLen && p.tx == txLazy && p.txEnd == now {
		switch {
		case h.stopped:
			h.hits["driver-read-after-stop-at-txEnd"] = true
		case h.lastK == opRunUntil:
			h.hits["driver-read-after-run-ended-on-txEnd"] = true
		case h.lastK == opAdvanceTo:
			h.hits["driver-read-after-advance-to-txEnd"] = true
		}
	}
	h.note(a)
}

func (h *txHarness) noteEvent(a portAction, mode int) {
	p, now := h.rp[a.port], h.real.k.Now()
	if a.kind == actQueueLen && p.tx == txLazy && p.txEnd == now {
		passed := h.real.k.Passed(p.txEnd, p.txAt, p.uid)
		switch {
		case (mode == keyBelowH || mode == keyBelowT) && !passed:
			h.hits["read-at-txEnd-key-below"] = true
		case (mode == keyAboveH || mode == keyAboveT) && passed:
			h.hits["read-at-txEnd-key-above"] = true
		}
	}
	h.note(a)
}

// actNames name the actions in the plan hits: "<action>-in-gap" met a
// plan before its instant, "-at-emerge" at its instant and still not
// due, "-plan-due" one the firing order had passed.
var actNames = [...]string{
	actQueueLen: "read", actSend: "send", actSendPriority: "sendpri", actHoldOn: "hold-on",
	actHoldOff: "hold-off", actFail: "fail", actRestore: "restore", actStop: "stop", actHold: "hold",
}

func (h *txHarness) notePlan(a portAction, p *Port) {
	d := p.plan
	if d == nil {
		return
	}
	state := "-in-gap"
	switch now := h.real.k.Now(); {
	case h.real.k.PassedKey(d.at, d.priT, 0, d.seq):
		state = "-plan-due"
	case now == d.at:
		state = "-at-emerge"
	}
	h.hits[actNames[a.kind]+state] = true
}

// noteDone looks at the real port after an action.
func (h *txHarness) noteDone(a portAction) {
	p, holds := h.rp[a.port], h.rp[0].net.Holds
	if a.kind == actHold && p.plan != nil && p.plan.f.Pkt == a.f.Pkt {
		h.hits["planned"] = true
		switch {
		case p.plan.start > p.plan.at:
			h.hits["planned-behind-train"] = true
		case p.tx == txLazy && p.tailEnd == p.plan.at:
			h.hits["planned-behind-lazy-head-ending-at-emerge"] = true
		case p.tx == txLazy:
			h.hits["planned-behind-lazy-head"] = true
		}
	}
	if p.tx == txLazy && p.queued() > 1 && a.kind == actSend {
		h.hits["send-behind-lazy-head"] = true
	}
	if p.tx == txLazy && p.queued() > 2 {
		h.hits["train-three-deep"] = true
	}
	if holds.TrainVoids > h.voids {
		h.hits[actNames[a.kind]+"-mid-train"] = true
		if h.planBehind == "plan-behind-train-taken-back-after-emerge" {
			h.hits[h.planBehind] = true
		}
	}
	if holds.Unplanned > h.unplanned && h.planBehind == "plan-behind-train-taken-back-in-gap" {
		h.hits[h.planBehind] = true
	}
}

func (h *txHarness) note(a portAction) {
	p, now := h.rp[a.port], h.real.k.Now()
	h.voids, h.unplanned, h.planBehind = p.net.Holds.TrainVoids, p.net.Holds.Unplanned, ""
	if d := p.plan; d != nil && d.start > d.at {
		h.planBehind = "plan-behind-train-taken-back-in-gap"
		if h.real.k.PassedKey(d.at, d.priT, 0, d.seq) {
			h.planBehind = "plan-behind-train-taken-back-after-emerge"
		}
	}
	if a.kind == actFail {
		h.notePlan(a, h.rp[1-a.port])
	}
	h.notePlan(a, p)
	pending := p.tx == txLazy && !h.real.k.Passed(p.txEnd, p.txAt, p.uid)
	switch a.kind {
	case actSend, actSendPriority:
		if pending && p.txEnd == now {
			h.hits["arm-at-txEnd"] = true
		}
		if p.Up() && now < h.failedLazyUntil {
			h.hits["fail-lazy-restore-send-before-stale"] = true
		}
	case actFail:
		for _, q := range h.rp {
			if q.Up() && q.tx == txLazy && !h.real.k.Passed(q.txEnd, q.txAt, q.uid) {
				h.failedLazyUntil = q.txEnd
			}
		}
	case actStop:
		h.stopped = true
	case actHoldOn:
		if pending {
			h.heldLazy[a.port] = p.txEnd
		}
	case actHoldOff:
		if now < h.heldLazy[a.port] {
			h.hits["hold-on-while-lazy-off-before-txEnd"] = true
		}
	}
}

// check compares the two sides' logs and counters.
func (h *txHarness) check() {
	h.t.Helper()
	if !slices.Equal(h.real.log, h.ref.log) {
		i := 0
		for i < len(h.real.log) && i < len(h.ref.log) && h.real.log[i] == h.ref.log[i] {
			i++
		}
		h.t.Fatalf("observations diverge at #%d:\n  real %q\n  ref  %q", i, h.real.log[i:], h.ref.log[i:])
	}
	if got, want := h.real.counters(), h.ref.counters(); got != want {
		h.t.Fatalf("counters at %v: real %s, ref %s", h.ref.k.Now(), got, want)
	}
	if got, want := h.real.k.Now(), h.ref.k.Now(); got != want {
		h.t.Fatalf("clocks: real %v, ref %v", got, want)
	}
	// Every record a port points at is still its own — not recycled, not
	// void — a lazy train links one per frame behind its head, and no
	// record in the pool names a port.
	for i, p := range h.rp {
		waiting := 0
		for d := p.waiting; d != nil; d = d.next {
			if d.src != p {
				h.t.Fatalf("port %d links a waiting arrival it does not own", i)
			}
			waiting++
		}
		if want := max(p.queued()-1, 0); p.tx != txLazy && waiting != 0 || p.tx == txLazy && waiting != want {
			h.t.Fatalf("port %d (tx state %d, %d queued) links %d waiting arrivals", i, p.tx, p.queued(), waiting)
		}
		if p.plan != nil && p.plan.src != p {
			h.t.Fatalf("port %d holds a plan it does not own", i)
		}
	}
	for _, d := range h.rp[0].net.deliveries.free {
		if d.src != nil || d.next != nil {
			h.t.Fatalf("a pooled record still names a port")
		}
	}
}

// runPortTxOps runs a whole op stream (a fiber-length byte, then four
// bytes per op), drains both kernels and compares the final queues.
func runPortTxOps(t testing.TB, data []byte) *txHarness {
	if len(data) == 0 {
		return nil
	}
	// A zero-length fiber puts a frame's delivery on its completion's
	// own key; 10 m (50 ns) lands it mid-way through the next frame.
	h := newTxHarness(t, float64(data[0]%2)*10)
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		h.apply(data[0], data[1], data[2], data[3])
	}
	// Reading through Ledger settles what the run so far left due.
	if got, want := h.ledger(), h.ref.counters(); got != want {
		t.Fatalf("Ledger() at %v: real %s, ref %s", h.ref.k.Now(), got, want)
	}
	// Drain both kernels to one deadline: Run stops on a kernel's last
	// event, and the real kernel's may be a void arrival the reference
	// never queued.
	h.real.k.Run()
	h.ref.k.Run()
	end := max(h.real.k.Now(), h.ref.k.Now())
	h.real.k.RunUntil(end)
	h.ref.k.RunUntil(end)
	h.check()
	for i := range h.rp {
		if got, want := h.real.ports[i].QueueLen(), h.ref.ports[i].QueueLen(); got != want {
			t.Fatalf("drained: port %d QueueLen = %d, reference %d", i, got, want)
		}
	}
	return h
}

// Builders for the seed corpus. An action byte is kind<<5 | frame
// size<<3 | receiver behaviour<<1 | port; a time is two bytes (when).
const (
	aQueueLen = actQueueLen << 5
	aSend     = actSend<<5 | tagQuiet<<1
	aHoldOn   = actHoldOn << 5
	aHoldOff  = actHoldOff << 5
	aFail     = actFail << 5
	aRestore  = actRestore << 5
	aStop     = actStop << 5

	aSendPri = actSendPriority<<5 | tagQuiet<<1
	aHold40  = 0<<5 | tagQuiet<<1
	aHold200 = 1<<5 | tagQuiet<<1
)

// txSer is the serialization time of the seeds' frames (aSend, aHold*).
var txSer = SerTime(int(txFrame(0, 0).Wire) + DefaultIFG)

type txOp = [4]byte

func doNow(action byte) txOp              { return txOp{opAct, action} }
func holdNow(action byte) txOp            { return txOp{opHold, action} }
func after(ns byte, action byte) txOp     { return txOp{opSchedule, ns, 0, action} }
func holdAfter(ns byte, action byte) txOp { return txOp{opScheduleHold, ns, 0, action} }
func hostQueue(port byte) txOp            { return txOp{opHostQueue, aSend | port} }
func runFor(ns byte) txOp                 { return txOp{opRunUntil, ns, 0} }
func runFor16(ns sim.Time) txOp           { return txOp{opRunUntil, byte(ns / 16), 1} } // ns rounded down to 16
func runOut() txOp                        { return txOp{opRunUntil, 255, 1} }
func runToTxEnd(port byte) txOp           { return txOp{opRunUntil, port | 1<<1, 2} }
func advanceToTxEnd(port byte) txOp       { return txOp{opAdvanceTo, port | 1<<1, 2} }
func atTxEnd(mode int, action byte) txOp {
	return txOp{byte(opSchedule + numTxOps*mode), action&1 | 1<<1, 2, action}
}
func txStream(fiber byte, ops ...txOp) []byte {
	data := []byte{fiber}
	for _, op := range ops {
		data = append(data, op[:]...)
	}
	return data
}

// portTxSeeds is the fuzz corpus: each stream aims at one corner of the
// lazy completion, and TestPortTxSeeds asserts that it gets there.
var portTxSeeds = []struct {
	name string
	ops  []byte
}{{
	// Readers inside events at exactly txEnd, keyed one notch below
	// the completion (not passed: they read 1) …
	name: "read-at-txEnd-key-below",
	ops: txStream(1, doNow(aSend),
		atTxEnd(keyBelowH, aQueueLen), atTxEnd(keyBelowT, aQueueLen), runOut()),
}, {
	// … and one notch above (passed: they read 0).
	name: "read-at-txEnd-key-above",
	ops: txStream(1, doNow(aSend),
		atTxEnd(keyAboveH, aQueueLen), atTxEnd(keyAboveT, aQueueLen), runOut()),
}, {
	// A Send from an event at the completion instant, keyed below it:
	// the frame queues behind the head and the completion is armed at
	// now.
	name: "arm-at-txEnd",
	ops:  txStream(1, doNow(aSend), atTxEnd(keyBelowH, aSend), runOut()),
}, {
	// The same from the frame's own delivery on a zero-length fiber,
	// whose key equals the completion's.
	name: "arm-at-txEnd/own-delivery",
	ops:  txStream(0, doNow(actSend<<5|tagReplyPeer<<1), runOut()),
}, {
	// The link fails mid-frame while the completion is lazy, comes
	// back, and new frames start before the dead one's txEnd.
	name: "fail-lazy-restore-send-before-stale",
	ops: txStream(1, doNow(aSend|3<<3), runFor(100), doNow(aFail), doNow(aRestore),
		doNow(aSend), doNow(aSend), runOut(), runOut()),
}, {
	// The hold goes on mid-frame (arming the completion) and off again
	// before it fires: an armed completion that calls nobody. Then held
	// for good, with frames for the callback to insert.
	name: "hold-on-while-lazy-off-before-txEnd",
	ops: txStream(1, doNow(aSend), runFor(100), doNow(aHoldOn), runFor(100), doNow(aHoldOff),
		hostQueue(0), hostQueue(0), runOut(), doNow(aHoldOn), doNow(aSend), runOut()),
}, {
	// Driver context between runs: a run that ended exactly on txEnd
	// has been through the completion …
	name: "driver-read-after-run-ended-on-txEnd",
	ops:  txStream(1, doNow(aSend), runToTxEnd(0), doNow(aQueueLen), doNow(aSend), runOut()),
}, {
	// … and a clock moved onto txEnd has not.
	name: "driver-read-after-advance-to-txEnd",
	ops:  txStream(1, doNow(aSend), advanceToTxEnd(0), doNow(aQueueLen), doNow(aSend), runOut()),
}, {
	// A Stop mid-instant at txEnd, keyed below the completion and then
	// above it: driver-context reads and sends with the instant half
	// done.
	name: "driver-read-after-stop-at-txEnd",
	ops: txStream(1, doNow(aSend), atTxEnd(keyBelowT, aStop), atTxEnd(keyAboveH, aStop),
		runOut(), doNow(aQueueLen), runOut(), doNow(aQueueLen), doNow(aSend), runOut()),
}, {
	// A frame held in front of an idle port is a plan, and nothing
	// touches it: the run must look as if the stage event had fired. A
	// second frame held for the same instant finds the port planned.
	name: "planned",
	ops:  txStream(1, holdNow(aHold40), runOut(), holdNow(aHold200|1), holdNow(aHold200|1), runOut()),
}, {
	name: "hold-in-gap",
	ops:  txStream(1, holdNow(aHold200), runFor(100), holdNow(aHold40), runOut()),
}, {
	// Readers and writers inside the gap: a read sees an empty port and
	// leaves the plan alone, everything else takes it back.
	name: "read-in-gap",
	ops:  txStream(1, holdNow(aHold40), runFor(10), doNow(aQueueLen), runOut()),
}, {
	name: "send-in-gap",
	ops:  txStream(1, holdNow(aHold40), runFor(10), doNow(aSend), runOut()),
}, {
	name: "sendpri-in-gap",
	ops:  txStream(0, holdNow(aHold200), runFor(100), doNow(aSendPri), runOut()),
}, {
	name: "hold-on-in-gap",
	ops: txStream(1, hostQueue(0), holdNow(aHold40), runFor(10), doNow(aHoldOn), runOut(),
		doNow(aHoldOff), runOut()),
}, {
	// The link fails with a plan on one end: the frame must emerge onto
	// a dark port, and the arrival queued for it must not count.
	name: "fail-in-gap",
	ops: txStream(1, holdNow(aHold200|1), runFor(100), doNow(aFail), runOut(), doNow(aRestore),
		runOut(), holdNow(aHold40|1), runOut()),
}, {
	// At the emerging instant itself, from events that share the stage
	// event's (at, priT, priH) and differ from it by sequence number
	// alone: scheduled before the hold they find the plan not due …
	name: "send-at-emerge",
	ops:  txStream(1, after(40, aSend), holdNow(aHold40), runOut()),
}, {
	name: "sendpri-at-emerge",
	ops:  txStream(1, after(200, aSendPri), holdNow(aHold200), after(200, aQueueLen), runOut()),
}, {
	// … and scheduled after it, due.
	name: "send-plan-due",
	ops:  txStream(1, holdNow(aHold40), after(40, aSend), runOut()),
}, {
	name: "sendpri-plan-due",
	ops:  txStream(0, holdNow(aHold200), after(200, aSendPri), after(200, aQueueLen), runOut()),
}, {
	name: "fail-plan-due",
	ops:  txStream(1, holdNow(aHold40), after(40, aFail), runOut()),
}, {
	// Held from inside an event, and two frames held for one port at one
	// instant from two events.
	name: "hold-at-emerge",
	ops:  txStream(1, holdAfter(7, aHold40), holdAfter(7, aHold40), holdAfter(47, aHold200), runOut()),
}, {
	// A frame held while the one before it is still being serialized,
	// emerging after that ends …
	name: "planned-behind-lazy-head",
	ops: txStream(1, doNow(aSend), runFor16(txSer-30), runFor(byte((txSer-30)%16)), holdNow(aHold40),
		runOut()),
}, {
	// … and exactly as it ends, the back-to-back train.
	name: "planned-behind-lazy-head-ending-at-emerge",
	ops: txStream(1, doNow(aSend), runFor16(txSer-40), runFor(byte((txSer-40)%16)), holdNow(aHold40),
		runFor16(txSer), runFor(byte(txSer%16)), holdNow(aHold40), runOut()),
}, {
	// The stream ends inside the gap, and on the emerging instant: the
	// ledger read through Ledger says in-device, then launched.
	name: "read-in-gap/ledger",
	ops:  txStream(1, holdNow(aHold200), runFor(100), doNow(aQueueLen)),
}, {
	name: "read-plan-due/ledger",
	ops:  txStream(1, holdNow(aHold200), runFor(200), doNow(aQueueLen)),
}, {
	// A frame sent while the one before it is still on the wire, read at
	// the head's completion from either side of its key …
	name: "send-behind-lazy-head",
	ops: txStream(1, doNow(aSend), doNow(aSend), atTxEnd(keyBelowH, aQueueLen), atTxEnd(keyAboveT, aQueueLen),
		runOut()),
}, {
	// … and on a zero-length fiber, where the head's arrival shares its
	// completion's key and sends behind the train from inside it.
	name: "send-behind-lazy-head/own-delivery",
	ops:  txStream(0, doNow(actSend<<5|tagReplyPeer<<1), doNow(aSend), doNow(aSend), runOut()),
}, {
	name: "train-three-deep",
	ops: txStream(1, doNow(aSend), doNow(aSend), doNow(aSend), runFor16(txSer+txSer/2), doNow(aQueueLen),
		runOut()),
}, {
	// A priority frame overtakes two frames of a train, and a second one
	// follows it while the port is still draining.
	name: "sendpri-mid-train",
	ops:  txStream(1, doNow(aSend), doNow(aSend), doNow(aSend), doNow(aSendPri), doNow(aSendPri), runOut()),
}, {
	name: "hold-on-mid-train",
	ops: txStream(1, doNow(aSend), doNow(aSend), doNow(aSend), runFor(100), doNow(aHoldOn), hostQueue(0),
		runOut(), doNow(aHoldOff), doNow(aSend), doNow(aSend), runOut()),
}, {
	name: "fail-mid-train",
	ops: txStream(1, doNow(aSend), doNow(aSend), doNow(aSend), runFor(100), doNow(aFail), runOut(),
		doNow(aRestore), runOut(), doNow(aSend), doNow(aSend), runOut()),
}, {
	// A frame held while a train runs past its emerging instant leaves at
	// the train's tail …
	name: "planned-behind-train",
	ops:  txStream(1, doNow(aSend), doNow(aSend), holdNow(aHold40), runOut()),
}, {
	// … unless something takes the plan back before it emerges …
	name: "plan-behind-train-taken-back-in-gap",
	ops:  txStream(1, doNow(aSend), doNow(aSend), holdNow(aHold40), runFor(10), doNow(aSend), runOut()),
}, {
	// … or takes the train back, the emerged frame with it.
	name: "plan-behind-train-taken-back-after-emerge",
	ops:  txStream(1, doNow(aSend), doNow(aSend), holdNow(aHold40), runFor(100), doNow(aSendPri), runOut()),
}}

func TestPortTxSeeds(t *testing.T) {
	for _, s := range portTxSeeds {
		t.Run(s.name, func(t *testing.T) {
			h := runPortTxOps(t, s.ops)
			want, _, _ := strings.Cut(s.name, "/")
			if !h.hits[want] {
				t.Fatalf("the stream never reached the state it is in the corpus for (reached %v)", h.hits)
			}
		})
	}
}

// TestPortTxRandom runs seeded random op streams on both fiber lengths.
func TestPortTxRandom(t *testing.T) {
	rng := sim.NewRNG(15)
	for stream := 0; stream < 400; stream++ {
		data := make([]byte, 1+4*300)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		runPortTxOps(t, data)
	}
}

func FuzzPortTx(f *testing.F) {
	for _, s := range portTxSeeds {
		f.Add(s.ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runPortTxOps(t, data[:min(len(data), 1+4*1024)])
	})
}

// The point of the lazy completion, in kernel events: a transmitter
// nobody waits for costs one event per frame (the delivery), and so does
// a backlog queued behind a lazy head — a train, whose frames start as
// the one before them ends and whose arrivals are queued as they join.
func TestUncontendedStreamFiresOneEventPerFrame(t *testing.T) {
	k, n := testNet()
	a, b := n.NewPort("a", nil), n.NewPort("b", func(*Port, Frame) {})
	n.Connect(a, b, 10)
	const frames = 100
	f := dataFrame(1, 2)
	gap := SerTime(int(f.Wire)+DefaultIFG) + 1
	for i := range frames {
		k.Do(sim.Time(i)*gap, func() { a.Send(f) })
	}
	k.Run()
	if got := k.Fired - frames; got != frames || n.Acct.WireDelivered != frames {
		t.Fatalf("%d frames, sent one at a time: %d events beside the %d sends, %d delivered; want %d and %d",
			frames, got, frames, n.Acct.WireDelivered, frames, frames)
	}
}

func TestBackloggedStreamFiresOneEventPerFrame(t *testing.T) {
	k, n := testNet()
	a, b := n.NewPort("a", nil), n.NewPort("b", func(*Port, Frame) {})
	n.Connect(a, b, 10)
	const frames = 100
	a.SetCapacity(frames)
	f := dataFrame(1, 2)
	for range frames {
		a.Send(f)
	}
	k.Run()
	if k.Fired != frames || n.Acct.WireDelivered != frames || n.Holds.TrainStarts != frames-1 {
		t.Fatalf("%d frames queued at once: %d events, %d delivered, %d started by the train; want %d, %d and %d",
			frames, k.Fired, n.Acct.WireDelivered, n.Holds.TrainStarts, frames, frames, frames-1)
	}
}

// Taking a train back costs what it voids once: a priority frame that
// overtakes a k-frame train voids the k−1 arrivals behind its head (the
// head is on the wire), the port stays armed until the backlog drains,
// and a second priority frame in that time voids nothing.
func TestPriorityIntoTrainVoidsOnce(t *testing.T) {
	k, n := testNet()
	a, b := n.NewPort("a", nil), n.NewPort("b", func(*Port, Frame) {})
	n.Connect(a, b, 10)
	const frames = 8
	a.SetCapacity(frames)
	f := dataFrame(1, 2)
	for range frames {
		a.Send(f)
	}
	a.SendPriority(dataFrame(3, 4))
	if v := n.Holds.TrainVoids; v != frames-1 {
		t.Fatalf("a priority frame into a %d-frame train voided %d arrivals, want %d", frames, v, frames-1)
	}
	k.RunUntil(3 * SerTime(int(f.Wire)+DefaultIFG))
	a.SendPriority(dataFrame(5, 6))
	if v := n.Holds.TrainVoids; v != frames-1 {
		t.Fatalf("a second priority frame while the backlog drains voided %d more arrivals", v-(frames-1))
	}
	for k.Step() {
		if a.queued() > 1 && a.tx != txArmed {
			t.Fatalf("at %v: %d frames queued on a port that is not armed (tx state %d)", k.Now(), a.queued(), a.tx)
		}
	}
	// The voided arrivals fire as no-ops beside the frames' own.
	if want := uint64(frames + 2); n.Acct.WireDelivered != want || a.QueueLen() != 0 {
		t.Fatalf("%d delivered, %d left queued; want %d and 0", n.Acct.WireDelivered, a.QueueLen(), want)
	}
}
