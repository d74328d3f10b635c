package sim

import (
	"math"
	"slices"
	"testing"
)

// The kernel's pop order must be a pure function of the scheduled keys.
// These tests drive a byte-coded op stream against the kernel and
// against refModel — a slice kept sorted by entryLess, the order's
// definition — and compare the two after every op.

// refEvent is one event pending in the reference model: its key, what
// its callback logs and does, and the timer handle that owns it.
type refEvent struct {
	entry
	id      int  // what the callback appends to the fired log
	timer   int  // index of the owning handle, -1 for Do/DoPri events
	respawn int  // the callback re-schedules itself this many more times
	respD   Time // … this far ahead (0: at now)
	stop    bool // the callback calls Stop
}

type refModel struct {
	now    Time
	seq    uint64
	q      []refEvent // sorted by entryLess
	fired  []int
	timers []int // id logged by each handle's callback

	// What Passed and PassedKey must answer, kept as two high-water
	// marks that only ever rise: the greatest key popped so far, and the
	// latest instant a run or clock move has gone wholly through.
	popped     refKey
	ranThrough Time
	passed     []bool // the answers for probeKeys inside each popped event

	// reserved holds the keys Reserve numbered that DoKey has not queued
	// yet: events that exist only as a question to PassedKey.
	reserved []refKey
}

// refKey is a complete event key: what PassedKey is asked about, and
// without its seq what Passed is.
type refKey struct {
	at, priT Time
	priH     uint32
	seq      uint64
}

func (a refKey) less(b refKey) bool {
	return entryLess(&entry{at: a.at, priT: a.priT, priH: a.priH, seq: a.seq}, &entry{at: b.at, priT: b.priT, priH: b.priH, seq: b.seq})
}

func newRefModel() refModel {
	return refModel{popped: refKey{at: math.MinInt64}, ranThrough: -1}
}

// hasPassedKey is the definition Kernel.PassedKey is held to: the model
// has popped something beyond the key, or has run through its instant.
func (m *refModel) hasPassedKey(key refKey) bool {
	return key.at <= m.ranThrough || key.less(m.popped)
}

// hasPassed is Kernel.Passed's: the same of a key without a seq, which
// an event under the same (at, priT, priH) has not gone beyond.
func (m *refModel) hasPassed(key refKey) bool {
	key.seq = math.MaxUint64
	return m.hasPassedKey(key)
}

// probeKeys returns four keys around now — the instant before, the
// instant after, and now itself with tie-breaks on either side of what
// the op stream schedules (priT 0–15 or a scheduling time, priH 0–15).
func probeKeys(now Time, salt int) (keys [4]refKey) {
	x := uint64(salt)*0x9E3779B97F4A7C15 + uint64(now)
	for i := range keys {
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		k := refKey{at: now, priT: Time(x >> 8 & 15), priH: uint32(x >> 12 & 15), seq: x >> 20 & 63}
		switch x & 7 {
		case 0:
			k.at--
		case 1:
			k.at += min(1, MaxTime-now)
		case 2, 3:
			k.priT = now - Time(x>>16&3)
		}
		keys[i] = k
	}
	return keys
}

func (m *refModel) push(ev refEvent) {
	ev.seq = m.seq
	m.seq++
	m.pushSeq(ev)
}

// pushSeq queues ev under the seq it carries.
func (m *refModel) pushSeq(ev refEvent) {
	i, _ := slices.BinarySearchFunc(m.q, ev, func(a, b refEvent) int {
		if entryLess(&a.entry, &b.entry) {
			return -1
		}
		return 1
	})
	m.q = slices.Insert(m.q, i, ev)
}

// pending returns the queue index of timer t's event, or -1.
func (m *refModel) pending(t int) int {
	return slices.IndexFunc(m.q, func(e refEvent) bool { return e.timer == t })
}

func (m *refModel) cancel(t int) {
	if i := m.pending(t); i >= 0 {
		m.q = slices.Delete(m.q, i, i+1)
	}
}

// step pops and "runs" the earliest event; it reports whether the
// callback asked to stop.
func (m *refModel) step() bool {
	ev := m.q[0]
	m.q = slices.Delete(m.q, 0, 1)
	m.now = ev.at
	m.fired = append(m.fired, ev.id)
	if key := (refKey{ev.at, ev.priT, ev.priH, ev.seq}); m.popped.less(key) {
		m.popped = key
	}
	for _, key := range probeKeys(m.now, len(m.fired)) {
		m.passed = append(m.passed, m.hasPassed(key), m.hasPassedKey(key))
	}
	if ev.respawn > 0 && ev.respD <= MaxTime-m.now {
		ev.at, ev.priT, ev.priH = m.now+ev.respD, m.now, 0
		ev.respawn--
		m.push(ev)
	}
	return ev.stop
}

func (m *refModel) runUntil(deadline Time) {
	for len(m.q) > 0 && m.q[0].at <= deadline {
		if m.step() {
			return
		}
	}
	if m.now < deadline && deadline != MaxTime {
		m.now = deadline
	}
	// Nothing at or before the deadline is left. A run to the end of
	// time leaves the clock on its last event, and so its reach.
	if deadline == MaxTime {
		deadline = m.now
	}
	m.ranThrough = max(m.ranThrough, deadline)
}

// orderHarness applies each op to both sides.
type orderHarness struct {
	t      testing.TB
	k      *Kernel
	m      refModel
	fired  []int
	passed []bool
	timers []*Timer
}

// callback builds the kernel-side closure of ev, mirroring refModel.step.
func (h *orderHarness) callback(ev refEvent) func() {
	var fn func()
	fn = func() {
		h.fired = append(h.fired, ev.id)
		for _, key := range probeKeys(h.k.Now(), len(h.fired)) {
			h.passed = append(h.passed, h.k.Passed(key.at, key.priT, key.priH), h.k.PassedKey(key.at, key.priT, key.priH, key.seq))
		}
		if ev.respawn > 0 && ev.respD <= MaxTime-h.k.Now() {
			ev.respawn--
			h.k.Do(h.k.Now()+ev.respD, fn)
		}
		if ev.stop {
			h.k.Stop()
		}
	}
	return fn
}

// delay decodes a two-byte duration. The scales cover same-bucket
// offsets, the span of the wheel, both sides of its horizon, far-tier
// distances and the end of time; no delay reaches past MaxTime.
func (h *orderHarness) delay(a, b byte) Time {
	const horizon = wheelSize << wheelShift
	d, left := Time(a), MaxTime-h.m.now
	switch b % 8 {
	case 0:
	case 1:
		d <<= wheelShift
	case 2:
		d <<= 7
	case 3:
		d += horizon - 128
	case 4:
		d <<= 12
	case 5:
		d <<= 20
	case 6:
		d = left - d
	default:
		d = 0
	}
	return max(0, min(d, left))
}

const (
	opAt = iota
	opDo
	opDoPri
	opAfter
	opCancel
	opReset
	opRunUntil
	opStep
	opAdvanceTo
	opNewTimer
	opReserve
	opDoKey
	numOps
)

// apply executes one four-byte op on the kernel and on the model.
func (h *orderHarness) apply(op, a, b, c byte) {
	k, m := h.k, &h.m
	id := int(m.seq)
	d := h.delay(a, b)
	timerEv := func(at, priT Time, priH uint32) refEvent {
		m.timers = append(m.timers, id)
		return refEvent{entry: entry{at: at, priT: priT, priH: priH}, id: id, timer: len(m.timers) - 1}
	}
	switch op % numOps {
	case opAt:
		ev := timerEv(m.now+d, m.now, 0)
		h.timers = append(h.timers, k.At(ev.at, h.callback(ev)))
		m.push(ev)
	case opAfter:
		if c == 255 {
			d = -d // After clamps a negative delay to now
		}
		ev := timerEv(m.now+max(d, 0), m.now, 0)
		h.timers = append(h.timers, k.After(d, h.callback(ev)))
		m.push(ev)
	case opNewTimer:
		// The model's side of an unarmed handle is a timer that was
		// never pushed: nothing pending until an opReset picks it.
		// The handle is held by value, as an owner's field holds it.
		tm := new(Timer)
		*tm = k.NewTimer(h.callback(timerEv(0, 0, 0)))
		h.timers = append(h.timers, tm)
	case opDo:
		ev := refEvent{entry: entry{at: m.now + d, priT: m.now}, id: id, timer: -1}
		switch c & 3 {
		case 2:
			ev.respawn = int(c>>2) & 7
			if c&0x20 == 0 {
				ev.respD = d
			}
		case 3:
			ev.stop = true
		}
		k.Do(ev.at, h.callback(ev))
		m.push(ev)
	case opDoPri:
		ev := refEvent{entry: entry{at: m.now + d, priT: Time(c & 15), priH: uint32(c >> 4)}, id: id, timer: -1}
		k.DoPri(ev.at, ev.priT, ev.priH, Func(h.callback(ev)))
		m.push(ev)
	case opReserve:
		// The key a Do or DoPri at this moment would have had, numbered
		// and not queued.
		key := refKey{at: m.now + d, priT: m.now, seq: k.Reserve()}
		if c&1 != 0 {
			key.priT, key.priH = Time(c>>1&15), uint32(c>>5)
		}
		if key.seq != m.seq {
			h.t.Fatalf("Reserve = %d, the model is at %d", key.seq, m.seq)
		}
		m.seq++
		m.reserved = append(m.reserved, key)
	case opDoKey:
		// Queue a reserved key after all — unless the firing order has
		// gone beyond it, which DoKey's caller must know (PassedKey).
		if len(m.reserved) > 0 {
			i := int(a) % len(m.reserved)
			key := m.reserved[i]
			m.reserved = slices.Delete(m.reserved, i, i+1)
			if !m.hasPassedKey(key) {
				ev := refEvent{entry: entry{at: key.at, priT: key.priT, priH: key.priH, seq: key.seq}, id: int(key.seq), timer: -1}
				k.DoKey(key.at, key.priT, key.priH, key.seq, Func(h.callback(ev)))
				m.pushSeq(ev)
			}
		}
	case opCancel:
		if len(h.timers) > 0 {
			t := int(a) % len(h.timers)
			h.timers[t].Cancel()
			m.cancel(t)
		}
	case opReset:
		if len(h.timers) > 0 {
			t := int(a) % len(h.timers)
			d = h.delay(b, c)
			h.timers[t].Reset(d)
			m.cancel(t)
			m.push(refEvent{entry: entry{at: m.now + d, priT: m.now}, id: m.timers[t], timer: t})
		}
	case opRunUntil:
		k.RunUntil(m.now + d)
		m.runUntil(m.now + d)
	case opStep:
		if got, want := k.Step(), len(m.q) > 0; got != want {
			h.t.Fatalf("Step = %v, want %v", got, want)
		}
		if len(m.q) > 0 {
			m.step()
		}
	case opAdvanceTo:
		to := m.now + d
		if len(m.q) > 0 {
			to = min(to, m.q[0].at)
		}
		k.AdvanceTo(to)
		m.now = to
		m.ranThrough = max(m.ranThrough, to-1)
	}
	h.check()
}

// check compares everything the kernel exposes with the model.
func (h *orderHarness) check() {
	h.t.Helper()
	k, m := h.k, &h.m
	if !slices.Equal(h.fired, m.fired) {
		n := 0
		for n < len(h.fired) && n < len(m.fired) && h.fired[n] == m.fired[n] {
			n++
		}
		h.t.Fatalf("fired sequences diverge at #%d: kernel %v, model %v", n, h.fired[n:], m.fired[n:])
	}
	if k.Pending() != len(m.q) {
		h.t.Fatalf("Pending = %d, model has %d", k.Pending(), len(m.q))
	}
	if k.Now() != m.now {
		h.t.Fatalf("Now = %v, model at %v", k.Now(), m.now)
	}
	if !slices.Equal(h.passed, m.passed) {
		h.t.Fatalf("Passed, PassedKey asked inside the last %d fired events: kernel %v, model %v", len(m.passed)/8, h.passed, m.passed)
	}
	h.passed, m.passed = h.passed[:0], m.passed[:0]
	for _, key := range probeKeys(m.now, len(m.fired)+int(m.seq)) {
		if got, want := k.Passed(key.at, key.priT, key.priH), m.hasPassed(key); got != want {
			h.t.Fatalf("between ops at %v: Passed(%v, %v, %d) = %v, model says %v (popped %v/%v/%d, ran through %v)",
				m.now, key.at, key.priT, key.priH, got, want, m.popped.at, m.popped.priT, m.popped.priH, m.ranThrough)
		}
	}
	probes := probeKeys(m.now, len(m.fired)+int(m.seq))
	for _, key := range append(probes[:], m.reserved...) {
		if got, want := k.PassedKey(key.at, key.priT, key.priH, key.seq), m.hasPassedKey(key); got != want {
			h.t.Fatalf("between ops at %v: PassedKey(%v, %v, %d, %d) = %v, model says %v (popped %+v, ran through %v)",
				m.now, key.at, key.priT, key.priH, key.seq, got, want, m.popped, m.ranThrough)
		}
	}
	wantAt, wantOK := MaxTime, len(m.q) > 0
	if wantOK {
		wantAt = m.q[0].at
	}
	if at, ok := k.NextEventTime(); at != wantAt || ok != wantOK {
		h.t.Fatalf("NextEventTime = %v,%v, model says %v,%v", at, ok, wantAt, wantOK)
	}
	for t, tm := range h.timers {
		if want := m.pending(t) >= 0; tm.Active() != want {
			h.t.Fatalf("timer %d Active = %v, model says %v", t, tm.Active(), want)
		}
	}
}

// runOrderOps runs a whole op stream (four bytes per op) and drains the
// queue at the end. probe, if set, is evaluated after every op.
func runOrderOps(t testing.TB, data []byte, probe func(*Kernel)) {
	h := &orderHarness{t: t, k: NewKernel(1), m: newRefModel()}
	for ; len(data) >= 4; data = data[4:] {
		h.apply(data[0], data[1], data[2], data[3])
		if probe != nil {
			probe(h.k)
		}
	}
	h.k.Run()
	h.m.runUntil(MaxTime)
	h.check()
}

// orderSeeds is the fuzz corpus: each stream aims at one queue path,
// and TestKernelOrderSeeds asserts through hit that it gets there.
var orderSeeds = []struct {
	name string
	ops  []byte
	hit  func(k *Kernel) bool
}{{
	// Twelve same-instant events in descending key order: past
	// walkBound the inserts fall back to the far heap, inside the horizon.
	name: "reverse-keys-overflow-to-far",
	ops: []byte{
		opDoPri, 100, 0, 15, opDoPri, 100, 0, 14, opDoPri, 100, 0, 13, opDoPri, 100, 0, 12,
		opDoPri, 100, 0, 11, opDoPri, 100, 0, 10, opDoPri, 100, 0, 9, opDoPri, 100, 0, 8,
		opDoPri, 100, 0, 7, opDoPri, 100, 0, 6, opDoPri, 100, 0, 5, opDoPri, 100, 0, 4,
		opStep, 0, 0, 0, opRunUntil, 50, 0, 0, opRunUntil, 100, 0, 0,
	},
	hit: func(k *Kernel) bool { return len(k.far) > 0 && k.arena[k.far[0]].at < wheelSize<<wheelShift },
}, {
	// Delays on both sides of the horizon, then a clock hop that brings
	// the far ones within it while they stay on the heap.
	name: "horizon-straddle",
	ops: []byte{
		opAt, 0, 3, 0, opAt, 127, 3, 0, opAt, 128, 3, 0, opAt, 255, 3, 0, opDo, 129, 3, 0,
		opAdvanceTo, 200, 1, 0, opDo, 120, 3, 0, opDo, 140, 3, 0, opRunUntil, 130, 3, 0,
		opReset, 0, 200, 3, opReset, 3, 1, 0, opRunUntil, 255, 4, 0,
	},
	hit: func(k *Kernel) bool { return len(k.far) > 0 && k.n > len(k.far) },
}, {
	// An event that re-schedules itself at now, five times, beside
	// same-instant and later events of the same bucket.
	name: "zero-delay-respawn",
	ops: []byte{
		opDo, 3, 0, 0, opDo, 0, 0, 2 | 5<<2 | 0x20, opDo, 0, 0, 0, opDo, 5, 0, 2 | 3<<2,
		opStep, 0, 0, 0, opStep, 0, 0, 0, opRunUntil, 0, 7, 0, opRunUntil, 40, 0, 0,
	},
	hit: func(k *Kernel) bool { return k.Fired > 6 },
}, {
	// Events at and just before MaxTime, run to with finite deadlines.
	name: "near-max-time",
	ops: []byte{
		opAt, 0, 6, 0, opAt, 1, 6, 0, opDo, 200, 6, 2 | 2<<2, opAfter, 9, 0, 255, opAt, 7, 5, 0,
		opRunUntil, 255, 5, 0, opAdvanceTo, 255, 6, 0, opRunUntil, 1, 6, 0, opRunUntil, 0, 6, 0,
	},
	hit: func(k *Kernel) bool { return k.now > MaxTime-256 },
}, {
	// Cancel the head, the middle and the tail of one bucket, a far
	// entry, and an already-fired timer; then Reset the fired one.
	name: "cancel-positions-and-reset-fired",
	ops: []byte{
		opAt, 1, 0, 0, opAt, 64, 0, 0, opAt, 65, 0, 0, opAt, 66, 0, 0, opAt, 67, 0, 0,
		opAt, 9, 5, 0, opAt, 8, 5, 0, opAt, 10, 5, 0,
		opStep, 0, 0, 0, opCancel, 0, 0, 0, opCancel, 1, 0, 0, opCancel, 3, 0, 0, opCancel, 4, 0, 0,
		opCancel, 6, 0, 0, opCancel, 6, 0, 0, opReset, 0, 3, 0, opReset, 2, 2, 5, opRunUntil, 255, 5, 0,
	},
	hit: func(k *Kernel) bool { return k.Fired == 1 && k.n == 3 },
}, {
	// Two handles made unarmed queue nothing (Step finds no event, Cancel
	// is a no-op); Reset arms them against creation order, and the one
	// that fired re-arms.
	name: "unarmed-timers",
	ops: []byte{
		opNewTimer, 0, 0, 0, opNewTimer, 0, 0, 0, opCancel, 0, 0, 0, opStep, 0, 0, 0,
		opReset, 1, 9, 0, opReset, 0, 3, 0, opRunUntil, 5, 0, 0, opReset, 0, 1, 2, opRunUntil, 255, 2, 0,
	},
	hit: func(k *Kernel) bool { return k.Fired == 1 && k.n == 2 },
}, {
	// A callback stops the run with earlier-than-deadline events still
	// pending; the next run must pick them up.
	name: "stop-then-resume",
	ops: []byte{
		opDo, 10, 0, 3, opDo, 20, 0, 0, opDo, 30, 4, 0, opRunUntil, 40, 4, 0,
		opDo, 5, 0, 0, opRunUntil, 40, 4, 0,
	},
	hit: func(k *Kernel) bool { return k.now == 10 && k.n == 2 },
}, {
	// Five keys one instant schedules for one later instant, alike but
	// for their seq; the second and fourth only reserved. The second is
	// queued after the first has fired and fires in its place; the
	// fourth is still a question when the fifth fires, and passed after.
	name: "reserved-keys-between-siblings",
	ops: []byte{
		opDo, 10, 0, 0, opReserve, 10, 0, 0, opDo, 10, 0, 0, opReserve, 10, 0, 0, opDo, 10, 0, 0,
		opStep, 0, 0, 0, opDoKey, 0, 0, 0, opStep, 0, 0, 0, opStep, 0, 0, 0,
		opStep, 0, 0, 0, opDoKey, 0, 0, 0, opRunUntil, 20, 0, 0,
	},
	hit: func(k *Kernel) bool { return k.now == 10 && k.horS == 4 && k.Fired == 4 && k.n == 0 },
}}

func TestKernelOrderSeeds(t *testing.T) {
	for _, s := range orderSeeds {
		t.Run(s.name, func(t *testing.T) {
			hit := false
			runOrderOps(t, s.ops, func(k *Kernel) { hit = hit || s.hit(k) })
			if !hit {
				t.Fatal("the stream never reached the queue state it is in the corpus for")
			}
		})
	}
}

// TestKernelOrderRandom runs long seeded random op streams; with ops
// uniform over the codes, queues build up across both tiers between
// the runs that drain them.
func TestKernelOrderRandom(t *testing.T) {
	rng := NewRNG(14)
	for stream := 0; stream < 200; stream++ {
		data := make([]byte, 4*500)
		for i := range data {
			data[i] = byte(rng.Intn(256))
			// One run to the end of time leaves the rest of a stream no
			// room; keep those delays to every tenth stream.
			if i%4 >= 2 && data[i]%8 == 6 && stream%10 != 0 {
				data[i] -= 4
			}
		}
		runOrderOps(t, data, nil)
	}
}

func FuzzKernelOrder(f *testing.F) {
	for _, s := range orderSeeds {
		f.Add(s.ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the stream: every check walks all handles.
		runOrderOps(t, data[:min(len(data), 4*1024)], nil)
	})
}
