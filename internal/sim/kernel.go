// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every AmpNet experiment runs on sim's virtual clock: the physical layer,
// the register-insertion MAC, rostering, the network cache, and failover
// are all scheduled as events with nanosecond-resolution virtual time.
// Determinism is guaranteed by a stable event ordering (time, then FIFO
// sequence number) and by the seeded splitmix64 RNG in this package, so
// every run of an experiment is exactly reproducible.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is virtual simulation time in nanoseconds since the start of the
// run. It is deliberately a distinct type from time.Duration so that
// wall-clock values cannot be mixed into the simulation by accident.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// String renders a Time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t would overflow (there is no positive MinInt64); render the
		// magnitude directly from the unsigned negation.
		return fmt.Sprintf("-%.6fs", float64(uint64(1)<<63)/float64(Second))
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Event is what the kernel fires. A model's hot-path record (a frame's
// arrival, a device's pipeline stage) implements Fire itself, so
// queueing it through DoPri or DoKey costs nothing: a pointer in an
// interface is not a new allocation, where a method value bound to the
// record would be one closure per record.
type Event interface{ Fire() }

// Func adapts a plain callback to an Event. A func value is
// pointer-shaped, so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// entry is a scheduled event, stored in the kernel's event arena.
// Ties at the same instant are broken by the priority key (priT, priH)
// and then FIFO by seq, so two events scheduled for the same instant
// fire in a deterministic order.
//
// Plain At/After/Do events key priT with their scheduling time, which
// makes (at, priT, seq) order identical to the historical (at, seq)
// FIFO order — sequence numbers are assigned in scheduling order. The
// key exists for the physical layer: frame deliveries carry their
// (transmit-start time, port identity) explicitly, so that
// same-instant arrivals are ordered by when their bits hit the fiber —
// a property of the modeled hardware that is identical whether the
// fabric runs on one kernel or on several shards, whose
// cross-shard frames are scheduled at window barriers (with late local
// sequence numbers) but with their true wire keys.
//
// An entry never moves: it keeps its arena index from push until it
// fires or is cancelled, the queue tiers link or list it by that index,
// and its Timer handle holds the same index — nothing updates a handle
// while its event is queued. Freed slots go on a free list threaded
// through next, so the steady-state hot path — Do/DoPri scheduling and
// event pop — does not allocate. Only At/After allocate, one
// Timer handle each, and only because they hand out a cancellation
// handle; NewTimer's handle is a value its owner holds.
type entry struct {
	at   Time
	priT Time // primary tie-break: transmit start (scheduling time for plain events)
	seq  uint64
	ev   Event
	tm   *Timer // cancellation handle, nil for Do/DoPri events
	priH uint32 // secondary tie-break: stable port identity hash
	// next and prev link the entry into its wheel bucket (next doubles
	// as the free-list link); 0 is the nil link, arena slot 0 is unused.
	next, prev int32
	// pos is the entry's index in the far heap, or inWheel.
	pos int32
}

const inWheel int32 = -1

// entryLess is the kernel's total event order: (at, priT, priH, seq).
// seq is unique per kernel, so the order is strict — pop order is a
// pure function of the scheduled keys, independent of where and how
// the queue stores them.
func entryLess(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.priT != b.priT {
		return a.priT < b.priT
	}
	if a.priH != b.priH {
		return a.priH < b.priH
	}
	return a.seq < b.seq
}

// Wheel geometry: wheelSize buckets of 1<<wheelShift ns each, a horizon
// of ≈ 33 µs. Frame hops — serialization, fiber flight, switch
// forwarding, the bulk of all events — are scheduled 32 ns to a few µs
// ahead and ring keepalives 20 µs ahead, so only the millisecond-scale
// liveness timers fall beyond it. Buckets are narrow because a fabric
// of identical rings packs tens of events into any 32 ns, scheduled out
// of time order; 8 ns keeps most buckets to one instant. walkBound caps
// the sorted insert's walk from a bucket's tail; an insert that would
// walk further goes to the far heap instead, so same-instant bursts and
// adversarial key orders stay O(log n).
const (
	wheelShift = 3
	wheelSize  = 4096
	wheelMask  = wheelSize - 1
	walkBound  = 8
)

// Kernel is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all model code runs inside event callbacks on the
// kernel's (single) logical thread, which is the standard DES discipline
// and what makes the simulation deterministic.
//
// The event queue has two tiers over one entry arena. The near tier is
// a wheel of fixed-width time buckets: an event whose bucket number
// at>>wheelShift lies within wheelSize of now's is linked into slot
// (at>>wheelShift)&wheelMask, each slot a doubly-linked list kept in
// entryLess order by inserting from the tail, with an occupancy bitmap
// to find the first non-empty slot at or after now's. The far tier is
// a 4-ary heap of arena indices holding everything else. The next
// event is the lesser of the first occupied bucket's head and the far
// root.
//
// Every wheel event's bucket number lies in [now>>wheelShift,
// now>>wheelShift+wheelSize): it did when the event was inserted, and
// as now advances (never past a pending event) the lower bound still
// holds and the upper only loosens. So a slot never mixes two bucket
// numbers, slot order from now's slot is time order, and no event ever
// needs to migrate between tiers.
type Kernel struct {
	now     Time
	seq     uint64
	rng     *RNG
	stopped bool

	arena []entry // slot 0 unused (the nil link)
	free  int32   // free-list head, linked through entry.next
	n     int     // pending events, both tiers

	far []int32 // 4-ary heap of arena indices, entryLess order

	occ     [wheelSize / 64]uint64 // bit s set: slot s non-empty
	buckets [wheelSize]struct{ head, tail int32 }

	// horT, horH, horS are the horizon: how far into the instant now the
	// firing order has got. Every event at now whose (priT, priH, seq)
	// lies below it has fired (see Passed, PassedKey). fire raises it to
	// the firing event's key; a run that ends with nothing more due sets
	// it to (+∞, +∞, +∞), everything at now has fired; a clock move that
	// executes nothing (AdvanceTo) resets it to (−∞, 0, 0), nothing at
	// now has.
	horT Time
	horH uint32
	horS uint64

	// Fired counts events executed; useful for run-cost reporting.
	Fired uint64
}

// NewKernel returns a kernel with virtual time 0 and an RNG seeded with
// seed (deterministic for a given seed).
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed), arena: make([]entry, 1, 64), horT: math.MinInt64}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Pending returns the number of scheduled events. Cancelled events are
// removed from the queue eagerly, so this is an O(1) live count.
func (k *Kernel) Pending() int { return k.n }

// push queues ev at absolute time t with tie-break key (priT, priH),
// the next sequence number and optional Timer handle tm, which is
// pointed at the new entry.
func (k *Kernel) push(t, priT Time, priH uint32, ev Event, tm *Timer) {
	k.pushSeq(t, priT, priH, k.Reserve(), ev, tm)
}

// Reserve takes the sequence number the next push would have had, for
// an event that may never be queued: DoKey queues it later exactly
// where a push at this moment would have put it, and PassedKey answers
// whether it would have fired.
func (k *Kernel) Reserve() uint64 {
	k.seq++
	return k.seq - 1
}

// pushSeq is push under a sequence number the caller owns.
func (k *Kernel) pushSeq(t, priT Time, priH uint32, seq uint64, ev Event, tm *Timer) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
	}
	i := k.free
	if i != 0 {
		k.free = k.arena[i].next
	} else {
		k.arena = append(k.arena, entry{})
		i = int32(len(k.arena) - 1)
	}
	e := &k.arena[i]
	e.at, e.priT, e.priH, e.seq, e.ev, e.tm = t, priT, priH, seq, ev, tm
	if tm != nil {
		tm.idx = i
	}
	k.n++
	if uint64(t>>wheelShift)-uint64(k.now>>wheelShift) >= wheelSize || !k.wheelInsert(i) {
		k.far = append(k.far, i)
		k.farUp(len(k.far) - 1)
	}
}

// release returns a fired or cancelled entry's slot to the free list,
// dropping its event reference and deactivating its Timer handle.
func (k *Kernel) release(i int32) {
	e := &k.arena[i]
	if e.tm != nil {
		e.tm.idx = 0
		e.tm = nil
	}
	e.ev = nil
	e.next = k.free
	k.free = i
	k.n--
}

// slot returns the wheel slot of the bucket that holds time t.
func slot(t Time) uint { return uint(t>>wheelShift) & wheelMask }

// wheelInsert links entry i into its bucket in entryLess order, walking
// from the tail. It reports false, leaving the wheel untouched, when
// the entry belongs more than walkBound entries from the tail.
func (k *Kernel) wheelInsert(i int32) bool {
	a := k.arena
	e := &a[i]
	s := slot(e.at)
	b := &k.buckets[s]
	after := b.tail
	for steps := 0; after != 0 && entryLess(e, &a[after]); after = a[after].prev {
		if steps++; steps > walkBound {
			return false
		}
	}
	e.pos = inWheel
	e.prev = after
	if after != 0 {
		e.next = a[after].next
		a[after].next = i
	} else {
		e.next = b.head
		b.head = i
		k.occ[s>>6] |= 1 << (s & 63)
	}
	if e.next != 0 {
		a[e.next].prev = i
	} else {
		b.tail = i
	}
	return true
}

// wheelRemove unlinks entry i from its bucket.
func (k *Kernel) wheelRemove(i int32) {
	a := k.arena
	e := &a[i]
	s := slot(e.at)
	if e.prev != 0 {
		a[e.prev].next = e.next
	} else {
		k.buckets[s].head = e.next
	}
	if e.next != 0 {
		a[e.next].prev = e.prev
	} else {
		k.buckets[s].tail = e.prev
		if e.prev == 0 {
			k.occ[s>>6] &^= 1 << (s & 63)
		}
	}
}

// wheelMin returns the earliest wheel entry, or 0 when the wheel is
// empty: the head of the first occupied slot at or after now's,
// scanning the occupancy bitmap circularly a word at a time.
func (k *Kernel) wheelMin() int32 {
	if k.n == len(k.far) {
		return 0
	}
	s := slot(k.now)
	w := s >> 6
	if m := k.occ[w] >> (s & 63); m != 0 {
		return k.buckets[(s+uint(bits.TrailingZeros64(m)))&wheelMask].head
	}
	// The last step revisits now's word for the slots below now's own,
	// which the shift above excluded: they are the far end of the wheel.
	for range len(k.occ) {
		w = (w + 1) % uint(len(k.occ))
		if m := k.occ[w]; m != 0 {
			return k.buckets[(w<<6+uint(bits.TrailingZeros64(m)))&wheelMask].head
		}
	}
	return 0
}

// farUp restores the heap property for a (possibly too-small) entry at
// heap index j, recording heap positions along the move path.
func (k *Kernel) farUp(j int) {
	a, h := k.arena, k.far
	i := h[j]
	e := &a[i]
	for j > 0 {
		p := (j - 1) >> 2
		if !entryLess(e, &a[h[p]]) {
			break
		}
		h[j] = h[p]
		a[h[j]].pos = int32(j)
		j = p
	}
	h[j] = i
	e.pos = int32(j)
}

// farDown restores the heap property for a (possibly too-large) entry
// at heap index j. It reports whether the entry moved, which farRemove
// uses to decide whether a farUp is still needed.
func (k *Kernel) farDown(j int) bool {
	a, h := k.arena, k.far
	n := len(h)
	j0 := j
	i := h[j]
	e := &a[i]
	for {
		c := j<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for x := c + 1; x < end; x++ {
			if entryLess(&a[h[x]], &a[h[m]]) {
				m = x
			}
		}
		if !entryLess(&a[h[m]], e) {
			break
		}
		h[j] = h[m]
		a[h[j]].pos = int32(j)
		j = m
	}
	h[j] = i
	e.pos = int32(j)
	return j > j0
}

// farRemove deletes the far-heap node at heap index j.
func (k *Kernel) farRemove(j int) {
	h := k.far
	n := len(h) - 1
	h[j] = h[n]
	k.far = h[:n]
	if j < n && !k.farDown(j) {
		k.farUp(j)
	}
}

// peek returns the arena index of the earliest pending event, or 0 when
// the queue is empty.
func (k *Kernel) peek() int32 {
	i := k.wheelMin()
	if len(k.far) > 0 {
		if f := k.far[0]; i == 0 || entryLess(&k.arena[f], &k.arena[i]) {
			return f
		}
	}
	return i
}

// remove takes pending entry i off whichever tier holds it and frees
// its slot.
func (k *Kernel) remove(i int32) {
	if pos := k.arena[i].pos; pos == inWheel {
		k.wheelRemove(i)
	} else {
		k.farRemove(int(pos))
	}
	k.release(i)
}

// fire removes the pending entry i (the one peek returned), moves the
// clock to its instant and runs it. The slot is freed first, so the
// callback sees its own Timer inactive and may reuse the slot.
func (k *Kernel) fire(i int32) {
	e := &k.arena[i]
	at, ev := e.at, e.ev
	// The horizon only ever rises within an instant: an event pushed at
	// now behind the firing position fires late, and must not pull
	// Passed back over keys an earlier event already went beyond.
	if !k.PassedKey(at, e.priT, e.priH, e.seq) {
		k.horT, k.horH, k.horS = e.priT, e.priH, e.seq
	}
	k.remove(i)
	k.now = at
	k.Fired++
	ev.Fire()
}

// Passed reports whether the firing order has gone beyond the key
// (t, priT, priH): whether an event queued under that key before the
// firing position reached it would have fired by now. It is exact at
// same-instant ties — inside an event callback it compares against the
// firing event's own key, between runs against what the last run or
// clock move left behind — so a model can treat "busy until t" as a
// timestamp and ask whether t has happened, without ever queuing the
// event. A key equal to the firing event's has not passed (such an
// event would have been pushed after the firing one).
func (k *Kernel) Passed(t, priT Time, priH uint32) bool {
	if t != k.now {
		return t < k.now
	}
	return priT < k.horT || (priT == k.horT && priH < k.horH)
}

// PassedKey is Passed for a complete key: whether the event that
// Reserve numbered seq, had it been queued under (t, priT, priH), would
// have fired by now. Plain events share priH 0 and often (t, priT) —
// everything one instant schedules for one later instant — so only the
// sequence number tells such an event from its neighbours.
func (k *Kernel) PassedKey(t, priT Time, priH uint32, seq uint64) bool {
	if t != k.now {
		return t < k.now
	}
	if priT != k.horT {
		return priT < k.horT
	}
	return priH < k.horH || (priH == k.horH && seq < k.horS)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a model bug that would break causality.
func (k *Kernel) At(t Time, fn func()) *Timer {
	tm := &Timer{k: k, fn: fn}
	k.push(t, k.now, 0, Func(fn), tm)
	return tm
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// NewTimer returns an unarmed Timer for fn: nothing is queued until
// its first Reset. It is how a periodic activity gets the one handle it
// re-arms for the rest of its life, held by value in its owner, so it
// allocates nothing.
func (k *Kernel) NewTimer(fn func()) Timer { return Timer{k: k, fn: fn} }

// Do schedules fn at absolute time t without issuing a Timer handle.
// It is the allocation-free fast path for fire-and-forget events (the
// physical layer's per-frame scheduling): same ordering semantics as
// At, no way to cancel.
func (k *Kernel) Do(t Time, fn func()) { k.push(t, k.now, 0, Func(fn), nil) }

// DoPri schedules ev at absolute time t with an explicit same-instant
// tie-break key, without issuing a Timer handle: events at equal t run
// in ascending (priT, priH, FIFO) order. Plain At/After/Do events carry
// (scheduling time, 0), so an explicit key slots into the same-instant
// order exactly where an event scheduled at priT would have — the
// physical layer uses this to key frame deliveries by transmit start
// and port identity, keeping the order engine-independent.
func (k *Kernel) DoPri(t, priT Time, priH uint32, ev Event) { k.push(t, priT, priH, ev, nil) }

// DoKey schedules ev under a complete key whose sequence number came
// from Reserve: the event fires exactly where it would have had it been
// pushed when the number was taken. The key must not have passed.
func (k *Kernel) DoKey(t, priT Time, priH uint32, seq uint64, ev Event) {
	k.pushSeq(t, priT, priH, seq, ev, nil)
}

// Stop makes Run return after the current event completes. Pending
// events remain queued; Run can be called again to resume.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunUntil executes events with at <= deadline. When nothing more is
// due by the deadline the clock is advanced to it, so RunUntil composes
// with subsequent After calls; when Stop ends the run early the clock
// stays on the last event executed, with later events still pending.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for {
		if k.stopped {
			return k.now
		}
		i := k.peek()
		if i == 0 {
			break
		}
		at := k.arena[i].at
		if at > deadline {
			break
		}
		if at < k.now {
			panic("sim: time went backwards")
		}
		k.fire(i)
	}
	if deadline >= k.now {
		// Nothing at or before the deadline is left, so everything at
		// the instant the clock ends on has fired.
		k.horT, k.horH, k.horS = MaxTime, math.MaxUint32, math.MaxUint64
		if deadline != MaxTime {
			k.now = deadline
		}
	}
	return k.now
}

// NextEventTime returns the time of the earliest pending event, or
// (MaxTime, false) when the queue is empty. The engine uses it
// to skip dead time between lookahead windows.
func (k *Kernel) NextEventTime() (Time, bool) {
	i := k.peek()
	if i == 0 {
		return MaxTime, false
	}
	return k.arena[i].at, true
}

// AdvanceTo moves the clock forward to t without executing anything.
// It panics if an event is still pending before t — advancing over it
// would break causality. The engine uses it to line every
// shard's clock up on a window boundary before injecting cross-shard
// work at that instant.
func (k *Kernel) AdvanceTo(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before now %v", t, k.now))
	}
	if at, ok := k.NextEventTime(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo %v over pending event at %v", t, at))
	}
	if t > k.now {
		k.now = t
		k.horT, k.horH, k.horS = math.MinInt64, 0, 0
	}
}

// Step executes exactly one pending event and returns true, or returns
// false if the queue is empty.
func (k *Kernel) Step() bool {
	i := k.peek()
	if i == 0 {
		return false
	}
	k.fire(i)
	return true
}

// Timer is a handle to a scheduled event that can be cancelled or
// rescheduled. The zero Timer and the nil *Timer are inert: Cancel,
// Active and Reset are all safe no-ops on them. A Timer from NewTimer
// lives where its owner put it: it must not be copied after its first
// Reset, because the queued entry points at it.
//
// idx is the event's arena index, fixed while it is scheduled and
// zeroed by the kernel the moment the event fires or is cancelled — so
// a handle can never touch an entry that is no longer its own.
type Timer struct {
	k   *Kernel
	fn  func() // retained so Reset can re-arm after the event fired
	idx int32  // arena index while scheduled; 0 once fired or cancelled
}

// Cancel prevents the timer's callback from running. The event is
// removed from the queue immediately (no dead entries accumulate under
// cancel-heavy workloads). It is safe to call more than once and after
// the event has fired.
func (t *Timer) Cancel() {
	if t.Active() {
		t.k.remove(t.idx)
	}
}

// Active reports whether the callback is still scheduled to run.
func (t *Timer) Active() bool {
	return t != nil && t.idx != 0
}

// Reset cancels the timer (if still pending) and reschedules its
// callback d from now. Like Cancel it is nil- and zero-value-safe, and
// it works after the event has fired (re-arming the same callback).
func (t *Timer) Reset(d Time) {
	if t == nil || t.k == nil || t.fn == nil {
		return
	}
	t.Cancel()
	if d < 0 {
		d = 0
	}
	t.k.push(t.k.now+d, t.k.now, 0, Func(t.fn), t)
}
