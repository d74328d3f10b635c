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

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// entry is a scheduled callback, stored inline in the kernel's heap
// slice. Ties at the same instant are broken by the priority key
// (priT, priH) and then FIFO by seq, so two events scheduled for the
// same instant fire in a deterministic order.
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
// Entries live in the heap slice itself: the slice is the per-shard
// event pool (it subsumes the earlier pointer-based free list), so the
// steady-state hot path — Do/DoPri scheduling and event pop — does not
// allocate. Only At/AtPri/After allocate, one Timer handle each, and
// only because they hand out a cancellation handle.
type entry struct {
	at   Time
	priT Time // primary tie-break: transmit start (scheduling time for plain events)
	seq  uint64
	fn   func()
	tm   *Timer // cancellation handle, nil for Do/DoPri events
	priH uint32 // secondary tie-break: stable port identity hash
}

// entryLess is the kernel's total event order: (at, priT, priH, seq).
// seq is unique per kernel, so the order is strict — heap pop order is
// a pure function of the scheduled keys, independent of heap layout.
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

// Kernel is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; all model code runs inside event callbacks on the
// kernel's (single) logical thread, which is the standard DES discipline
// and what makes the simulation deterministic.
//
// The event queue is a hand-rolled 4-ary heap over inline entries: no
// container/heap interface dispatch, no per-event heap node allocation,
// and sift comparisons walk contiguous memory instead of chasing event
// pointers. The 4-ary shape halves tree depth against a binary heap,
// which is where the simulator spends its time at scale (pop is the
// hot operation; a wider node trades cheap sequential compares for
// fewer cache-missing levels).
type Kernel struct {
	now     Time
	seq     uint64
	events  []entry
	rng     *RNG
	stopped bool

	// Fired counts events executed; useful for run-cost reporting.
	Fired uint64
}

// NewKernel returns a kernel with virtual time 0 and an RNG seeded with
// seed (deterministic for a given seed).
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Pending returns the number of scheduled events. Cancelled events are
// removed from the heap eagerly, so this is an O(1) live count.
func (k *Kernel) Pending() int { return len(k.events) }

// push queues fn at absolute time t with tie-break key (priT, priH)
// and optional Timer handle tm. The entry is placed by siftUp, which
// also records the final heap index in tm.
func (k *Kernel) push(t, priT Time, priH uint32, fn func(), tm *Timer) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
	}
	k.events = append(k.events, entry{at: t, priT: priT, priH: priH, seq: k.seq, fn: fn, tm: tm})
	k.seq++
	k.siftUp(len(k.events) - 1)
}

// siftUp restores the heap property for a (possibly too-small) entry at
// index j, updating Timer indices along the move path.
func (k *Kernel) siftUp(j int) {
	ev := k.events
	e := ev[j]
	for j > 0 {
		p := (j - 1) >> 2
		if !entryLess(&e, &ev[p]) {
			break
		}
		ev[j] = ev[p]
		if tm := ev[j].tm; tm != nil {
			tm.idx = j
		}
		j = p
	}
	ev[j] = e
	if e.tm != nil {
		e.tm.idx = j
	}
}

// siftDown restores the heap property for a (possibly too-large) entry
// at index j. It reports whether the entry moved, which Remove-style
// callers use to decide whether a siftUp is still needed.
func (k *Kernel) siftDown(j int) bool {
	ev := k.events
	n := len(ev)
	j0 := j
	e := ev[j]
	for {
		c := j<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for i := c + 1; i < end; i++ {
			if entryLess(&ev[i], &ev[m]) {
				m = i
			}
		}
		if !entryLess(&ev[m], &e) {
			break
		}
		ev[j] = ev[m]
		if tm := ev[j].tm; tm != nil {
			tm.idx = j
		}
		j = m
	}
	ev[j] = e
	if e.tm != nil {
		e.tm.idx = j
	}
	return j > j0
}

// takeRoot removes and returns the earliest entry. The vacated tail
// slot is zeroed so the slice does not retain closure references.
func (k *Kernel) takeRoot() (Time, func()) {
	ev := k.events
	at, fn := ev[0].at, ev[0].fn
	if tm := ev[0].tm; tm != nil {
		tm.idx = -1
	}
	n := len(ev) - 1
	if n > 0 {
		ev[0] = ev[n]
	}
	ev[n] = entry{}
	k.events = ev[:n]
	if n > 1 {
		k.siftDown(0)
	} else if n == 1 {
		if tm := k.events[0].tm; tm != nil {
			tm.idx = 0
		}
	}
	return at, fn
}

// removeAt deletes the entry at heap index i (Timer cancellation).
func (k *Kernel) removeAt(i int) {
	ev := k.events
	if tm := ev[i].tm; tm != nil {
		tm.idx = -1
	}
	n := len(ev) - 1
	if i != n {
		ev[i] = ev[n]
		ev[n] = entry{}
		k.events = ev[:n]
		if !k.siftDown(i) {
			k.siftUp(i)
		}
	} else {
		ev[n] = entry{}
		k.events = ev[:n]
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it indicates a model bug that would break causality.
func (k *Kernel) At(t Time, fn func()) *Timer {
	tm := &Timer{k: k, idx: -1, fn: fn}
	k.push(t, k.now, 0, fn, tm)
	return tm
}

// AtPri schedules fn at absolute time t with an explicit same-instant
// tie-break key: events at equal t run in ascending (priT, priH, FIFO)
// order. Plain At/After events carry (scheduling time, 0), so an
// explicit key slots into the same-instant order exactly where an
// event scheduled at priT would have — the physical layer uses this to
// key frame deliveries by transmit start and port identity, keeping
// the order engine-independent.
func (k *Kernel) AtPri(t, priT Time, priH uint32, fn func()) *Timer {
	tm := &Timer{k: k, idx: -1, fn: fn}
	k.push(t, priT, priH, fn, tm)
	return tm
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Do schedules fn at absolute time t without issuing a Timer handle.
// It is the allocation-free fast path for fire-and-forget events (the
// physical layer's per-frame scheduling): same ordering semantics as
// At, no way to cancel.
func (k *Kernel) Do(t Time, fn func()) { k.push(t, k.now, 0, fn, nil) }

// DoPri schedules fn at absolute time t with an explicit same-instant
// key, without issuing a Timer handle. It is to AtPri what Do is to At.
func (k *Kernel) DoPri(t, priT Time, priH uint32, fn func()) { k.push(t, priT, priH, fn, nil) }

// Stop makes Run return after the current event completes. Pending
// events remain queued; Run can be called again to resume.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunUntil executes events with at <= deadline. The clock is left at
// min(deadline, time of last event) — or advanced to deadline when the
// queue empties first, so RunUntil composes with subsequent After calls.
func (k *Kernel) RunUntil(deadline Time) Time {
	k.stopped = false
	for len(k.events) > 0 && !k.stopped {
		if k.events[0].at > deadline {
			break
		}
		at, fn := k.takeRoot()
		if at < k.now {
			panic("sim: time went backwards")
		}
		k.now = at
		k.Fired++
		fn()
	}
	if k.now < deadline && deadline != MaxTime {
		k.now = deadline
	}
	return k.now
}

// NextEventTime returns the time of the earliest pending event, or
// (MaxTime, false) when the queue is empty. The engine uses it
// to skip dead time between lookahead windows.
func (k *Kernel) NextEventTime() (Time, bool) {
	if len(k.events) == 0 {
		return MaxTime, false
	}
	return k.events[0].at, true
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
	if len(k.events) > 0 && k.events[0].at < t {
		panic(fmt.Sprintf("sim: AdvanceTo %v over pending event at %v", t, k.events[0].at))
	}
	k.now = t
}

// Step executes exactly one pending event and returns true, or returns
// false if the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	at, fn := k.takeRoot()
	k.now = at
	k.Fired++
	fn()
	return true
}

// Timer is a handle to a scheduled event that can be cancelled or
// rescheduled. The zero Timer and the nil *Timer are inert: Cancel,
// Active and Reset are all safe no-ops on them.
//
// idx is the event's current heap index, maintained by the heap on
// every move and set to -1 the moment the event fires or is cancelled
// — so a handle can never touch an entry that is no longer its own.
type Timer struct {
	k   *Kernel
	idx int    // heap index while scheduled; -1 once fired or cancelled
	fn  func() // retained so Reset can re-arm after the event fired
}

// Cancel prevents the timer's callback from running. The event is
// removed from the heap immediately (no dead entries accumulate under
// cancel-heavy workloads). It is safe to call more than once and after
// the event has fired.
func (t *Timer) Cancel() {
	if t == nil || t.k == nil || t.idx < 0 {
		return
	}
	t.k.removeAt(t.idx)
}

// Active reports whether the callback is still scheduled to run.
func (t *Timer) Active() bool {
	return t != nil && t.k != nil && t.idx >= 0
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
	t.k.push(t.k.now+d, t.k.now, 0, t.fn, t)
}
