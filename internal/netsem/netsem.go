// Package netsem implements AmpNet's network semaphores — the "locking
// primitives implemented in software" that user code uses to resolve
// write conflicts on the network cache (paper, slide 10) — on top of
// D64 Atomic MicroPackets (slide 4).
//
// Each semaphore is a 64-bit word with a home node that serializes
// operations on it. A requester sends a D64 Atomic MicroPacket (Read,
// Write, TestAndSet, FetchAdd) unicast to the home; the home executes
// the operation against its table, unicasts an OpReply carrying the
// previous value back to the requester, and broadcasts the new value so
// that every node's replica of the semaphore table converges. Because
// replicas are everywhere, the home role can move (the lowest rostered
// node, by convention) after a failure without losing semaphore state —
// the same ubiquity argument the paper makes for the network cache.
//
// Requests lost during ring transitions are retried after a timeout;
// operations are therefore at-least-once. TestAndSet and Write are
// idempotent, which makes the locks safe under retry; FetchAdd callers
// (barriers) should quiesce across roster transitions, a limitation
// documented in DESIGN.md.
package netsem

import (
	"repro/internal/detmap"
	"repro/internal/insertion"
	"repro/internal/micropacket"
	"repro/internal/sim"
)

// DefaultTimeout is the request retry timeout.
const DefaultTimeout = 2 * sim.Millisecond

// Lock retry backoff bounds.
const (
	lockBackoffMin = 5 * sim.Microsecond
	lockBackoffMax = 320 * sim.Microsecond
)

// pendingOp is an outstanding request awaiting its OpReply.
type pendingOp struct {
	sem     uint8
	op      micropacket.AtomicOp
	operand uint64
	cb      func(old uint64)
	timer   *sim.Timer
}

// Service is one node's semaphore engine: requester, replica, and
// (when elected) home.
type Service struct {
	ID micropacket.NodeID
	K  *sim.Kernel
	St *insertion.Station

	// Home returns the current home node for semaphores — by
	// convention the lowest node on the roster. Wired by the node
	// kernel; tests may fix it.
	Home func() micropacket.NodeID
	// Timeout is the per-request retry timeout.
	Timeout sim.Time

	// table, pending and watchers are made on their first write: most
	// nodes never use a semaphore.
	table     map[uint8]uint64
	pending   map[uint8][]*pendingOp
	watchers  map[uint8]map[uint64]func(uint64)
	watcherID uint64
	// armed holds every timer the service has queued (request
	// timeouts, local replies, lock retries) for Abort; after drops
	// the ones that have fired.
	armed []*sim.Timer

	// Counters.
	Requests  uint64 // operations issued by this node
	Executed  uint64 // operations executed here as home
	Retries   uint64 // timed-out requests re-sent
	Forwarded uint64 // stale-home requests forwarded onward
}

// NewService creates a semaphore service. home may be nil if set later.
func NewService(k *sim.Kernel, st *insertion.Station, home func() micropacket.NodeID) *Service {
	return &Service{
		ID: st.ID, K: k, St: st, Home: home, Timeout: DefaultTimeout,
	}
}

// Abort forgets everything the node had under way, because its host
// died: pending operations with their timeouts and callbacks, lock
// retries and watchers. Replicas stay. An idle service schedules and
// allocates nothing here.
func (s *Service) Abort() {
	for _, t := range s.armed {
		t.Cancel()
	}
	s.armed = s.armed[:0]
	clear(s.pending)
	clear(s.watchers)
}

// after runs fn d from now on a timer Abort cancels.
func (s *Service) after(d sim.Time, fn func()) *sim.Timer {
	live := s.armed[:0]
	for _, t := range s.armed {
		if t.Active() {
			live = append(live, t)
		}
	}
	t := s.K.After(d, fn)
	s.armed = append(live, t)
	return t
}

// Value returns this node's replica of semaphore sem.
func (s *Service) Value(sem uint8) uint64 { return s.table[sem] }

// Watch registers f to run whenever a replica update for sem arrives.
// The returned function cancels the subscription.
func (s *Service) Watch(sem uint8, f func(uint64)) (cancel func()) {
	if s.watchers == nil {
		s.watchers = map[uint8]map[uint64]func(uint64){}
	}
	if s.watchers[sem] == nil {
		s.watchers[sem] = map[uint64]func(uint64){}
	}
	id := s.watcherID
	s.watcherID++
	s.watchers[sem][id] = f
	return func() { delete(s.watchers[sem], id) }
}

// Op issues an atomic operation on sem. cb, if non-nil, receives the
// value the semaphore held before the operation (the home's serialized
// view). The request is retried on timeout.
func (s *Service) Op(sem uint8, op micropacket.AtomicOp, operand uint64, cb func(old uint64)) {
	s.Requests++
	home := s.Home()
	if home == s.ID {
		old := s.execute(sem, op, operand)
		if cb != nil {
			// Deliver asynchronously for symmetry with the remote path.
			s.after(0, func() { cb(old) })
		}
		return
	}
	p := &pendingOp{sem: sem, op: op, operand: operand, cb: cb}
	if s.pending == nil {
		s.pending = map[uint8][]*pendingOp{}
	}
	s.pending[sem] = append(s.pending[sem], p)
	s.sendRequest(p)
}

// sendRequest transmits (or re-transmits) a pending request and arms
// its timeout.
func (s *Service) sendRequest(p *pendingOp) {
	pkt := micropacket.NewAtomic(s.ID, s.Home(), p.sem, p.op, p.operand)
	s.St.Send(pkt) // a refusal just means the timeout will resend
	if p.timer != nil {
		p.timer.Cancel()
	}
	p.timer = s.after(s.Timeout, func() {
		// Still pending? Re-send to the (possibly re-homed) home.
		for _, q := range s.pending[p.sem] {
			if q == p {
				s.Retries++
				s.sendRequest(p)
				return
			}
		}
	})
}

// execute applies an operation as home and broadcasts the new value.
func (s *Service) execute(sem uint8, op micropacket.AtomicOp, operand uint64) (old uint64) {
	if s.table == nil {
		s.table = map[uint8]uint64{}
	}
	old = s.table[sem]
	switch op {
	case micropacket.OpRead:
		// no change
	case micropacket.OpWrite:
		s.table[sem] = operand
	case micropacket.OpTestAndSet:
		if old == 0 {
			s.table[sem] = operand
		}
	case micropacket.OpFetchAdd:
		s.table[sem] = old + operand
	}
	s.Executed++
	if s.table[sem] != old || op == micropacket.OpWrite {
		upd := micropacket.NewAtomic(s.ID, micropacket.Broadcast, sem, micropacket.OpWrite, s.table[sem])
		s.St.Send(upd)
	}
	s.notify(sem, s.table[sem])
	return old
}

// notify runs watchers in registration order over a snapshot, so that
// callbacks may subscribe/unsubscribe without perturbing determinism.
func (s *Service) notify(sem uint8, val uint64) {
	m := s.watchers[sem]
	if len(m) == 0 {
		return
	}
	for _, id := range detmap.SortedKeys(m) {
		if f, ok := m[id]; ok {
			f(val)
		}
	}
}

// Handle processes an arriving D64 Atomic MicroPacket (wired in by the
// node kernel's delivery demux).
func (s *Service) Handle(p *micropacket.Packet) {
	sem := p.Tag
	switch {
	case p.IsBroadcast():
		// Authoritative replica update from the home.
		if p.Op() == micropacket.OpWrite {
			if s.table == nil {
				s.table = map[uint8]uint64{}
			}
			s.table[sem] = p.Word64()
			s.notify(sem, p.Word64())
		}
	case p.Op() == micropacket.OpReply:
		// Reply to our oldest pending request on this semaphore (the
		// home serializes and the ring preserves order).
		q := s.pending[sem]
		if len(q) == 0 {
			return // late duplicate after a retry already completed
		}
		op := q[0]
		s.pending[sem] = q[1:]
		if op.timer != nil {
			op.timer.Cancel()
		}
		if op.cb != nil {
			op.cb(p.Word64())
		}
	default:
		// A request: are we home?
		if s.Home() != s.ID {
			// Stale home view at the sender: forward to the real home.
			s.Forwarded++
			fwd := p.Clone()
			fwd.Dst = s.Home()
			s.St.Send(fwd)
			return
		}
		old := s.execute(sem, p.Op(), p.Word64())
		reply := micropacket.NewAtomic(s.ID, p.Src, sem, micropacket.OpReply, old)
		s.St.Send(reply)
	}
}

// Lock acquires semaphore sem as a mutex (TestAndSet to 1) and runs cb
// once held. Contended attempts retry when the replica reports the lock
// free, or after an exponential backoff, whichever comes first.
func (s *Service) Lock(sem uint8, cb func()) {
	backoff := lockBackoffMin
	var attempt func()
	var armed bool // a retry (watch or timer) is armed
	retry := func() {
		if armed {
			return
		}
		armed = true
		var tmr *sim.Timer
		var unwatch func()
		fired := false
		fire := func() {
			if fired {
				return
			}
			fired = true
			armed = false
			if tmr != nil {
				tmr.Cancel()
			}
			unwatch()
			attempt()
		}
		unwatch = s.Watch(sem, func(v uint64) {
			if v == 0 {
				fire()
			}
		})
		tmr = s.after(backoff, fire)
		backoff *= 2
		if backoff > lockBackoffMax {
			backoff = lockBackoffMax
		}
	}
	attempt = func() {
		s.Op(sem, micropacket.OpTestAndSet, 1, func(old uint64) {
			if old == 0 {
				cb()
			} else {
				retry()
			}
		})
	}
	attempt()
}

// Unlock releases a mutex held via Lock.
func (s *Service) Unlock(sem uint8) {
	s.Op(sem, micropacket.OpWrite, 0, nil)
}

// Barrier arrives at an n-party barrier built on sem (FetchAdd of 1).
// cb runs when all n arrivals are visible in the local replica. The
// semaphore must start at 0 and be reset between uses.
func (s *Service) Barrier(sem uint8, n uint64, cb func()) {
	done := false
	var unwatch func()
	check := func(v uint64) {
		if !done && v >= n {
			done = true
			if unwatch != nil {
				unwatch()
			}
			cb()
		}
	}
	unwatch = s.Watch(sem, check)
	s.Op(sem, micropacket.OpFetchAdd, 1, func(old uint64) {
		// Home-side view may complete the barrier before the broadcast
		// lands locally.
		if old+1 >= n {
			check(old + 1)
		}
	})
}
