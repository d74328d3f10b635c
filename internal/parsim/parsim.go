// Package parsim is AmpNet's simulation engine: a conservative
// time-windowed discrete-event scheduler that runs the shards of a
// fabric on all cores without giving up byte-reproducible determinism.
//
// The fabric is partitioned by switch (phys.AssignShards): each shard
// owns its switches, their attached nodes, and every intra-shard link,
// all scheduled on a private sim.Kernel. Shards advance in lockstep
// lookahead windows: with L the minimum propagation delay of any
// cross-shard fiber (phys.Lookahead), an event at time t can influence
// another shard no earlier than t+L — one full cross-shard flight —
// so all shards may safely run a window of L in parallel.
//
// Cross-shard traffic never touches a foreign kernel mid-window.
// A port transmitting over a split link hands the frame to its shard's
// capture queue (phys.RemoteExchange) with its exact arrival time; at
// the window barrier the coordinator drains every queue in a canonical
// order — (arrival, transmit time, source shard, capture sequence) —
// and schedules each frame on the destination kernel at precisely the
// arrival time a one-shard run would have delivered it. Crossbar
// programming aimed at a remote switch (ring hops healing across
// trunks) is deferred the same way; the first frame that could need
// the route is always at least one cross-shard flight away, so the
// barrier application is invisible. The result is a run whose Report
// is byte-identical at every shard count for the same seed.
//
// Driver-level work — plan events (faults/repairs), condition probes —
// runs in coordinator actions: single-threaded closures executed with
// every kernel parked on the same virtual instant, after all events
// before t and before any event at t. That is where the fabric's
// shared state (link light, switch crossbars, trunk views) may flip;
// between barriers it is read-only, which is what makes the mid-window
// reads of the rostering layer race-free.
//
// One shard is the ordinary degenerate case, and it is how every
// unsharded cluster runs: the lookahead is unbounded, so a window spans
// the whole distance to the next action or deadline, the single kernel
// runs on the driver goroutine with no helper, and nothing is ever
// captured.
package parsim

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Stats counts the engine's work — the fabric-wide sums of the
// deterministic telemetry plane (per-shard detail is ShardStats).
//
// Per-window counters, incremented once per granted parallel window:
// Windows. Advances counts dead-time clock hops onto a coordinator
// action's instant — windows that moved the clock without granting any
// shard execution.
//
// Per-barrier counters, incremented at every synchronization point:
// Barriers (one per window, plus one per action fence), and
// Frames/Routes, which accumulate each barrier exchange's cross-shard
// frame and deferred crossbar-write batch sizes. Fences is the subset
// of barriers forced by coordinator actions.
//
// Actions counts executed coordinator closures; several same-instant
// actions share one fence, so Actions ≥ Fences on action-heavy runs.
type Stats struct {
	Windows  uint64
	Barriers uint64
	Frames   uint64
	Routes   uint64
	Actions  uint64
	Advances uint64
	Fences   uint64
}

// ShardStat is one shard's deterministic telemetry: plain counters of
// virtual-plane quantities only (kernel fired counts sampled at
// barriers, capture counts), byte-reproducible for a given simulation.
// The mean occupancy of a window is Events/Windows.
type ShardStat struct {
	Shard       int
	Events      uint64 // kernel events executed on this shard
	Windows     uint64 // windows granted
	BusyWindows uint64 // windows in which the shard executed ≥1 event
	MaxWindow   uint64 // most events the shard executed in one window
	Frames      uint64 // cross-shard frames this shard captured
	Routes      uint64 // deferred crossbar writes this shard captured
}

// action is one coordinator closure, run at `at` with all shards
// parked on that instant. Same-instant actions keep registration
// order (the sort below is stable).
type action struct {
	at sim.Time
	fn func()
}

// frameRec is one captured cross-shard frame: the phys.Frame plus
// everything needed to inject it on the destination kernel in the
// canonical barrier order (arrival, transmit start, source shard,
// capture sequence).
type frameRec struct {
	srcUID  uint32
	dst     *phys.Port
	f       phys.Frame
	link    *phys.Link
	epoch   uint64
	arrival sim.Time
	txAt    sim.Time
	src     int
	seq     int
}

// routeRec is one barrier-deferred crossbar write and the virtual
// instant it lands on the owning shard's kernel (see
// phys.Cluster.Program for why writes are timestamped). Application
// order is source-shard FIFO.
type routeRec struct {
	at sim.Time
	op phys.RouteOp
}

// shard is one shard's record and its phys.RemoteExchange. During a
// window only the goroutine that claimed the shard writes it, and only
// its capture queues; the counters are the coordinator's, written at
// barriers. Windows is filled in when the counters are read.
type shard struct {
	ShardStat
	frameQ []frameRec
	routeQ []routeRec
	// lastFired is the kernel's fired count at the previous barrier,
	// lastDelta the events it fired in the latest window.
	lastFired, lastDelta uint64
}

// RemoteFrame is the sanctioned frame-capture path (see the ampvet
// shardshare analyzer): with Engine.DeferRoute, the only place shard
// context may write engine state. A frame's capture sequence is its
// place in the queue, which restarts at every barrier: seq is only a
// same-instant tie-break within one barrier's batch.
func (s *shard) RemoteFrame(src, dst *phys.Port, f phys.Frame, link *phys.Link, epoch uint64, arrival sim.Time) {
	s.frameQ = append(s.frameQ, frameRec{
		srcUID: src.UID(), dst: dst, f: f, link: link, epoch: epoch,
		arrival: arrival, txAt: src.Net().K.Now(), src: s.Shard, seq: len(s.frameQ),
	})
}

// Engine coordinates the shard kernels of one simulation. It is driven
// from a single goroutine (the scenario driver); shard context only
// ever runs inside RunUntil, behind a window grant.
type Engine struct {
	Kernels []*sim.Kernel
	nets    []*phys.Net
	shards  []shard

	lookahead sim.Time
	now       sim.Time

	actions []action
	// inWindow is set while a window is granted: the only time shard
	// context runs, and the only time Schedule and Now must refuse.
	inWindow bool
	// parked is set while the kernels stand on an action's instant they
	// were advanced to and no window has run through it yet.
	parked bool

	failed error

	Stats Stats

	// rec is the wall-clock telemetry plane: nil (the default) records
	// nothing; when set, the coordinator stamps window/exchange/action
	// spans here, and whoever claims a shard stamps its run span into
	// that shard's private buffer — one writer at a time, ordered by the
	// barrier, the same discipline as the capture queues. Wall readings
	// never reach Stats, ShardStats, or any Report field.
	rec *telemetry.Recorder

	// OnFence, if set, observes every barrier after its exchange, with
	// all kernels parked on at: frames/routes are the batch sizes the
	// exchange delivered, action marks fences forced by coordinator work
	// (plan events) as opposed to plain window barriers. Purely
	// observational — the hook must not mutate model state.
	OnFence func(at sim.Time, frames, routes int, action bool)

	applyRoute func(at sim.Time, op phys.RouteOp)
	// batch is the reused barrier-exchange buffer: the frames of every
	// capture queue, consumed (sorted and delivered) before the next
	// barrier refills it.
	batch []frameRec

	// Window hand-off. grant lists the window's busy shards and resets
	// the claim counter; the coordinator and the helpers it wakes then
	// each claim the next unclaimed busy shard and run it, until none is
	// left. Claiming balances uneven shards over the cores that a fixed
	// shard-to-goroutine split would leave idle, and costs one wake send
	// and one done receive per woken helper, not per shard. Helpers park
	// between windows; a host with one core has none, and the coordinator
	// runs every shard itself — as it does on any host while windows are
	// lighter than wakeWork. lastWork, the events the previous window
	// fired, is the estimate of this window's work.
	busy     []int
	lastWork uint64
	solo     bool // the coordinator runs this window alone
	target   sim.Time
	claimed  atomic.Int32
	helpers  int
	wake     chan struct{}
	done     chan error
	closed   sync.Once
}

// wakeWork is the least number of events the previous window must have
// fired for a window to wake helpers. Measured on a 2-vCPU host, helpers
// against the coordinator alone (EXPERIMENTS.md, E15): at 70–260 events
// a window (64–128 nodes) waking costs 1.5–1.9× the wall, at ~1 000 (512
// nodes) it buys nothing, at ~3 500 (1 024 nodes) it wins 1.5×.
const wakeWork = 2048

// New builds an engine over one kernel+Net pair per shard, installing
// each shard's capture queue as its Net's RemoteExchange. lookahead is
// the fabric's conservative window bound (phys.Lookahead); it must be
// positive. With more than one shard it starts a helper goroutine per
// spare core, at most one per shard beyond the coordinator's; call
// Shutdown when the simulation is done.
func New(kernels []*sim.Kernel, nets []*phys.Net, lookahead sim.Time) (*Engine, error) {
	if len(kernels) != len(nets) || len(kernels) == 0 {
		return nil, fmt.Errorf("parsim: %d kernels vs %d nets", len(kernels), len(nets))
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("parsim: non-positive lookahead %v", lookahead)
	}
	e := &Engine{
		Kernels:   kernels,
		nets:      nets,
		shards:    make([]shard, len(kernels)),
		lookahead: lookahead,
	}
	for i, k := range kernels {
		s := &e.shards[i]
		s.Shard, s.lastFired = i, k.Fired
		nets[i].Shard = i
		nets[i].Remote = s
	}
	e.helpers = min(runtime.GOMAXPROCS(0), len(kernels)) - 1
	if e.helpers > 0 {
		e.wake = make(chan struct{}, e.helpers)
		e.done = make(chan error, e.helpers)
		for i := 0; i < e.helpers; i++ {
			go e.helper()
		}
	}
	return e, nil
}

// SetRecorder attaches the wall-clock span recorder (nil detaches).
// Call before the first RunUntil. Attaching a recorder changes no
// simulation behavior and no Report bytes — the equivalence battery
// pins that.
func (e *Engine) SetRecorder(r *telemetry.Recorder) {
	r.EnsureShards(len(e.Kernels))
	e.rec = r
}

// ShardStats returns the deterministic per-shard telemetry plane. Safe
// to call whenever the driver may observe the simulation (shards
// parked).
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i := range e.shards {
		out[i] = e.shards[i].ShardStat
		out[i].Windows = e.Stats.Windows
	}
	return out
}

// Shutdown stops the helper goroutines. The engine must not be run
// afterwards.
func (e *Engine) Shutdown() {
	e.closed.Do(func() {
		if e.wake != nil {
			close(e.wake)
		}
	})
}

// Err returns the sticky engine failure, if any (a shard panic). Once
// set, RunUntil refuses to advance.
func (e *Engine) Err() error { return e.failed }

func (e *Engine) fail(err error) {
	if e.failed == nil && err != nil {
		e.failed = err
	}
}

// refusal is what Now and Schedule panic with from inside a window,
// where runShard turns it into the run's sticky error.
const refusal = "parsim: engine clock or action queue used from inside a window; read the event's own kernel, install plans from driver context"

// Now returns the engine's virtual time: every kernel is parked on
// this instant whenever the driver can observe the simulation. It is
// driver-context only, like Schedule: an event callback reads the clock
// of the kernel it runs on, and from inside a window Now panics.
func (e *Engine) Now() sim.Time {
	if e.inWindow {
		panic(refusal)
	}
	return e.now
}

// Lookahead returns the window bound the engine runs with.
func (e *Engine) Lookahead() sim.Time { return e.lookahead }

// Schedule registers a coordinator action: fn runs single-threaded at
// virtual time t, after every event before t and before any model
// event at t, with all shard kernels parked on t. Actions at the same
// instant run in registration order. Scheduling in the past panics,
// mirroring sim.Kernel.At.
//
// Schedule is driver-context only (between RunUntil calls, or from
// another action). From inside a window — an event callback — it
// refuses, as Now does: the queue is coordinator state, and an action
// landing before the running window's end would pull the clock
// backwards.
func (e *Engine) Schedule(t sim.Time, fn func()) {
	if e.inWindow {
		panic(refusal)
	}
	if t < e.now {
		panic(fmt.Sprintf("parsim: action at %v before now %v", t, e.now))
	}
	e.actions = append(e.actions, action{at: t, fn: fn})
	sort.SliceStable(e.actions, func(a, b int) bool { return e.actions[a].at < e.actions[b].at })
}

// BindRoutes sets how deferred RouteOps are applied at a barrier (core
// binds phys.Cluster.Land).
func (e *Engine) BindRoutes(apply func(at sim.Time, op phys.RouteOp)) { e.applyRoute = apply }

// DeferRoute captures a crossbar write aimed at a remote switch on
// srcShard's queue, landing at virtual time at; wire it to
// phys.Cluster.RouteSink. With RemoteFrame it is
// the sanctioned capture surface (see the ampvet shardshare analyzer):
// the only engine state shard context may write.
func (e *Engine) DeferRoute(srcShard int, at sim.Time, op phys.RouteOp) {
	s := &e.shards[srcShard]
	s.routeQ = append(s.routeQ, routeRec{at: at, op: op})
}

// exchange sends every shard's stray packets home (pooled packets that
// died on a shard other than their builder's; see micropacket.Pool),
// then empties every capture queue and delivers what it held:
// deferred crossbar writes first (per source shard, FIFO), then
// cross-shard frames in the canonical (arrival, transmit time, source
// shard, sequence) order, each scheduled on its destination kernel at
// its exact arrival time with the wire priority key that slots it into
// the same same-instant order a one-shard run gives it. Runs
// single-threaded with all kernels parked. Returns the batch sizes for
// the barrier observer.
func (e *Engine) exchange() (nframes, nroutes int) {
	for _, n := range e.nets {
		n.Packets.SendHome()
	}
	frames := e.batch[:0]
	for i := range e.shards {
		s := &e.shards[i]
		s.Frames += uint64(len(s.frameQ))
		frames = append(frames, s.frameQ...)
		s.frameQ = s.frameQ[:0]
	}
	e.batch = frames
	for i := range e.shards {
		s := &e.shards[i]
		s.Routes += uint64(len(s.routeQ))
		nroutes += len(s.routeQ)
		for _, r := range s.routeQ {
			e.applyRoute(r.at, r.op)
		}
		s.routeQ = s.routeQ[:0]
	}
	e.Stats.Frames += uint64(len(frames))
	e.Stats.Routes += uint64(nroutes)
	// Nothing crossed this barrier — common during decoupled phases, and
	// always at one shard: skip the sort.
	if len(frames) == 0 {
		return 0, nroutes
	}
	// slices.SortFunc, unlike sort.Slice, needs no reflection-based
	// swapper allocation per barrier.
	slices.SortFunc(frames, func(a, b frameRec) int {
		return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.txAt, b.txAt),
			cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
	})
	for i := range frames {
		pf := &frames[i]
		// Pooled, Timer-free scheduling on the destination shard — the
		// same path a local hop takes, so cross-shard injection costs no
		// allocations either.
		pf.dst.Net().ScheduleDelivery(pf.arrival, pf.txAt, pf.srcUID, pf.dst, pf.f, pf.link, pf.epoch)
	}
	return len(frames), nroutes
}

// helper joins the coordinator in each window it is woken for.
func (e *Engine) helper() {
	for range e.wake {
		e.done <- e.runClaimed()
	}
}

// runClaimed claims and runs busy shards until none is left, returning
// the first error. Its run spans are adjacent: one clock read ends a
// shard's span and starts the next one's.
func (e *Engine) runClaimed() (first error) {
	// A window the coordinator runs alone is timed as a whole
	// (soloRunSpans divides its span among the shards afterwards): at a
	// few microseconds a window, a clock read per shard is what the
	// recorder costs.
	rec := e.rec
	if e.solo {
		rec = nil
	}
	now := rec.Begin()
	for {
		j := int(e.claimed.Add(1)) - 1
		if j >= len(e.busy) {
			return first
		}
		var err error
		if now, err = e.runShard(rec, e.busy[j], e.target, now); first == nil {
			first = err
		}
	}
}

// runShard executes one shard's window, recording its run span from
// start and returning the span's end. A model panic becomes an error
// that names the shard and window instead of tearing the process down
// (or, worse, stranding the other shards at the barrier).
func (e *Engine) runShard(rec *telemetry.Recorder, i int, target sim.Time, start int64) (end int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parsim: shard %d panicked in window ending %v: %v\n%s", i, target, r, debug.Stack())
		}
	}()
	e.Kernels[i].RunUntil(target)
	return rec.Shard(i, telemetry.SpanRun, start, int64(target)), nil
}

// grant runs every shard to target (inclusive) and returns when all
// are parked there.
//
// Shards with no event due in the window are not handed out:
// cross-shard work only ever arrives at barriers, so a shard whose next
// event lies beyond target provably executes nothing, and the
// coordinator runs it on the spot. It is still a run, not a bare clock
// move — the window has gone through target on that shard too, which is
// what a port settling a lazy transmit completion at exactly target
// asks the kernel (sim.Kernel.Passed). A window with at most one busy
// shard (a decoupled phase, traffic localized) wakes nobody, nor does
// one that follows a light window.
func (e *Engine) grant(target sim.Time) error {
	e.busy = e.busy[:0]
	for i, k := range e.Kernels {
		if nt, ok := k.NextEventTime(); ok && nt <= target {
			e.busy = append(e.busy, i)
		} else {
			k.RunUntil(target)
		}
	}
	e.target = target
	e.claimed.Store(0)
	woken := 0
	if e.lastWork >= wakeWork {
		woken = min(e.helpers, len(e.busy)-1)
	}
	e.solo = woken <= 0
	for i := 0; i < woken; i++ {
		e.wake <- struct{}{}
	}
	first := e.runClaimed()
	for ; woken > 0; woken-- {
		if err := <-e.done; first == nil {
			first = err
		}
	}
	return first
}

// runWindow executes all shards in parallel up to target (inclusive),
// then exchanges at the barrier.
func (e *Engine) runWindow(target sim.Time) error {
	w0 := e.rec.Begin()
	e.inWindow = true
	err := e.grant(target)
	e.inWindow = false
	e.parked = false
	if err != nil {
		return err
	}
	e.Stats.Windows++
	e.Stats.Barriers++
	// Sample the deterministic plane: every kernel is parked on target,
	// so the fired deltas are the exact per-shard event counts of this
	// window regardless of host scheduling.
	e.lastWork = 0
	for i, k := range e.Kernels {
		s := &e.shards[i]
		delta := k.Fired - s.lastFired
		s.lastFired, s.lastDelta = k.Fired, delta
		s.Events += delta
		if delta > 0 {
			s.BusyWindows++
		}
		s.MaxWindow = max(s.MaxWindow, delta)
		e.lastWork += delta
	}
	// One clock read ends the window span and starts the exchange span:
	// the two intervals are adjacent by construction, and the shared
	// read halves the coordinator's per-window clock cost.
	x0 := e.rec.Begin()
	e.rec.CoordSpan(-1, telemetry.SpanWindow, w0, x0, int64(target))
	if e.solo {
		e.soloRunSpans(w0, x0, target)
	}
	nf, nr := e.exchange()
	// An empty exchange returns without sorting or delivering; its span
	// would be zero-length noise, and skipping it saves a clock read on
	// every decoupled-phase window.
	if nf+nr > 0 {
		e.rec.Coord(telemetry.SpanExchange, x0, int64(target))
	}
	e.now = target
	if e.OnFence != nil {
		e.OnFence(target, nf, nr, false)
	}
	return nil
}

// soloRunSpans records the run spans of a window the coordinator ran
// alone. It ran the busy shards back to back in shard order between w0
// and x0, untimed; each gets the share of that interval its share of
// the window's events comes to — an estimate of where one shard ended
// and the next began, inside a measured whole.
func (e *Engine) soloRunSpans(w0, x0 int64, target sim.Time) {
	if e.rec == nil || e.lastWork == 0 {
		return
	}
	at, fired := w0, uint64(0)
	for i := range e.shards {
		if d := e.shards[i].lastDelta; d > 0 {
			fired += d
			end := w0 + int64(float64(x0-w0)*float64(fired)/float64(e.lastWork))
			e.rec.CoordSpan(i, telemetry.SpanRun, at, end, int64(target))
			at = end
		}
	}
}

// nextEvent returns the earliest pending event time across all shards.
func (e *Engine) nextEvent() (sim.Time, bool) {
	min, any := sim.MaxTime, false
	for _, k := range e.Kernels {
		if t, ok := k.NextEventTime(); ok && t < min {
			min, any = t, true
		}
	}
	return min, any
}

// runActionsAtNow executes every action due at the current instant.
// Kernels must already be parked on e.now with no pending events
// before it. Actions may send cross-shard traffic (a rebooted node
// solicits immediately), so the barrier exchanges afterwards.
func (e *Engine) runActionsAtNow() {
	if len(e.actions) == 0 || e.actions[0].at != e.now {
		return
	}
	a0 := e.rec.Begin()
	for len(e.actions) > 0 && e.actions[0].at == e.now {
		a := e.actions[0]
		e.actions = e.actions[1:]
		a.fn()
		e.Stats.Actions++
	}
	e.rec.Coord(telemetry.SpanAction, a0, int64(e.now))
	e.Stats.Fences++
	x0 := e.rec.Begin()
	nf, nr := e.exchange()
	e.rec.Coord(telemetry.SpanExchange, x0, int64(e.now))
	e.Stats.Barriers++
	if e.OnFence != nil {
		e.OnFence(e.now, nf, nr, true)
	}
}

// RunUntil advances the whole simulation to deadline (inclusive),
// window by window, and leaves every shard kernel parked exactly on
// deadline — the same clock contract as sim.Kernel.RunUntil. The
// driver may freely read cross-shard state after it returns.
//
// A shard panic stops the run where it stands; the error is sticky and
// available from Err.
func (e *Engine) RunUntil(deadline sim.Time) sim.Time {
	if e.failed != nil || deadline < e.now {
		return e.now
	}
	for {
		e.runActionsAtNow()
		if e.now >= deadline {
			// RunUntil is inclusive: model events at the deadline
			// instant (including any the actions just scheduled) still
			// run, exactly as sim.Kernel.RunUntil would. Kernels parked
			// on the instant for an action run through it even with
			// nothing queued, so that the driver finds them as any
			// other RunUntil leaves them: everything at the deadline
			// has happened, a transmitter's lazy completion included
			// (sim.Kernel.Passed).
			if m, any := e.nextEvent(); e.parked || any && m <= deadline {
				if err := e.runWindow(deadline); err != nil {
					e.fail(err)
					return e.now
				}
			}
			break
		}
		// Stop one tick short of the next action so it can run with
		// events before its instant done and events at its instant
		// still pending.
		horizon := deadline
		if len(e.actions) > 0 && e.actions[0].at <= deadline {
			horizon = e.actions[0].at - 1
		}
		if horizon > e.now {
			m, any := e.nextEvent()
			var err error
			switch {
			case !any || m > horizon:
				// Dead time: nothing to execute before the horizon.
				err = e.runWindow(horizon)
			default:
				start := m
				if start < e.now {
					start = e.now
				}
				wEnd := horizon
				// Overflow-proof window clamp: compare the window span
				// (lookahead-1) against the distance to the horizon
				// instead of computing start+lookahead, which wraps for
				// the sim.MaxTime "fully decoupled" sentinel — and for
				// any near-MaxTime lookahead a sparse topology can
				// legitimately produce.
				if e.lookahead-1 < horizon-start {
					wEnd = start + e.lookahead - 1
				}
				if wEnd < e.now {
					wEnd = e.now
				}
				err = e.runWindow(wEnd)
			}
			if err != nil {
				e.fail(err)
				return e.now
			}
			continue
		}
		// horizon == e.now: the next action is one tick away. Realize
		// the current instant first (an earlier action may have
		// scheduled zero-delay work), then advance every kernel onto
		// the action's instant without executing anything there.
		if m, any := e.nextEvent(); any && m <= e.now {
			if err := e.runWindow(e.now); err != nil {
				e.fail(err)
				return e.now
			}
		}
		at := e.actions[0].at
		for _, k := range e.Kernels {
			k.AdvanceTo(at)
		}
		e.parked = true
		e.Stats.Advances++
		e.now = at
	}
	return e.now
}
