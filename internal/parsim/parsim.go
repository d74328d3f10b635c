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
// captured. The shard hosting — helper goroutines, capture queues,
// barrier hand-off — is shards.go.
package parsim

import (
	"fmt"
	"slices"
	"sort"

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
// Frames/Routes, which accumulate each barrier drain's cross-shard
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

// ShardStat is one shard's deterministic telemetry: virtual-plane
// quantities only (kernel fired counts sampled at barriers, capture
// counters), byte-reproducible for a given simulation.
type ShardStat struct {
	Shard       int
	Events      uint64         // kernel events executed on this shard
	Windows     uint64         // windows granted
	BusyWindows uint64         // windows in which the shard executed ≥1 event
	Frames      uint64         // cross-shard frames this shard captured
	Routes      uint64         // deferred crossbar writes this shard captured
	EvPerWindow telemetry.Hist // events-per-window occupancy histogram
}

// action is one coordinator closure, run at `at` with all shards
// parked on that instant. Same-instant actions keep registration
// order (the sort below is stable).
type action struct {
	at sim.Time
	fn func()
}

// Engine coordinates the shard kernels of one simulation. It is driven
// from a single goroutine (the scenario driver); shard context only
// ever runs inside RunUntil, behind a window grant.
type Engine struct {
	Kernels []*sim.Kernel

	sh *shards

	lookahead sim.Time
	now       sim.Time

	actions []action
	// inWindow is set while a window is granted: the only time shard
	// context runs, and the only time Schedule must refuse.
	inWindow bool
	// parked is set while the kernels stand on an action's instant they
	// were advanced to and no window has run through it yet.
	parked bool

	failed error

	Stats Stats

	// det is the per-shard deterministic telemetry plane, sampled at
	// window barriers from virtual-plane quantities only.
	det []shardDet

	// rec is the wall-clock telemetry plane: nil (the default) records
	// nothing; when set, the coordinator stamps window/exchange/action
	// spans here and each shard adds its run spans.
	// Wall readings never reach Stats, ShardStats, or any Report field.
	rec *telemetry.Recorder

	// OnFence, if set, observes every barrier after its drain, with all
	// kernels parked on at: frames/routes are the batch sizes the drain
	// delivered, action marks fences forced by coordinator work (plan
	// events) as opposed to plain window barriers. Purely
	// observational — the hook must not mutate model state.
	OnFence func(at sim.Time, frames, routes int, action bool)
}

// shardDet accumulates one shard's deterministic metrics.
type shardDet struct {
	events      uint64
	busyWindows uint64
	lastFired   uint64
	lastDelta   uint64 // events fired in the latest window
	evPerWindow telemetry.Hist
}

// New builds an engine over one kernel+Net pair per shard, installing
// its capture queues as every Net's RemoteExchange. lookahead is the
// fabric's conservative window bound (phys.Lookahead); it must be
// positive. Call Shutdown when the simulation is done.
func New(kernels []*sim.Kernel, nets []*phys.Net, lookahead sim.Time) (*Engine, error) {
	if len(kernels) != len(nets) || len(kernels) == 0 {
		return nil, fmt.Errorf("parsim: %d kernels vs %d nets", len(kernels), len(nets))
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("parsim: non-positive lookahead %v", lookahead)
	}
	e := &Engine{
		Kernels:   kernels,
		sh:        newShards(kernels, nets),
		lookahead: lookahead,
		det:       make([]shardDet, len(kernels)),
	}
	for i, k := range kernels {
		e.det[i].lastFired = k.Fired
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
	e.sh.rec = r
}

// ShardStats returns the deterministic per-shard telemetry plane. Safe
// to call whenever the driver may observe the simulation (shards
// parked).
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.det))
	for i := range e.det {
		d := &e.det[i]
		out[i] = ShardStat{
			Shard:       i,
			Events:      d.events,
			Windows:     e.Stats.Windows,
			BusyWindows: d.busyWindows,
			Frames:      e.sh.captured[i].frames,
			Routes:      e.sh.captured[i].routes,
			EvPerWindow: d.evPerWindow,
		}
	}
	return out
}

// Shutdown stops the helper goroutines. The engine must not be run
// afterwards.
func (e *Engine) Shutdown() { e.sh.close() }

// Err returns the sticky engine failure, if any (a shard panic). Once
// set, RunUntil refuses to advance.
func (e *Engine) Err() error { return e.failed }

func (e *Engine) fail(err error) {
	if e.failed == nil && err != nil {
		e.failed = err
	}
}

// Now returns the engine's virtual time: every kernel is at this
// instant whenever the driver can observe the simulation. With one
// kernel it is that kernel's clock, so a callback reading it from
// inside an event sees the firing event's instant, not the window
// start.
func (e *Engine) Now() sim.Time {
	if len(e.Kernels) == 1 {
		return e.Kernels[0].Now()
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
// panics: the queue is coordinator state, and an action landing before
// the running window's end would pull the clock backwards.
func (e *Engine) Schedule(t sim.Time, fn func()) {
	if e.inWindow {
		panic("parsim: action scheduled from inside a window; install plans from driver context")
	}
	if t < e.now {
		panic(fmt.Sprintf("parsim: action at %v before now %v", t, e.now))
	}
	e.actions = append(e.actions, action{at: t, fn: fn})
	sort.SliceStable(e.actions, func(a, b int) bool { return e.actions[a].at < e.actions[b].at })
}

// BindRoutes sets how drained RouteOps are applied at a barrier (core
// binds phys.Cluster.Land).
func (e *Engine) BindRoutes(apply func(at sim.Time, op phys.RouteOp)) { e.sh.applyRoute = apply }

// DeferRoute captures a crossbar write aimed at a remote switch on
// srcShard's queue, landing at virtual time at; wire it to
// phys.Cluster.RouteSink. With RemoteFrame it is
// the sanctioned capture surface (see the ampvet shardshare analyzer):
// the only engine state shard context may write.
func (e *Engine) DeferRoute(srcShard int, at sim.Time, op phys.RouteOp) {
	e.sh.routes[srcShard] = append(e.sh.routes[srcShard], routeRec{at: at, op: op})
}

// drain collects everything captured since the last barrier and
// delivers it: deferred crossbar writes (per source shard, FIFO), then
// cross-shard frames in the canonical (arrival, transmit time, source
// shard, sequence) order, each scheduled on its destination kernel at
// its exact arrival time. Runs single-threaded with all kernels
// parked. Returns the batch sizes for the barrier observer.
func (e *Engine) drain() (nframes, nroutes int) {
	frames, routes := e.sh.collect()
	e.Stats.Routes += uint64(len(routes))
	e.Stats.Frames += uint64(len(frames))
	if len(frames) == 0 && len(routes) == 0 {
		// Nothing crossed this barrier — common during decoupled
		// phases, and always at one shard; skip the sort and delivery.
		return 0, 0
	}
	// Canonical batch order: arrival, then the wire key (transmit
	// start, sending-port identity by way of source shard and capture
	// sequence) — slotting each arrival into exactly the same
	// same-instant order a one-shard run gives it.
	// slices.SortFunc, unlike sort.Slice, needs no reflection-based
	// swapper allocation per barrier.
	slices.SortFunc(frames, func(pa, pb frameRec) int {
		switch {
		case pa.arrival != pb.arrival:
			if pa.arrival < pb.arrival {
				return -1
			}
			return 1
		case pa.txAt != pb.txAt:
			if pa.txAt < pb.txAt {
				return -1
			}
			return 1
		case pa.src != pb.src:
			return pa.src - pb.src
		case pa.seq != pb.seq:
			if pa.seq < pb.seq {
				return -1
			}
			return 1
		}
		return 0
	})
	e.sh.deliver(frames, routes)
	return len(frames), len(routes)
}

// runWindow executes all shards in parallel up to target (inclusive),
// then drains the barrier.
func (e *Engine) runWindow(target sim.Time) error {
	w0 := e.rec.Begin()
	e.inWindow = true
	err := e.sh.grant(target)
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
	e.sh.lastWork = 0
	for i, k := range e.Kernels {
		d := &e.det[i]
		delta := k.Fired - d.lastFired
		d.lastFired = k.Fired
		d.lastDelta = delta
		d.events += delta
		if delta > 0 {
			d.busyWindows++
		}
		d.evPerWindow.Observe(delta)
		e.sh.lastWork += delta
	}
	// One clock read ends the window span and starts the exchange span:
	// the two intervals are adjacent by construction, and the shared
	// read halves the coordinator's per-window clock cost.
	x0 := e.rec.Begin()
	e.rec.CoordSpan(-1, telemetry.SpanWindow, w0, x0, int64(target))
	if e.sh.solo {
		e.soloRunSpans(w0, x0, target)
	}
	nf, nr := e.drain()
	// An empty drain returns without sorting or delivering; its span
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
	if e.rec == nil || e.sh.lastWork == 0 {
		return
	}
	at, fired := w0, uint64(0)
	for i := range e.det {
		if d := e.det[i].lastDelta; d > 0 {
			fired += d
			end := w0 + int64(float64(x0-w0)*float64(fired)/float64(e.sh.lastWork))
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
// solicits immediately), so the barrier is drained afterwards.
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
	nf, nr := e.drain()
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
