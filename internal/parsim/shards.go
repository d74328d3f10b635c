package parsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

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
	seq     uint64
}

// routeRec is one barrier-deferred crossbar write and the virtual
// instant it lands on the owning shard's kernel (see
// phys.Cluster.Program for why writes are timestamped). Application
// order is source-shard FIFO.
type routeRec struct {
	at sim.Time
	op phys.RouteOp
}

// shards hosts the engine's shard kernels: captures in per-shard slices,
// and a pool of helper goroutines (none at one shard) that run a
// window's busy shards beside the coordinator. A shard that panics
// mid-window does not strand the barrier; the panic is recovered where
// the shard ran and surfaces as a grant error naming the shard and
// window.
type shards struct {
	kernels []*sim.Kernel

	frames   [][]frameRec
	frameSeq []uint64
	routes   [][]routeRec
	// captured counts what each shard's queues have yielded so far.
	captured []struct{ frames, routes uint64 }

	applyRoute func(at sim.Time, op phys.RouteOp)

	// Window hand-off. grant lists the window's busy shards and resets
	// the claim counter; the coordinator and the helpers it wakes then
	// each claim the next unclaimed busy shard and run it, until none is
	// left. Claiming balances uneven shards over the cores that a fixed
	// shard-to-goroutine split would leave idle, and costs one wake send
	// and one done receive per woken helper, not per shard. Helpers park
	// between windows; a host with one core has none, and the coordinator
	// runs every shard itself — as it does on any host while windows are
	// lighter than wakeWork. lastWork, the events the previous window
	// fired (the engine's barrier sample), is the estimate of this
	// window's work.
	busy     []int
	lastWork uint64
	solo     bool // the coordinator runs this window alone
	target   sim.Time
	claimed  atomic.Int32
	helpers  int
	wake     chan struct{}
	done     chan error

	// collectFrames/collectRoutes are the reused barrier-exchange
	// buffers: collect concatenates into them instead of allocating a
	// fresh batch per barrier. The engine consumes the batch (sort +
	// deliver) before the next collect, so reuse never aliases live
	// data.
	collectFrames []frameRec
	collectRoutes []routeRec

	closed sync.Once

	// rec is the wall-clock telemetry recorder (nil: record nothing).
	// Whoever claims a shard stamps its run span into that shard's
	// private buffer — one writer at a time, ordered by the barrier, the
	// same discipline as the capture queues — so recording takes no
	// locks on the window hot path.
	rec *telemetry.Recorder
}

// wakeWork is the least number of events the previous window must have
// fired for a window to wake helpers. Measured on a 2-vCPU host, helpers
// against the coordinator alone (EXPERIMENTS.md, E15): at 70–260 events
// a window (64–128 nodes) waking costs 1.5–1.9× the wall, at ~1 000 (512
// nodes) it buys nothing, at ~3 500 (1 024 nodes) it wins 1.5×.
const wakeWork = 2048

// newShards hosts one kernel+Net pair per shard, installing a capture
// queue as every Net's RemoteExchange. With more than one shard it
// starts a helper goroutine per spare core, at most one per shard
// beyond the coordinator's; close stops them.
func newShards(kernels []*sim.Kernel, nets []*phys.Net) *shards {
	t := &shards{
		kernels:  kernels,
		frames:   make([][]frameRec, len(kernels)),
		frameSeq: make([]uint64, len(kernels)),
		routes:   make([][]routeRec, len(kernels)),
		captured: make([]struct{ frames, routes uint64 }, len(kernels)),
	}
	for i, n := range nets {
		n.Shard = i
		n.Remote = &capture{t: t, shard: i}
	}
	t.helpers = min(runtime.GOMAXPROCS(0), len(kernels)) - 1
	if t.helpers > 0 {
		t.wake = make(chan struct{}, t.helpers)
		t.done = make(chan error, t.helpers)
		for i := 0; i < t.helpers; i++ {
			go t.helper()
		}
	}
	return t
}

// capture is the per-shard phys.RemoteExchange: it appends cross-shard
// frames to the source shard's private queue. Only the goroutine that
// claimed the shard appends during a window, so no locking is needed.
type capture struct {
	t     *shards
	shard int
}

// RemoteFrame is the sanctioned frame-capture path (see the ampvet
// shardshare analyzer): with Engine.DeferRoute, the only place shard
// context may write engine state.
func (x *capture) RemoteFrame(src, dst *phys.Port, f phys.Frame, link *phys.Link, epoch uint64, arrival sim.Time) {
	t := x.t
	t.frames[x.shard] = append(t.frames[x.shard], frameRec{
		srcUID: src.UID(), dst: dst, f: f, link: link, epoch: epoch,
		arrival: arrival, txAt: t.kernels[x.shard].Now(),
		src: x.shard, seq: t.frameSeq[x.shard],
	})
	t.frameSeq[x.shard]++
}

// helper joins the coordinator in each window it is woken for.
func (t *shards) helper() {
	for range t.wake {
		t.done <- t.runClaimed()
	}
}

// runClaimed claims and runs busy shards until none is left, returning
// the first error. Its run spans are adjacent: one clock read ends a
// shard's span and starts the next one's.
func (t *shards) runClaimed() (first error) {
	// A window the coordinator runs alone is timed as a whole (the
	// engine divides its span among the shards afterwards): at a few
	// microseconds a window, a clock read per shard is what the
	// recorder costs.
	rec := t.rec
	if t.solo {
		rec = nil
	}
	now := rec.Begin()
	for {
		j := int(t.claimed.Add(1)) - 1
		if j >= len(t.busy) {
			return first
		}
		var err error
		if now, err = t.runShard(rec, t.busy[j], t.target, now); first == nil {
			first = err
		}
	}
}

// runShard executes one shard's window, recording its run span from
// start and returning the span's end. A model panic becomes an error
// that names the shard and window instead of tearing the process down
// (or, worse, stranding the other shards at the barrier).
func (t *shards) runShard(rec *telemetry.Recorder, i int, target sim.Time, start int64) (end int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parsim: shard %d panicked in window ending %v: %v\n%s", i, target, r, debug.Stack())
		}
	}()
	t.kernels[i].RunUntil(target)
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
func (t *shards) grant(target sim.Time) error {
	if len(t.kernels) == 1 {
		// One shard: run it here, on the driver goroutine; a model
		// panic propagates to the caller with its own stack.
		start := t.rec.Begin()
		t.kernels[0].RunUntil(target)
		t.rec.Shard(0, telemetry.SpanRun, start, int64(target))
		return nil
	}
	t.busy = t.busy[:0]
	for i, k := range t.kernels {
		if nt, ok := k.NextEventTime(); ok && nt <= target {
			t.busy = append(t.busy, i)
		} else {
			k.RunUntil(target)
		}
	}
	t.target = target
	t.claimed.Store(0)
	woken := 0
	if t.lastWork >= wakeWork {
		woken = min(t.helpers, len(t.busy)-1)
	}
	t.solo = woken <= 0
	for i := 0; i < woken; i++ {
		t.wake <- struct{}{}
	}
	first := t.runClaimed()
	for ; woken > 0; woken-- {
		if err := <-t.done; first == nil {
			first = err
		}
	}
	return first
}

// collect drains the capture queues: frames concatenated per source
// shard in capture order (the engine sorts them canonically), routes in
// source-shard FIFO order. The per-shard capture sequence restarts at
// every collect: seq is only a same-instant tie-break within one
// barrier's batch.
func (t *shards) collect() ([]frameRec, []routeRec) {
	frames := t.collectFrames[:0]
	routes := t.collectRoutes[:0]
	for s := range t.frames {
		t.captured[s].frames += uint64(len(t.frames[s]))
		t.captured[s].routes += uint64(len(t.routes[s]))
		frames = append(frames, t.frames[s]...)
		routes = append(routes, t.routes[s]...)
		t.frames[s] = t.frames[s][:0]
		t.routes[s] = t.routes[s][:0]
		t.frameSeq[s] = 0
	}
	t.collectFrames, t.collectRoutes = frames, routes
	return frames, routes
}

// deliver applies a barrier batch: routes first, then frames in the
// engine's canonical order, each scheduled on its destination kernel at
// its exact arrival time with the wire priority key (transmit start,
// sending-port identity) that slots it into the same same-instant
// order a one-shard run gives it.
func (t *shards) deliver(frames []frameRec, routes []routeRec) {
	for _, r := range routes {
		t.applyRoute(r.at, r.op)
	}
	for i := range frames {
		pf := &frames[i]
		// Pooled, Timer-free scheduling on the destination shard — the
		// same path a local hop takes, so cross-shard injection costs
		// no allocations either.
		pf.dst.Net().ScheduleDelivery(pf.arrival, pf.txAt, pf.srcUID, pf.dst, pf.f, pf.link, pf.epoch)
	}
}

// close stops the helper goroutines.
func (t *shards) close() {
	t.closed.Do(func() {
		if t.wake != nil {
			close(t.wake)
		}
	})
}
