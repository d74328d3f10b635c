package parsim

import (
	"fmt"
	"runtime/debug"
	"sync"

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
// instant it lands. at == 0 applies on receipt, at the barrier; a
// positive at is scheduled on the owning shard's kernel at exactly that
// instant (see phys.Cluster.Program for why trunk-crossing writes are
// timestamped). Application order is source-shard FIFO.
type routeRec struct {
	at sim.Time
	op phys.RouteOp
}

// shards hosts the engine's shard kernels: one worker goroutine per
// shard (none at one shard), captures in per-shard slices. A shard that
// panics mid-window does not strand the barrier; the panic is recovered
// in the worker and surfaces as a grant error naming the shard and
// window.
type shards struct {
	kernels []*sim.Kernel

	frames   [][]frameRec
	frameSeq []uint64
	routes   [][]routeRec
	// captured counts what each shard's queues have yielded so far.
	captured []struct{ frames, routes uint64 }

	applyRoute func(at sim.Time, op phys.RouteOp)

	// Window hand-off: one target send and one done receive per worker
	// per window. Workers park between windows, so driver read phases
	// and single-core hosts cost nothing; on multicore the wakeups
	// overlap and the per-window barrier stays in the low microseconds
	// against window workloads hundreds of events deep.
	work []chan sim.Time
	done chan error

	// collectFrames/collectRoutes are the reused barrier-exchange
	// buffers: collect concatenates into them instead of allocating a
	// fresh batch per barrier. The engine consumes the batch (sort +
	// deliver) before the next collect, so reuse never aliases live
	// data.
	collectFrames []frameRec
	collectRoutes []routeRec

	closed sync.Once

	// rec is the wall-clock telemetry recorder (nil: record nothing).
	// Each shard worker stamps its own run spans into its private
	// buffer — the same single-writer discipline as the capture queues —
	// so recording takes no locks on the window hot path.
	rec *telemetry.Recorder
}

// newShards hosts one kernel+Net pair per shard, installing a capture
// queue as every Net's RemoteExchange. With more than one shard it
// starts one worker goroutine per shard; close stops them.
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
	if len(kernels) > 1 {
		t.done = make(chan error, len(kernels))
		for i := range kernels {
			ch := make(chan sim.Time)
			t.work = append(t.work, ch)
			go t.worker(i, ch)
		}
	}
	return t
}

// capture is the per-shard phys.RemoteExchange: it appends cross-shard
// frames to the source shard's private queue. Only the shard's own
// worker appends during a window, so no locking is needed.
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

// worker runs shard i's kernel window by window.
func (t *shards) worker(i int, ch chan sim.Time) {
	for target := range ch {
		t.done <- t.runShard(i, target)
	}
}

// runShard executes one shard's window, converting a model panic into
// an error that names the shard and window instead of tearing the
// process down (or, worse, stranding the other shards at the barrier).
func (t *shards) runShard(i int, target sim.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parsim: shard %d panicked in window ending %v: %v\n%s", i, target, r, debug.Stack())
		}
	}()
	start := t.rec.Begin()
	t.kernels[i].RunUntil(target)
	t.rec.Shard(i, telemetry.SpanRun, start, int64(target))
	return nil
}

// grant runs every shard to target (inclusive) and returns when all
// are parked there.
//
// Shards with no event due in the window are not woken: cross-shard
// work only ever arrives at barriers, so a shard whose next event lies
// beyond target provably executes nothing — its clock is advanced
// directly on the coordinator, skipping the worker round-trip. During
// a decoupled phase (traffic localized to a few shards) this removes
// two channel hops and a goroutine wakeup per idle shard per window;
// the skipped shard ends the window in the identical state (clock on
// target, nothing fired) a granted run would have left.
func (t *shards) grant(target sim.Time) error {
	if len(t.work) == 0 {
		// One shard: run it here, on the driver goroutine; a model
		// panic propagates to the caller with its own stack.
		start := t.rec.Begin()
		t.kernels[0].RunUntil(target)
		t.rec.Shard(0, telemetry.SpanRun, start, int64(target))
		return nil
	}
	granted := 0
	for i, ch := range t.work {
		if nt, ok := t.kernels[i].NextEventTime(); ok && nt <= target {
			ch <- target
			granted++
		} else {
			t.kernels[i].AdvanceTo(target)
		}
	}
	var firstErr error
	for ; granted > 0; granted-- {
		if err := <-t.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
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

// close stops the worker goroutines.
func (t *shards) close() {
	t.closed.Do(func() {
		for _, ch := range t.work {
			close(ch)
		}
	})
}
