package parsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// rig is two shards joined by one 200 m split link.
type rig struct {
	e        *Engine
	k        [2]*sim.Kernel
	n        [2]*phys.Net
	pa, pb   *phys.Port
	link     *phys.Link
	arrivals []sim.Time
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{}
	for i := 0; i < 2; i++ {
		r.k[i] = sim.NewKernel(uint64(i + 1))
		r.n[i] = phys.NewNet(r.k[i])
	}
	e, err := New(r.k[:], r.n[:], phys.PropTime(200))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Shutdown)
	r.e = e
	r.pa = r.n[0].NewPort("a", nil)
	r.pb = r.n[1].NewPort("b", func(_ *phys.Port, f phys.Frame) {
		r.arrivals = append(r.arrivals, r.k[1].Now())
	})
	r.link = r.n[0].Connect(r.pa, r.pb, 200)
	return r
}

func frame() phys.Frame {
	p := micropacket.NewData(1, 2, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	return phys.Frame{Pkt: p, Wire: uint16(wire.Size(wire.V1, p.Type, len(p.Data)))}
}

// TestCrossShardDeliveryTiming: a frame over a split link arrives at
// exactly transmit start + serialization + propagation, as a local
// link would deliver it.
func TestCrossShardDeliveryTiming(t *testing.T) {
	r := newRig(t)
	f := frame()
	sendAt := sim.Time(5 * sim.Microsecond)
	r.k[0].At(sendAt, func() { r.pa.Send(f) })
	r.e.RunUntil(20 * sim.Microsecond)
	want := sendAt + phys.SerTime(int(f.Wire)+phys.DefaultIFG) + phys.PropTime(200)
	if len(r.arrivals) != 1 || r.arrivals[0] != want {
		t.Fatalf("arrivals = %v, want [%v]", r.arrivals, want)
	}
	if r.e.Stats.Frames != 1 {
		t.Fatalf("stats.Frames = %d, want 1", r.e.Stats.Frames)
	}
	if r.e.Now() != 20*sim.Microsecond || r.k[0].Now() != r.e.Now() || r.k[1].Now() != r.e.Now() {
		t.Fatalf("clocks not parked on deadline: engine=%v k0=%v k1=%v", r.e.Now(), r.k[0].Now(), r.k[1].Now())
	}
}

// TestDeadTimeSkip: with sparse events, the engine jumps between them
// instead of stepping every lookahead window.
func TestDeadTimeSkip(t *testing.T) {
	r := newRig(t)
	fired := 0
	r.k[0].At(1*sim.Millisecond, func() { fired++ })
	r.k[1].At(9*sim.Millisecond, func() { fired++ })
	r.e.RunUntil(10 * sim.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	// 10 ms at a 1 µs lookahead would be 10000 lockstep windows; the
	// skip should need only a handful.
	if r.e.Stats.Windows > 10 {
		t.Fatalf("windows = %d, want a handful (dead-time skip broken)", r.e.Stats.Windows)
	}
}

// TestActionsRunBeforeInstantEvents: a coordinator action at t runs
// after all events before t and before model events at t, and actions
// at one instant run in registration order.
func TestActionsRunBeforeInstantEvents(t *testing.T) {
	r := newRig(t)
	var order []string
	r.k[0].At(4999, func() { order = append(order, "before") })
	r.k[1].At(5000, func() { order = append(order, "model-at-t") })
	r.e.Schedule(5000, func() { order = append(order, "action-1") })
	r.e.Schedule(5000, func() { order = append(order, "action-2") })
	r.e.RunUntil(6000)
	want := []string{"before", "action-1", "action-2", "model-at-t"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if r.e.Stats.Actions != 2 {
		t.Fatalf("stats.Actions = %d, want 2", r.e.Stats.Actions)
	}
}

// singleShard is the engine every unsharded cluster runs on: one kernel,
// unbounded lookahead.
func singleShard(t *testing.T) (*Engine, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel(1)
	e, err := New([]*sim.Kernel{k}, []*phys.Net{phys.NewNet(k)}, sim.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Shutdown)
	return e, k
}

// TestOneKernelContract pins the scheduling contract of the one-shard
// engine: events before t, then the action at t, then model events at
// t (including a zero-delay event the action schedules); RunUntil
// inclusive with the clock exactly on the deadline; an event reads its
// kernel's clock, and reading the engine's from inside a window ends the
// run with the refusal; and the MaxTime lookahead never overflows a
// window end.
func TestOneKernelContract(t *testing.T) {
	e, k := singleShard(t)
	var order []string
	note := func(s string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%d", s, k.Now())) }
	}
	k.At(4999, note("before"))
	k.At(5000, note("model"))
	e.Schedule(5000, func() {
		note("action")()
		k.After(0, note("zero-delay"))
	})
	k.At(6000, note("on-deadline"))
	k.At(6001, note("past-deadline"))
	if got := e.RunUntil(6000); got != 6000 || e.Now() != 6000 || k.Now() != 6000 {
		t.Fatalf("RunUntil(6000) = %v, engine %v, kernel %v; want all on the deadline", got, e.Now(), k.Now())
	}
	want := []string{"before@4999", "action@5000", "model@5000", "zero-delay@5000", "on-deadline@6000"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Stats.Windows > 3 {
		t.Fatalf("windows = %d; an unbounded lookahead should span to the next action or deadline", e.Stats.Windows)
	}
	if got := e.RunUntil(sim.MaxTime); got != sim.MaxTime || order[len(order)-1] != "past-deadline@6001" {
		t.Fatalf("RunUntil(MaxTime) = %v, order %v", got, order)
	}

	e, k = singleShard(t)
	k.At(10, func() { _ = e.Now() })
	k.At(11, func() { t.Error("the run went on past the refused read") })
	e.RunUntil(100)
	if err := e.Err(); err == nil || !strings.Contains(err.Error(), refusal) || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("an event reading the engine clock ended the run with %v, want the refusal naming shard 0", err)
	}
}

// TestDeferredRoutesApplyAtBarrier: deferred RouteOps apply at the
// next barrier, in source-shard FIFO order.
func TestDeferredRoutesApplyAtBarrier(t *testing.T) {
	r := newRig(t)
	var applied []int
	r.e.BindRoutes(func(_ sim.Time, op phys.RouteOp) { applied = append(applied, op.In) })
	r.k[0].At(100, func() {
		r.e.DeferRoute(0, 0, phys.RouteOp{Switch: 0, In: 1, Out: 7})
		r.e.DeferRoute(0, 0, phys.RouteOp{Switch: 0, In: 2, Out: 7})
	})
	r.e.RunUntil(10 * sim.Microsecond)
	if len(applied) != 2 || applied[0] != 1 || applied[1] != 2 {
		t.Fatalf("applied = %v, want [1 2]", applied)
	}
	if r.e.Stats.Routes != 2 {
		t.Fatalf("stats.Routes = %d, want 2", r.e.Stats.Routes)
	}
}

// TestShardPanicPropagates: a model panic inside a shard's window must
// surface as a sticky engine error naming the shard and window — never
// a hang, never a torn-down process, at one shard as at two.
func TestShardPanicPropagates(t *testing.T) {
	one, k := singleShard(t)
	r := newRig(t)
	for _, tc := range []struct {
		e     *Engine
		k     *sim.Kernel
		shard string
	}{{one, k, "shard 0"}, {r.e, r.k[1], "shard 1"}} {
		tc.k.At(3000, func() { panic("injected model failure") })
		tc.e.RunUntil(10 * sim.Microsecond)
		err := tc.e.Err()
		if err == nil {
			t.Fatalf("%d shards: shard panic did not surface as an engine error", len(tc.e.Kernels))
		}
		for _, want := range []string{tc.shard, "window ending", "injected model failure"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
		// The engine is now stuck: further runs refuse to advance.
		before := tc.e.Now()
		if tc.e.RunUntil(20*sim.Microsecond) != before {
			t.Fatal("engine advanced past a sticky failure")
		}
	}
}

// TestClaimedWindowsRunEveryShardOnce: twelve unconnected shards, more
// than most test hosts have helpers for, with uneven work — shard s
// ticks every (s+1)·100 ns, ≈ 3 000 events a window between them, so
// every window after the first is heavy enough to wake the helpers.
// Whoever claims a shard, each must fire exactly its own ticks and end
// every run parked on the deadline. Under -race this is also the check
// that one shard's kernel is never run from two goroutines without the
// barrier between them.
func TestClaimedWindowsRunEveryShardOnce(t *testing.T) {
	const shards, window = 12, 100 * sim.Microsecond
	kernels := make([]*sim.Kernel, shards)
	nets := make([]*phys.Net, shards)
	ticks := make([]int, shards)
	for s := range kernels {
		k := sim.NewKernel(uint64(s))
		kernels[s], nets[s] = k, phys.NewNet(k)
		period := sim.Time(s+1) * 100
		var tick func()
		tick = func() { ticks[s]++; k.Do(k.Now()+period, tick) }
		k.Do(period, tick)
	}
	e, err := New(kernels, nets, window)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	for _, deadline := range []sim.Time{sim.Millisecond, 2 * sim.Millisecond} {
		e.RunUntil(deadline)
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		for s, k := range kernels {
			if k.Now() != deadline {
				t.Fatalf("shard %d parked at %v, want %v", s, k.Now(), deadline)
			}
			if want := int(deadline / (sim.Time(s+1) * 100)); ticks[s] != want {
				t.Fatalf("shard %d fired %d ticks by %v, want %d", s, ticks[s], deadline, want)
			}
		}
	}
}

// TestSplitLinkFailDropsInFlight: a split link failed at a barrier
// (while both shards are parked) loses captured in-flight frames, and
// the loss is counted.
func TestSplitLinkFailDropsInFlight(t *testing.T) {
	r := newRig(t)
	r.k[0].At(1000, func() { r.pa.Send(frame()) })
	// Run just past transmit start, then cut the fiber at the barrier
	// before the frame's arrival.
	r.e.RunUntil(1100)
	r.link.Fail()
	r.e.RunUntil(20 * sim.Microsecond)
	if len(r.arrivals) != 0 {
		t.Fatalf("frame survived a mid-flight fiber cut: %v", r.arrivals)
	}
	if r.n[0].Acct.FailureLosses()+r.n[1].Acct.FailureLosses() == 0 {
		t.Fatal("in-flight loss not counted")
	}
}

// TestAssignShardsAndLookahead pins the canonical partition and the
// lookahead rule on the sharded multi-ring shape.
func TestAssignShardsAndLookahead(t *testing.T) {
	topo := phys.Sharded(4, 3, 2, 50)
	assign, err := phys.AssignShards(&topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < topo.Switches; s++ {
		if want := s / 2; assign.SwitchShard[s] != want {
			t.Fatalf("switch %d on shard %d, want %d", s, assign.SwitchShard[s], want)
		}
	}
	for n := 0; n < topo.Nodes; n++ {
		if want := n / 3; assign.NodeShard[n] != want {
			t.Fatalf("node %d on shard %d, want %d (nodes live with their switches)", n, assign.NodeShard[n], want)
		}
	}
	la, err := phys.Lookahead(&topo, assign)
	if err != nil {
		t.Fatal(err)
	}
	if want := phys.PropTime(50); la != want {
		t.Fatalf("lookahead = %v, want %v (trunk fiber)", la, want)
	}
	// Zero-length cross-shard fiber has no lookahead.
	bad := phys.Sharded(2, 2, 1, 0)
	assign2, err := phys.AssignShards(&bad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phys.Lookahead(&bad, assign2); err == nil {
		t.Fatal("zero-fiber fabric produced a lookahead")
	}
}

// TestLazyCompletionAtBarriers: a port's transmit completion is a
// timestamp the port settles against its kernel's firing position
// (sim.Kernel.Passed), so the engine must leave every kernel where a
// run with the completion queued as an event would have: an action at
// the completion's instant runs before it, and a RunUntil that ends on
// that instant has been through it — on a shard that had nothing to run
// in the window, and after an action parked the kernels there.
func TestLazyCompletionAtBarriers(t *testing.T) {
	f := frame()
	txEnd := phys.SerTime(int(f.Wire) + phys.DefaultIFG)
	for _, tc := range []struct {
		name string
		rig  func(t *testing.T) (*Engine, *phys.Port)
	}{
		{"one-shard", func(t *testing.T) (*Engine, *phys.Port) {
			k := sim.NewKernel(1)
			n := phys.NewNet(k)
			e, err := New([]*sim.Kernel{k}, []*phys.Net{n}, sim.MaxTime)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Shutdown)
			pa := n.NewPort("a", nil)
			n.Connect(pa, n.NewPort("b", nil), 200)
			return e, pa
		}},
		// The delivery is captured for shard 1, so the sender's shard
		// holds no event at all.
		{"idle-shard", func(t *testing.T) (*Engine, *phys.Port) { r := newRig(t); return r.e, r.pa }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, pa := tc.rig(t)
			pa.Send(f)
			e.RunUntil(txEnd - 1)
			if got := pa.QueueLen(); got != 1 {
				t.Fatalf("one tick before the completion: QueueLen = %d, want 1", got)
			}
			e.RunUntil(txEnd)
			if got := pa.QueueLen(); got != 0 {
				t.Fatalf("after RunUntil(txEnd): QueueLen = %d, want 0", got)
			}

			e, pa = tc.rig(t)
			pa.Send(f)
			inAction := -1
			e.Schedule(txEnd, func() { inAction = pa.QueueLen() })
			e.RunUntil(txEnd)
			if got := pa.QueueLen(); inAction != 1 || got != 0 {
				t.Fatalf("action at txEnd read %d, the driver after the run %d; want 1 and 0", inAction, got)
			}
		})
	}
}

// TestSoloWindowRunSpans: a window the coordinator runs alone is timed
// as a whole — three clock reads, whatever the shard count — and its
// interval divided among the shards that ran, back to back in shard
// order, by the events each fired.
func TestSoloWindowRunSpans(t *testing.T) {
	r := newRig(t)
	clock := telemetry.NewManualClock(1000, 100)
	rec := telemetry.NewRecorder(clock)
	r.e.SetRecorder(rec)
	for i := 0; i < 3; i++ {
		r.k[0].Do(10, func() {})
	}
	r.k[1].Do(20, func() {})
	r.e.RunUntil(50)

	var window telemetry.Span
	var runs []telemetry.Span
	for _, s := range rec.Spans() {
		switch s.Kind {
		case telemetry.SpanWindow:
			if window.End == 0 {
				window = s
			}
		case telemetry.SpanRun:
			runs = append(runs, s)
		}
	}
	if len(runs) != 2 || runs[0].Shard != 0 || runs[1].Shard != 1 {
		t.Fatalf("run spans %+v, want one per shard", runs)
	}
	if runs[0].Start != window.Start || runs[0].End != runs[1].Start || runs[1].End != window.End {
		t.Fatalf("run spans %+v do not tile the window %+v", runs, window)
	}
	if got, want := runs[0].Dur(), window.Dur()*3/4; got != want {
		t.Fatalf("shard 0 fired 3 of the window's 4 events and got %d of its %d ns, want %d", got, window.Dur(), want)
	}
	if window.Dur() != 100 {
		t.Fatalf("the window took %d ns of a clock that steps 100 a reading: the shards were timed one by one", window.Dur())
	}
}
