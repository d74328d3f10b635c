package sim

import "testing"

// Heartbeat-heavy workloads (rostering, failover) continuously arm and
// cancel timers. Cancelled events must leave the queue immediately —
// dead entries must not accumulate, and their arena slots are reused.
func TestCancelChurnBoundsHeap(t *testing.T) {
	k := NewKernel(1)
	arena0 := len(k.arena)
	const rounds = 10000
	for i := 0; i < rounds; i++ {
		// Delays sweep across the wheel horizon, so both tiers churn.
		tm := k.After(Time(1000+i*16), func() { t.Error("cancelled timer fired") })
		tm.Cancel()
		if n := k.Pending(); n != 0 {
			t.Fatalf("round %d: %d events pending after cancel, want 0", i, n)
		}
	}
	if grew := len(k.arena) - arena0; grew > 4 {
		t.Fatalf("arena grew by %d entries across churn, want ≤4 (slots reused)", grew)
	}
	k.Run()
}

func TestResetChurnBoundsHeap(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	tm := k.After(10, func() { fired++ })
	arena0 := len(k.arena)
	const rounds = 10000
	for i := 0; i < rounds; i++ {
		tm.Reset(Time(10 + i*16))
		if n := k.Pending(); n != 1 {
			t.Fatalf("round %d: %d events pending after Reset, want 1", i, n)
		}
	}
	if grew := len(k.arena) - arena0; grew > 4 {
		t.Fatalf("arena grew by %d entries across churn, want ≤4 (slots reused)", grew)
	}
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly 1 after Reset churn", fired)
	}
}

// A hostile mix: many live timers interleaved with cancellations in the
// middle of the heap. Pending must track exactly and the heap must hold
// only live events.
func TestInterleavedCancelKeepsHeapLive(t *testing.T) {
	k := NewKernel(1)
	var timers []*Timer
	fired := 0
	for i := 0; i < 1000; i++ {
		timers = append(timers, k.After(Time(i+1), func() { fired++ }))
	}
	for i := 0; i < 1000; i += 2 {
		timers[i].Cancel()
	}
	if k.Pending() != 500 {
		t.Fatalf("Pending = %d, want 500", k.Pending())
	}
	k.Run()
	if fired != 500 {
		t.Fatalf("fired = %d, want 500", fired)
	}
}

// Nil and zero Timers must be inert for Cancel, Active and Reset alike
// (Reset used to dereference t.e.fn unconditionally).
func TestNilAndZeroTimerSafe(t *testing.T) {
	var nilTimer *Timer
	nilTimer.Cancel()
	nilTimer.Reset(10)
	if nilTimer.Active() {
		t.Fatal("nil timer active")
	}
	var zero Timer
	zero.Cancel()
	zero.Reset(10)
	if zero.Active() {
		t.Fatal("zero timer active")
	}
}

// A Timer handle whose event was recycled into a new event must not be
// able to cancel the new owner's event.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	k := NewKernel(1)
	first := k.After(1, func() {})
	k.Run() // fires and recycles the event
	fired := false
	k.After(5, func() { fired = true }) // reuses the recycled event
	first.Cancel()                      // stale handle: must be a no-op
	if k.Pending() != 1 {
		t.Fatalf("stale Cancel removed a live event (Pending = %d)", k.Pending())
	}
	k.Run()
	if !fired {
		t.Fatal("live event did not fire after stale Cancel")
	}
}

func TestDoubleCancelSafe(t *testing.T) {
	k := NewKernel(1)
	tm := k.After(10, func() { t.Error("cancelled timer fired") })
	tm.Cancel()
	tm.Cancel()
	tm2 := k.After(20, func() {})
	k.Run()
	_ = tm2
}

// Reset on a cancelled timer re-arms the original callback; Cancel on a
// Reset-moved timer cancels the new event.
func TestResetAfterCancelRearms(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	tm := k.After(10, func() { fired++ })
	tm.Cancel()
	tm.Reset(30)
	if !tm.Active() {
		t.Fatal("timer inactive after Reset")
	}
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 30 {
		t.Fatalf("fired at %v, want 30", k.Now())
	}
}
