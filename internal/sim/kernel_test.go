package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/alloctest"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(30, func() { got = append(got, 3) })
	k.After(10, func() { got = append(got, 1) })
	k.After(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameInstant(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(50, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var trace []Time
	k.After(10, func() {
		trace = append(trace, k.Now())
		k.After(5, func() {
			trace = append(trace, k.Now())
		})
	})
	k.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested schedule trace = %v", trace)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel(1)
	k.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.After(10, func() { fired++ })
	k.After(100, func() { fired++ })
	k.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 50 {
		t.Fatalf("clock = %v, want 50 (advanced to deadline)", k.Now())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(1234)
	if k.Now() != 1234 {
		t.Fatalf("clock = %v, want 1234", k.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	tm := k.After(10, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	tm.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Active() {
		t.Fatal("cancelled timer reports active")
	}
}

func TestTimerReset(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	tm := k.After(10, func() { at = k.Now() })
	tm.Reset(100)
	k.Run()
	if at != 100 {
		t.Fatalf("reset timer fired at %v, want 100", at)
	}
}

// TestNewTimerIsAValue checks that a periodic activity's handle lives
// in its owner: making one into a struct field, arming, re-arming and
// cancelling it allocates nothing, and the held value behaves as the
// handle At returns.
func TestNewTimerIsAValue(t *testing.T) {
	k := NewKernel(1)
	var owner struct{ tick Timer }
	fired := 0
	var at Time
	fn := func() { fired++; at = k.Now() }
	if n := alloctest.Count(100, func() {
		owner.tick = k.NewTimer(fn)
		owner.tick.Reset(5)
		owner.tick.Cancel()
	}); n != 0 {
		t.Fatalf("NewTimer into a field, Reset and Cancel, 100 times: %d allocations, want 0", n)
	}
	owner.tick = k.NewTimer(fn)
	if owner.tick.Active() {
		t.Fatal("unarmed timer reports active")
	}
	k.Run()
	if fired != 0 {
		t.Fatal("unarmed timer fired")
	}
	owner.tick.Reset(10)
	owner.tick.Reset(20) // re-arming keeps one pending event
	if !owner.tick.Active() || k.Pending() != 1 {
		t.Fatalf("after two Resets: active=%v pending=%d, want true 1", owner.tick.Active(), k.Pending())
	}
	k.Run()
	if fired != 1 || at != 20 || owner.tick.Active() {
		t.Fatalf("fired %d times at %v (active=%v), want once at 20", fired, at, owner.tick.Active())
	}
	owner.tick.Reset(5) // re-arms after firing
	k.Run()
	if fired != 2 || at != 25 {
		t.Fatalf("re-armed timer: fired %d times at %v, want twice, last at 25", fired, at)
	}
	owner.tick.Reset(5)
	owner.tick.Cancel()
	owner.tick.Cancel() // a second Cancel is a no-op
	k.Run()
	if fired != 2 || owner.tick.Active() {
		t.Fatalf("cancelled timer: fired %d times (active=%v), want 2 and inactive", fired, owner.tick.Active())
	}
	var zero Timer
	zero.Reset(1)
	zero.Cancel()
	if zero.Active() {
		t.Fatal("zero Timer became active")
	}
}

// pooledEvent is a record that is its own Event, as phys's hop records
// are: it counts its firings and goes back on its pool's free list.
type pooledEvent struct {
	fired *int
	free  *[]*pooledEvent
}

func (e *pooledEvent) Fire() {
	*e.fired++
	*e.free = append(*e.free, e)
}

// TestEventsAllocateNothing: scheduling and firing an existing func
// through Do, and a pooled record through DoPri and DoKey, allocate
// nothing — a func in Func and a pointer in Event are stored as they
// are.
func TestEventsAllocateNothing(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	fn := func() { fired++ }
	var free []*pooledEvent
	for range 2 {
		free = append(free, &pooledEvent{fired: &fired, free: &free})
	}
	take := func() *pooledEvent {
		e := free[len(free)-1]
		free = free[:len(free)-1]
		return e
	}
	// Warm the arena.
	k.Do(1, fn)
	k.DoPri(1, 0, 0, take())
	k.Run()
	runs := 0
	if n := alloctest.Count(100, func() {
		runs++
		k.Do(k.Now()+1, fn)
		k.DoPri(k.Now()+1, 0, 7, take())
		k.DoKey(k.Now()+1, 0, 7, k.Reserve(), take())
		k.Run()
	}); n != 0 {
		t.Fatalf("Do of a func, DoPri and DoKey of pooled Events, 100 times: %d allocations, want 0", n)
	}
	if want := 2 + 3*runs; fired != want || len(free) != 2 {
		t.Fatalf("fired %d events (want %d), %d records back in the pool (want 2)", fired, want, len(free))
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	n := 0
	for i := 0; i < 10; i++ {
		k.After(Time(i+1), func() {
			n++
			if n == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if n != 3 {
		t.Fatalf("executed %d events after Stop, want 3", n)
	}
	k.Run() // resume
	if n != 10 {
		t.Fatalf("executed %d total events, want 10", n)
	}
}

// Stop inside RunUntil leaves events pending before the deadline, so
// the clock must stay on the last event executed: moved to the deadline
// it would sit past them, and the next run would go backwards in time.
func TestStopInRunUntilKeepsClockBehindPending(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.At(10, func() { n++; k.Stop() })
	k.At(20, func() { n++ })
	if now := k.RunUntil(100); now != 10 || n != 1 {
		t.Fatalf("stopped RunUntil returned %v after %d events, want 10 after 1", now, n)
	}
	if now := k.RunUntil(100); now != 100 || n != 2 {
		t.Fatalf("resumed RunUntil returned %v after %d events, want 100 after 2", now, n)
	}
}

// A RunUntil with a deadline behind the clock fires nothing and learns
// nothing: events at now that a Step left pending have still not passed.
func TestPassedAfterRunUntilBehindClock(t *testing.T) {
	k := NewKernel(1)
	k.DoPri(10, 3, 0, Func(func() {}))
	k.DoPri(10, 7, 0, Func(func() {}))
	k.Step()
	if now := k.RunUntil(5); now != 10 || k.Pending() != 1 {
		t.Fatalf("RunUntil(5) at 10: now %v, pending %d", now, k.Pending())
	}
	if !k.Passed(10, 2, 0) || k.Passed(10, 5, 0) {
		t.Fatalf("at 10 inside key (3,0): Passed(2) = %v, Passed(5) = %v, want true, false",
			k.Passed(10, 2, 0), k.Passed(10, 5, 0))
	}
}

func TestStep(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.After(1, func() { n++ })
	k.After(2, func() { n++ })
	if !k.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !k.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestPending(t *testing.T) {
	k := NewKernel(1)
	t1 := k.After(1, func() {})
	k.After(2, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	t1.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("pending after cancel = %d, want 1", k.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(42)
		var out []uint64
		var tick func()
		tick = func() {
			out = append(out, k.RNG().Uint64())
			if len(out) < 50 {
				k.After(k.RNG().Duration(100), tick)
			}
		}
		k.After(0, tick)
		k.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{1500, "1.500µs"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000000s"},
		{-500, "-500ns"},
		{MaxTime, "9223372036.854776s"},
		// MinInt64 has no positive negation; the historical t < 0
		// branch overflowed on it.
		{Time(math.MinInt64), "-9223372036.854776s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverge at step %d", i)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(32)
		seen := make([]bool, 32)
		for _, v := range p {
			if v < 0 || v >= 32 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpPositiveAndMean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(1000)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if mean < 900 || mean > 1100 {
		t.Fatalf("Exp(1000) sample mean = %.1f, want ≈1000", mean)
	}
}
