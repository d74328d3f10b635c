package sim

import "testing"

// TestDoPriOrdering verifies the same-instant tie-break contract:
// ascending (priT, priH), with plain At/After events slotting in at
// their scheduling time and FIFO order breaking exact key ties.
func TestDoPriOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	mark := func(i int) func() { return func() { order = append(order, i) } }

	// All at t=100. Keys: plain events scheduled now carry priT=0
	// (now=0); explicit keys 50 and 20 follow; an equal key falls back
	// to FIFO.
	k.DoPri(100, 50, 7, Func(mark(3)))
	k.DoPri(100, 20, 9, Func(mark(2)))
	k.At(100, mark(1)) // priT = now = 0: first
	k.DoPri(100, 50, 7, Func(mark(4)))
	k.DoPri(100, 50, 2, Func(mark(5))) // same priT, smaller hash: before 3/4
	k.Run()
	want := []int{1, 2, 5, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestAtPriMatchesScheduleOrder verifies that plain events keep the
// historical FIFO-at-same-instant semantics: priT is the scheduling
// time, so earlier-scheduled events still run first.
func TestAtPriMatchesScheduleOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(50, func() { order = append(order, 1) })
	k.After(10, func() { k.At(50, func() { order = append(order, 2) }) })
	k.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

func TestNextEventTime(t *testing.T) {
	k := NewKernel(1)
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty kernel reported a pending event")
	}
	k.At(42, func() {})
	k.At(7, func() {})
	if at, ok := k.NextEventTime(); !ok || at != 7 {
		t.Fatalf("NextEventTime = %v,%v, want 7,true", at, ok)
	}
}

func TestAdvanceTo(t *testing.T) {
	k := NewKernel(1)
	k.At(100, func() {})
	k.AdvanceTo(99)
	if k.Now() != 99 {
		t.Fatalf("now = %v, want 99", k.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo over a pending event did not panic")
		}
	}()
	k.AdvanceTo(101)
}
