package phys

import (
	"slices"
	"testing"
)

// TestQueueReusesBacking: a queue that never drains keeps FIFO order
// and a bounded backing array, and one that drains rewinds onto it.
func TestQueueReusesBacking(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for range 40 {
		q.Push(next)
		next++
	}
	for range 10_000 {
		q.Push(next)
		next++
		if got := q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	if q.Len() != 40 || cap(q.buf) > 256 {
		t.Fatalf("after 10 000 pops: len %d, cap %d (want 40, <= 256)", q.Len(), cap(q.buf))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue not rewound: head %d, len %d", q.head, len(q.buf))
	}
}

// TestQueueMatchesSlice drives Insert, At, Pop and Clear against a
// plain slice, across the compaction threshold.
func TestQueueMatchesSlice(t *testing.T) {
	var q Queue[*int]
	var ref []*int
	check := func(step int) {
		t.Helper()
		if q.Len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, q.Len(), len(ref))
		}
		for i, v := range ref {
			if *q.At(i) != v {
				t.Fatalf("step %d: element %d differs", step, i)
			}
		}
	}
	for i := range 500 {
		v := new(int)
		switch {
		case i%7 == 3 && len(ref) > 0:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped the wrong element", i)
			}
			ref = ref[1:]
		case i%5 == 0:
			pos := i % (len(ref) + 1)
			q.Insert(pos, v)
			ref = slices.Insert(ref, pos, v)
		default:
			q.Push(v)
			ref = append(ref, v)
		}
		check(i)
	}
	for range 300 {
		q.Pop()
		ref = ref[1:]
	}
	check(-1)
	backing := q.buf[:cap(q.buf)]
	q.Clear()
	if q.Len() != 0 || q.head != 0 {
		t.Fatalf("cleared queue: len %d, head %d", q.Len(), q.head)
	}
	for i, v := range backing {
		if v != nil {
			t.Fatalf("slot %d still holds a reference after Clear", i)
		}
	}
}
