package phys

import (
	"slices"
	"testing"
)

// TestQueueReusesBacking: a queue whose depth never exceeds 3 across
// 10 000 mixed Push/Insert/Pop keeps FIFO order and allocates its ring
// once. A slice with a marching head regrew its backing up to 64 slots
// before compacting it.
func TestQueueReusesBacking(t *testing.T) {
	var ring int
	allocs := testing.AllocsPerRun(1, func() {
		var q Queue[int]
		var ref [3]int
		n := 0
		for i := range 10_000 {
			switch {
			case n == len(ref) || n > 0 && i%4 == 3:
				if got := q.Pop(); got != ref[0] {
					t.Fatalf("op %d: popped %d, want %d", i, got, ref[0])
				}
				n--
				copy(ref[:], ref[1:])
			case n > 0 && i%4 == 1:
				pos := i % (n + 1)
				q.Insert(pos, i)
				copy(ref[pos+1:], ref[pos:n])
				ref[pos] = i
				n++
			default:
				q.Push(i)
				ref[n] = i
				n++
			}
		}
		ring = len(q.buf)
	})
	if allocs != 1 || ring != minRing {
		t.Fatalf("depth <= 3: %.0f allocations, ring of %d slots (want 1, %d)", allocs, ring, minRing)
	}
}

// TestQueueMatchesSlice drives Push, Insert, At and Pop against a plain
// slice while the head wraps round the ring, with inserts that move
// elements across the wrap, then checks that Clear empties the queue,
// drops every reference and keeps the ring.
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
		if l := len(q.buf); l&(l-1) != 0 || l < q.Len() {
			t.Fatalf("step %d: ring of %d slots for %d elements", step, l, q.Len())
		}
	}
	wrapped := 0
	for i := range 2000 {
		v := new(int)
		switch op := i * 7 % 10; {
		case op < 4 && len(ref) > 0:
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped the wrong element", i)
			}
			ref = ref[1:]
		case op < 6:
			pos := i % (len(ref) + 1)
			if n := q.Len(); n < len(q.buf) && q.head+n >= len(q.buf) && q.head+pos < len(q.buf) {
				wrapped++ // the shift carries the last slot's element to slot 0
			}
			q.Insert(pos, v)
			ref = slices.Insert(ref, pos, v)
		default:
			q.Push(v)
			ref = append(ref, v)
		}
		check(i)
	}
	if wrapped == 0 {
		t.Fatal("no Insert moved elements across the wrap")
	}
	ring := len(q.buf)
	q.Clear()
	if q.Len() != 0 || q.head != 0 || len(q.buf) != ring {
		t.Fatalf("cleared queue: len %d, head %d, ring %d (want 0, 0, %d)", q.Len(), q.head, len(q.buf), ring)
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still holds a reference after Clear", i)
		}
	}
	q.Push(ref[0])
	if q.Len() != 1 || *q.At(0) != ref[0] || len(q.buf) != ring {
		t.Fatalf("push after Clear: len %d, ring %d", q.Len(), len(q.buf))
	}
}
