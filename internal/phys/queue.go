package phys

// Queue is a FIFO over a slice and a head index: the port FIFO, the
// MAC's insertion queue and the DMA channel queues. Popping advances
// the head instead of reslicing from the front, which would abandon a
// slot of the backing array per element and make every steady-state
// push reallocate. The zero Queue is empty and ready to use.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th queued element, 0 being the head.
func (q *Queue[T]) At(i int) *T { return &q.buf[q.head+i] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Insert puts v in front of the i-th queued element (i == Len appends).
func (q *Queue[T]) Insert(i int, v T) {
	var zero T
	q.buf = append(q.buf, zero)
	pos := q.head + i
	copy(q.buf[pos+1:], q.buf[pos:])
	q.buf[pos] = v
}

// Pop removes and returns the head. The vacated slot is zeroed
// (dropping what it referenced) and the slice is rewound to full
// capacity once it empties.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		// A queue that never fully drains would otherwise march the
		// head through an ever-growing array; compact once the dead
		// prefix dominates.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	return v
}

// Clear empties the queue, keeping its backing array.
func (q *Queue[T]) Clear() {
	clear(q.buf[q.head:])
	q.buf, q.head = q.buf[:0], 0
}
