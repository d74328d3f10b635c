package phys

// Queue is a FIFO over a power-of-two ring: the port FIFO, the MAC's
// insertion queue and the DMA channel queues. Element i lives at
// buf[(head+i)&(len(buf)-1)], so popping moves the head round the ring
// and the backing array grows — doubling, in queue order — only when
// the queue is deeper than it has ever been. The zero Queue is empty
// and ready to use; its first element makes a ring of minRing slots.
type Queue[T any] struct {
	buf     []T
	head, n int
}

// minRing is the smallest ring a Queue makes: a port FIFO seldom holds
// more than a few frames.
const minRing = 4

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th queued element, 0 being the head.
func (q *Queue[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Insert puts v in front of the i-th queued element (i == Len appends),
// moving the elements behind it one slot back round the ring.
func (q *Queue[T]) Insert(i int, v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	m := len(q.buf) - 1
	for j := q.n; j > i; j-- {
		q.buf[(q.head+j)&m] = q.buf[(q.head+j-1)&m]
	}
	q.buf[(q.head+i)&m] = v
	q.n++
}

// grow doubles the ring, unrolling the queue to the front of the new
// array.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), minRing))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the head. The vacated slot is zeroed,
// dropping what it referenced.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Clear empties the queue, keeping its ring.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
