package sim

import "slices"

// Queue is a FIFO of pointers on a ring buffer, for the directories'
// waiter queues (a coherence region's, a GAM home entry's): requests
// that reach an entry mid-transition park here and are served in
// arrival order. The ring grows, by doubling, only when Push finds it
// full, and Pop clears the slot it vacates, so the buffer is at most
// twice the deepest the queue has been — however many requests pass
// through a queue that never drains — and holds no dead references.
// Like the engine it is single-threaded. The zero value is an empty
// queue; it is 32 bytes (the buffer and two uint32 indices).
type Queue[T any] struct {
	buf     []*T // len is zero or a power of two
	head, n uint32
}

// Push appends x at the tail.
func (q *Queue[T]) Push(x *T) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&uint32(len(q.buf)-1)] = x
	q.n++
}

// grow doubles a full ring, unwrapping it to start at index 0.
func (q *Queue[T]) grow() {
	buf := make([]*T, max(1, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the oldest item, or nil if the queue is empty.
func (q *Queue[T]) Pop() *T {
	if q.n == 0 {
		return nil
	}
	x := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & uint32(len(q.buf)-1)
	q.n--
	return x
}

// TakeAll empties the queue and returns its items in FIFO order. The
// result is the queue's own buffer, rotated in place so the oldest item
// comes first; the queue lets go of it and starts over empty.
func (q *Queue[T]) TakeAll() []*T {
	buf := q.buf
	slices.Reverse(buf[:q.head])
	slices.Reverse(buf[q.head:])
	slices.Reverse(buf)
	out := buf[:q.n]
	*q = Queue[T]{}
	return out
}

// Len reports how many items the queue holds.
func (q *Queue[T]) Len() int { return int(q.n) }

// Cap reports the ring's capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }
