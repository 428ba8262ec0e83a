package sim

import (
	"slices"
	"testing"
	"unsafe"
)

// FuzzQueue drives Queue against a slice oracle. Each input byte is one
// op: below 0x80 a push, 0xff a take-all, anything else a pop. After
// every op the live items (read from the ring, head first) and a
// take-all of a copy must equal the oracle in order, every other slot
// must be nil, and the capacity must be at most max(1, 2 × the deepest
// the queue has been so far).
func FuzzQueue(f *testing.F) {
	const push, pop, takeAll = 0x00, 0x80, 0xff
	rep := func(b byte, n int) []byte { return slices.Repeat([]byte{b}, n) }
	f.Add([]byte{push, pop, push, push, pop, pop, pop})
	// Fill to 5 (capacity 8), then slide: the ring wraps again and again
	// with no growth.
	f.Add(slices.Concat(rep(push, 5), slices.Repeat([]byte{pop, push}, 40)))
	// Grow while wrapped: head in the middle of a full ring.
	f.Add(slices.Concat(rep(push, 8), rep(pop, 3), rep(push, 4), rep(pop, 6), rep(push, 12)))
	// Take-all of a wrapped ring, then reuse.
	f.Add(slices.Concat(rep(push, 6), rep(pop, 4), rep(push, 5), []byte{takeAll}, rep(push, 3), []byte{pop, takeAll, takeAll}))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[int]
		var oracle []*int
		peak := 0
		for i, op := range ops {
			switch {
			case op < 0x80:
				x := new(int)
				*x = i
				q.Push(x)
				oracle = append(oracle, x)
			case op == takeAll:
				if got := q.TakeAll(); !slices.Equal(got, oracle) {
					t.Fatalf("op %d: TakeAll = %v, want %v", i, ids(got), ids(oracle))
				}
				oracle = oracle[:0]
			default:
				var want *int
				if len(oracle) > 0 {
					want, oracle = oracle[0], oracle[1:]
				}
				if got := q.Pop(); got != want {
					t.Fatalf("op %d: Pop = %v, want %v", i, ids([]*int{got}), ids([]*int{want}))
				}
			}
			peak = max(peak, len(oracle))
			checkQueue(t, i, &q, oracle, peak)
		}
	})
}

// checkQueue compares q with the oracle without disturbing it.
func checkQueue(t *testing.T, op int, q *Queue[int], oracle []*int, peak int) {
	t.Helper()
	if q.Len() != len(oracle) {
		t.Fatalf("op %d: Len = %d, want %d", op, q.Len(), len(oracle))
	}
	if c := q.Cap(); c > max(1, 2*peak) {
		t.Fatalf("op %d: Cap = %d, peak depth %d", op, c, peak)
	}
	for k := range q.buf {
		// Slot k holds the item k-head places from the front, if live.
		at := (k - int(q.head) + len(q.buf)) % len(q.buf)
		if at < len(oracle) {
			if q.buf[k] != oracle[at] {
				t.Fatalf("op %d: slot %d holds %v, want item %d %v", op, k, ids(q.buf[k:k+1]), at, ids(oracle[at:at+1]))
			}
		} else if q.buf[k] != nil {
			t.Fatalf("op %d: vacated slot %d still holds %v", op, k, ids(q.buf[k:k+1]))
		}
	}
	c := Queue[int]{buf: slices.Clone(q.buf), head: q.head, n: q.n}
	if got := c.TakeAll(); !slices.Equal(got, oracle) {
		t.Fatalf("op %d: TakeAll of a copy = %v, want %v", op, ids(got), ids(oracle))
	}
}

func ids(xs []*int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = -1
		if x != nil {
			out[i] = *x
		}
	}
	return out
}

// TestQueueSteadyState pins the two properties the directories rely on:
// a queue held at a fixed depth allocates nothing per push/pop once its
// ring has grown, and its value stays 32 bytes so a coherence.Region
// that embeds one keeps its size.
func TestQueueSteadyState(t *testing.T) {
	if got := unsafe.Sizeof(Queue[int]{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Queue) = %d, want 32", got)
	}
	var q Queue[int]
	x := new(int)
	for range 5 {
		q.Push(x)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.Push(x)
		q.Pop()
	}); avg != 0 {
		t.Errorf("Push+Pop at depth 5 allocates %v/op, want 0", avg)
	}
	if q.Cap() != 8 {
		t.Errorf("Cap = %d at peak depth 6, want 8", q.Cap())
	}
}
