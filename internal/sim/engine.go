// Package sim provides a deterministic discrete-event simulation kernel
// used by every component of the MIND reproduction: a virtual clock in
// integer nanoseconds, a calendar-queue event queue, FIFO service
// resources for modelling queueing (NICs, switch pipelines, invalidation
// handlers), and a deterministic random-number source.
//
// The engine is strictly single-threaded: all component state is mutated
// inside event callbacks, executed in (time, sequence) order, so runs are
// bit-for-bit reproducible given the same seed and configuration.
//
// The steady-state scheduling path is allocation-free and O(1) per event:
// ScheduleArg/AtArg take a pre-bound callback (a plain function plus its
// argument, instead of a freshly minted closure), and their events are
// recycled through a free list after firing. Events in the near future
// land in a bucketed calendar ring (constant-time insert, buckets sorted
// only when their window is reached) small enough to stay in the host's
// cache; an event scheduled into the window being drained, the current
// instant included, joins that window's small heap; far timers (past the
// ~65 µs ring horizon — fault timeouts, serve deadlines, epoch ticks —
// most of them canceled long before they are due) wait in a typed binary
// heap and migrate into the ring as the horizon advances. Dispatch order is identical to a pure
// (time, sequence) heap in every mode.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros converts the duration to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

// Calendar-ring geometry. Buckets are 256 ns wide (a handful of fabric
// hops), and the ring covers a ~65 µs horizon: every delay a fault is
// made of (pipeline service, NIC, wire, DMA, control RTT, the first retry
// backoffs) schedules in O(1), while the ring's bucket headers (6 KiB)
// stay resident in the host's cache however many rack engines a pod
// runs. Timers — the 2 ms fault timeout, serve deadlines, epoch and
// promotion ticks — go to the overflow heap; nearly all of them are
// canceled there without ever touching a bucket.
const (
	bucketShift = 8                              // log2 bucket width (256 ns)
	ringShift   = 8                              // log2 bucket count (256 buckets)
	numBuckets  = 1 << ringShift                 // buckets in the ring
	ringMask    = numBuckets - 1                 // bucket index mask
	bucketWidth = Time(1) << bucketShift         // ns per bucket
	horizon     = bucketWidth * Time(numBuckets) // ring coverage (~65 µs)
)

// Event lifecycle states. A pending event is queued; firing and
// cancellation are terminal and mutually exclusive, which is what makes
// recycling safe to reason about: only fired, never-escaped events
// return to the free list.
const (
	statePending uint8 = iota
	stateFired
	stateCanceled
)

// Event locations: which physical container currently holds the event.
// whereRing/whereOverflow/whereCurHeap events can be removed eagerly on
// Cancel (their idx names the slot); whereSorted events are canceled
// lazily and stay resident until their sorted window drains, so Rearm
// must not reuse the object before then.
const (
	whereNone     uint8 = iota
	whereRing           // a calendar-ring bucket; idx = position in the bucket
	whereSorted         // the sorted current-window slice being drained
	whereCurHeap        // the small heap of events behind the drain cursor
	whereOverflow       // the far-future overflow heap; idx = heap index
)

// Event is a scheduled callback. The zero Event is invalid. Events
// returned by Schedule/At/ScheduleTimer stay owned by the caller and are
// never recycled; events created by ScheduleArg/AtArg never escape the
// engine and return to its free list after firing.
type Event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
	// idx is the event's slot in its current container: heap index for
	// whereOverflow/whereCurHeap, bucket position for whereRing, -1
	// otherwise.
	idx    int
	state  uint8
	where  uint8
	pooled bool
}

// Canceled reports whether the event was removed before firing.
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// Fired reports whether the event's callback has been dispatched.
func (e *Event) Fired() bool { return e.state == stateFired }

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e.state == statePending }

// Time returns the virtual time the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.at }

// CallFunc adapts a plain func() onto the pre-bound fn(arg) dispatch
// shape: pass CallFunc as fn and the closure as arg. Converting a func()
// to any stores the function pointer directly in the interface word — no
// allocation. The closure-style Schedule/At API and the fabric/cluster
// shims all route through this one adapter.
func CallFunc(x any) { x.(func())() }

// evLess is the global dispatch order: ascending (time, seq).
func evLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events by (time, seq), each event's
// idx tracking its slot so Cancel can remove it from the middle. The
// sifts are written out against evLess for the reason sortEvents is:
// container/heap pays an interface call per comparison and per swap, and
// this heap is the everyday path of every timer and of the drain window.
type eventHeap []*Event

// push adds ev.
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// remove deletes and returns the event in slot i; slot 0 is the minimum.
func (h *eventHeap) remove(i int) *Event {
	s := *h
	ev := s[i]
	last := len(s) - 1
	moved := s[last]
	s[last] = nil
	*h = s[:last]
	if i < last {
		if i > 0 && evLess(moved, s[(i-1)/2]) {
			h.up(i, moved)
		} else {
			h.down(i, moved)
		}
	}
	ev.idx = -1
	return ev
}

// up settles ev into the hole at slot i by moving larger parents down.
func (h eventHeap) up(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = ev
	ev.idx = i
}

// down settles ev into the hole at slot i by moving smaller children up.
func (h eventHeap) down(i int, ev *Event) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && evLess(h[c+1], h[c]) {
			c++
		}
		if !evLess(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = ev
	ev.idx = i
}

// Engine is the discrete-event simulation core. Create one with NewEngine;
// the zero value is not usable.
type Engine struct {
	now Time
	seq uint64

	// queue is the overflow heap, the far-timer path: events past the
	// ring horizon at insert time. Its minimum is always >= every
	// ring/window event (overflow events migrate into the ring before
	// their bucket's window can open), so it only needs consulting when
	// the ring runs dry. In plain mode it is the only queue.
	queue eventHeap

	// The calendar ring: ring[b] holds events with
	// wheelStart <= at < wheelStart+horizon whose (at>>bucketShift)
	// lands on b. Buckets are unordered (sorted at drain); ringBits is
	// the non-empty-bucket bitmap; wheelLive counts live ring events.
	ring      [][]*Event
	ringBits  []uint64
	wheelLive int
	// wheelStart is the lower edge of the ring: the end of the last
	// drained bucket window, always bucket-aligned. Events scheduled
	// below it (short delays inside the window being drained) go to
	// curHeap instead.
	wheelStart Time

	// The current drain window: sortedCur is the last drained bucket,
	// sorted ascending (time, seq), consumed from curIdx; curLive counts
	// its not-yet-canceled remainder. curHeap holds events inserted
	// behind wheelStart after the window opened; the dispatcher merges
	// the two by (time, seq). Everything here is < wheelStart, so it
	// precedes every ring and overflow event.
	sortedCur []*Event
	curIdx    int
	curLive   int
	curHeap   eventHeap

	// slabs recycles bucket backing arrays: a drained window's slice
	// returns here and the next insert into an empty bucket takes it,
	// so steady-state bucket churn allocates nothing even though the
	// set of active buckets slides forward in time. slabMem is the
	// carve block behind a dry pool: fresh slabs are sliced off one
	// shared allocation instead of allocated one by one, so warming
	// the ring (a pod runs one engine per rack, each with its own ring)
	// costs O(buckets/64) allocations rather than O(buckets).
	slabs   [][]*Event
	slabMem []*Event

	// free is the event free list: fired ScheduleArg/AtArg events are
	// recycled here. Events whose pointer escaped to a caller
	// (Schedule/At/ScheduleTimer) are never recycled — a retained
	// handle must stay inert forever, not come back to life as someone
	// else's event. evMem is the carve block behind a dry free list:
	// like slabMem, it batches the warm-up of per-engine pools.
	free  Pool[Event]
	evMem []Event

	// plain disables the free list and the calendar ring, forcing every
	// event through the reference (time, seq) heap — the oracle mode the
	// equivalence tests compare against.
	plain bool

	// Executed counts events dispatched since creation, for debugging and
	// runaway detection in tests.
	Executed uint64

	// Dispatch-trace hash (off by default): when enabled, fire folds
	// every dispatched (at, seq) pair into an FNV-style accumulator.
	// Two engines that executed the identical event sequence — same
	// times, same tie-break order — end with the same hash, which is
	// how the serial-vs-parallel pod storms assert "identical
	// (time, seq) dispatch" without recording full traces.
	hashOn       bool
	dispatchHash uint64
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{
		ring:     make([][]*Event, numBuckets),
		ringBits: make([]uint64, numBuckets/64),
	}
}

// newPlainEngine returns an engine with pooling and the calendar ring
// disabled: the reference implementation the equivalence property tests
// drive in lockstep with a production engine.
func newPlainEngine() *Engine {
	return &Engine{plain: true}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run after delay. A negative delay is treated as
// zero (the event runs at the current time, after already-queued events at
// that time). It returns the event so callers may cancel it.
func (e *Engine) Schedule(delay Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	return e.enqueue(e.now.Add(delay), CallFunc, fn, false)
}

// At enqueues fn to run at the absolute virtual time at. Times in the past
// are clamped to the current time.
func (e *Engine) At(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	return e.enqueue(at, CallFunc, fn, false)
}

// ScheduleArg enqueues the pre-bound callback fn(arg) to run after delay.
// This is the hot-path form: fn is typically a package-level function and
// arg a long-lived object, so no closure is allocated, and the event is
// recycled through the engine's free list after it fires. The event
// cannot be canceled (no handle is returned) — use ScheduleTimer for
// cancelable pre-bound events.
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) {
	if fn == nil {
		panic("sim: ScheduleArg with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	e.enqueue(e.now.Add(delay), fn, arg, !e.plain)
}

// AtArg enqueues the pre-bound callback fn(arg) at the absolute virtual
// time at (clamped to now), with the same pooling as ScheduleArg.
func (e *Engine) AtArg(at Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: AtArg with nil callback")
	}
	e.enqueue(at, fn, arg, !e.plain)
}

// ScheduleTimer enqueues the pre-bound callback fn(arg) after delay and
// returns the event for cancellation (timeouts, periodic ticks). The
// event escapes to the caller and is therefore never recycled.
func (e *Engine) ScheduleTimer(delay Duration, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: ScheduleTimer with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	return e.enqueue(e.now.Add(delay), fn, arg, false)
}

// Rearm reschedules a caller-owned timer event: ev must be nil (a fresh
// event is allocated, as ScheduleTimer) or fired/canceled — the caller is
// asserting exclusive ownership, so the object is reused in place instead
// of allocating. This is how recurring timeouts (one per page-fault
// issue) stay allocation-free without the engine ever recycling an
// escaped event on its own.
func (e *Engine) Rearm(ev *Event, delay Duration, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: Rearm with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	if ev == nil {
		return e.enqueue(e.now.Add(delay), fn, arg, false)
	}
	if ev.state == statePending {
		panic("sim: Rearm of a pending event (cancel it first)")
	}
	if ev.where != whereNone {
		// The canceled event still occupies a sorted-window slot (lazy
		// cancellation); reusing the object would make the stale slot
		// fire the re-armed callback at the wrong time. Hand back a fresh
		// event instead — the stale one stays canceled and drains
		// harmlessly.
		return e.enqueue(e.now.Add(delay), fn, arg, false)
	}
	at := e.now.Add(delay)
	e.seq++
	ev.at, ev.seq, ev.fn, ev.arg = at, e.seq, fn, arg
	ev.state, ev.idx, ev.pooled = statePending, -1, false
	e.place(ev)
	return ev
}

// alloc takes an event from the free list, or carves one from the
// engine's block allocation (refilled 64 events at a time).
func (e *Engine) alloc() *Event {
	if ev := e.free.Get(); ev != nil {
		return ev
	}
	if len(e.evMem) == 0 {
		e.evMem = make([]Event, 64)
	}
	ev := &e.evMem[0]
	e.evMem = e.evMem[1:]
	return ev
}

// enqueue creates (or recycles) one event and places it.
func (e *Engine) enqueue(at Time, fn func(any), arg any, pooled bool) *Event {
	if at < e.now {
		at = e.now
	}
	ev := e.alloc()
	e.seq++
	ev.at, ev.seq, ev.fn, ev.arg = at, e.seq, fn, arg
	ev.state, ev.pooled, ev.idx = statePending, pooled, -1
	e.place(ev)
	return ev
}

// place routes a pending event to its container: the plain-mode heap, the
// current drain window's heap, a calendar bucket, or the far-future
// overflow heap. An event at the current instant is no exception: below
// wheelStart the window heap merges it with the drained bucket by (time,
// seq), and at or past it (a clock parked by RunUntil or RunWindow) its
// bucket has not opened yet.
func (e *Engine) place(ev *Event) {
	if e.plain {
		ev.where = whereOverflow
		e.queue.push(ev)
		return
	}
	at := ev.at
	switch {
	case at < e.wheelStart:
		// A short or zero delay landing inside the window currently
		// being drained: merge it with sortedCur through the window heap.
		ev.where = whereCurHeap
		e.curHeap.push(ev)
	case at < e.wheelStart+horizon:
		e.pushRing(ev)
	default:
		ev.where = whereOverflow
		e.queue.push(ev)
	}
}

// pushRing inserts a pending event into its calendar bucket (the event's
// time must lie in [wheelStart, wheelStart+horizon)).
func (e *Engine) pushRing(ev *Event) {
	b := int(ev.at>>bucketShift) & ringMask
	bucket := e.ring[b]
	if bucket == nil {
		if bucket = e.popSlab(); bucket == nil {
			// Slab pool dry (more buckets concurrently populated than
			// windows drained so far — e.g. a rack-wide burst of fabric
			// hops spread across the horizon): carve a 32-cap slab
			// from the block allocation, so the bucket skips the
			// 1→2→4→… growth ladder and warming the whole ring costs a
			// handful of allocations instead of one per bucket.
			const slabCap = 32
			if len(e.slabMem) < slabCap {
				e.slabMem = make([]*Event, 64*slabCap)
			}
			bucket = e.slabMem[:0:slabCap]
			e.slabMem = e.slabMem[slabCap:]
		}
	}
	ev.where = whereRing
	ev.idx = len(bucket)
	e.ring[b] = append(bucket, ev)
	e.ringBits[b>>6] |= 1 << uint(b&63)
	e.wheelLive++
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op. Canceled events are never recycled:
// the caller keeps the (now inert) handle.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	switch ev.where {
	case whereOverflow:
		e.queue.remove(ev.idx)
		ev.where = whereNone
	case whereCurHeap:
		e.curHeap.remove(ev.idx)
		ev.where = whereNone
	case whereRing:
		// Buckets are unordered until drained, so swap-remove is legal.
		b := int(ev.at>>bucketShift) & ringMask
		bucket := e.ring[b]
		last := len(bucket) - 1
		moved := bucket[last]
		bucket[ev.idx] = moved
		moved.idx = ev.idx
		bucket[last] = nil
		e.ring[b] = bucket[:last]
		if last == 0 {
			e.ringBits[b>>6] &^= 1 << uint(b&63)
		}
		e.wheelLive--
		ev.where = whereNone
		ev.idx = -1
	case whereSorted:
		// Lazily skipped when the drain cursor reaches it.
		e.curLive--
	}
	ev.state = stateCanceled
	ev.fn, ev.arg = nil, nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int {
	return e.curLive + len(e.curHeap) + e.wheelLive + len(e.queue)
}

// fire dispatches one event, recycling it first if it never escaped.
func (e *Engine) fire(ev *Event) {
	if e.hashOn {
		h := e.dispatchHash
		h = (h ^ uint64(ev.at)) * 1099511628211
		h = (h ^ ev.seq) * 1099511628211
		e.dispatchHash = h
	}
	fn, arg := ev.fn, ev.arg
	ev.fn, ev.arg = nil, nil
	ev.state = stateFired
	ev.where = whereNone
	if ev.pooled {
		// Safe to recycle before the callback runs: fn/arg are saved,
		// and an immediate reuse inside the callback just reinitializes
		// the object.
		e.free.Put(ev)
	}
	e.Executed++
	fn(arg)
}

// sortEvents orders a drained bucket ascending (time, seq) in place,
// allocation-free: insertion sort with a direct, inlinable comparison.
// Buckets are tiny (events within one 256 ns window — the p99 is a
// handful of entries), and this measurably outperforms
// slices.SortFunc here: the generic pdqsort pays an indirect
// comparator call per comparison, which at millions of drains per
// second costs ~10% of rack-scenario throughput. The heapsort arm
// bounds the degenerate case (one bucket absorbing a same-timestamp
// burst) at O(n log n) without allocating.
func sortEvents(s []*Event) {
	n := len(s)
	if n < 2 {
		return
	}
	if n <= 48 {
		for i := 1; i < n; i++ {
			ev := s[i]
			j := i - 1
			for j >= 0 && evLess(ev, s[j]) {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = ev
		}
		return
	}
	// Heapsort: build a max-heap, then swap the max to the tail.
	siftDown := func(lo, hi int) {
		root := lo
		for {
			child := 2*root + 1
			if child >= hi {
				return
			}
			if child+1 < hi && evLess(s[child], s[child+1]) {
				child++
			}
			if !evLess(s[root], s[child]) {
				return
			}
			s[root], s[child] = s[child], s[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftDown(0, i)
	}
}

// advance refills the drain window from the calendar ring (migrating
// overflow events that have come inside the horizon first), returning
// false when no queued events remain anywhere. On return with true, the
// earliest pending event is in sortedCur or curHeap.
func (e *Engine) advance() bool {
	for {
		if e.curLive > 0 || len(e.curHeap) > 0 {
			return true
		}
		if e.wheelLive == 0 {
			if len(e.queue) == 0 {
				return false
			}
			// The ring ran dry: jump its lower edge to the overflow
			// minimum's bucket so migration can land it.
			if ws := e.queue[0].at &^ (bucketWidth - 1); ws > e.wheelStart {
				e.wheelStart = ws
			}
		}
		// Migrate far-future events that the advancing horizon now
		// covers. Their (time, seq) order relative to ring residents is
		// restored by the per-bucket sort at drain.
		for len(e.queue) > 0 && e.queue[0].at < e.wheelStart+horizon {
			e.pushRing(e.queue.remove(0))
		}
		// Find the next non-empty bucket at or after wheelStart. All
		// ring events live in [wheelStart, wheelStart+horizon), so
		// scanning the bitmap forward (with wraparound) visits buckets
		// in ascending time order.
		start := int(e.wheelStart>>bucketShift) & ringMask
		b := e.nextBucket(start)
		if b < 0 {
			// wheelLive > 0 guarantees a set bit; the bitmap is exact
			// (cleared on cancel-to-empty and drain).
			panic("sim: calendar ring accounting corrupted")
		}
		windowStart := e.wheelStart + Time((b-start)&ringMask)<<bucketShift

		// Open the bucket as the new drain window. The previous
		// window's backing array returns to the slab pool so the next
		// newly-touched bucket reuses it — steady state allocates
		// nothing. Any canceled leftovers behind the old cursor lose
		// their residency first.
		for i := e.curIdx; i < len(e.sortedCur); i++ {
			if ev := e.sortedCur[i]; ev != nil {
				ev.where = whereNone
				e.sortedCur[i] = nil
			}
		}
		if cap(e.sortedCur) > 0 {
			e.slabs = append(e.slabs, e.sortedCur[:0])
		}
		bucket := e.ring[b]
		e.ring[b] = nil
		e.ringBits[b>>6] &^= 1 << uint(b&63)
		for _, ev := range bucket {
			ev.where = whereSorted
			ev.idx = -1
		}
		sortEvents(bucket)
		e.sortedCur = bucket
		e.curIdx = 0
		e.curLive = len(bucket)
		e.wheelLive -= len(bucket)
		e.wheelStart = windowStart + bucketWidth
	}
}

// popSlab takes a recycled bucket backing array (zero length, retained
// capacity), or nil when none is available (append will allocate).
func (e *Engine) popSlab() []*Event {
	n := len(e.slabs)
	if n == 0 {
		return nil
	}
	s := e.slabs[n-1]
	e.slabs[n-1] = nil
	e.slabs = e.slabs[:n-1]
	return s
}

// nextBucket returns the first non-empty bucket index scanning forward
// from start (wrapping), or -1 if the whole ring is empty.
func (e *Engine) nextBucket(start int) int {
	w := start >> 6
	// Mask off bits below start in the first word; the wrapped-around
	// final iteration re-reads it unmasked, which visits those low
	// buckets last — exactly their position in time order.
	word := e.ringBits[w] &^ ((1 << uint(start&63)) - 1)
	for i := 0; i <= numBuckets/64; i++ {
		if word != 0 {
			return (w<<6 + bits.TrailingZeros64(word)) & ringMask
		}
		w = (w + 1) & (numBuckets/64 - 1)
		word = e.ringBits[w]
	}
	return -1
}

// wheelHead returns the earliest pending calendar event without removing
// it (ensuring the drain window is populated), or nil when none remain.
func (e *Engine) wheelHead() *Event {
	for {
		// Drop canceled entries under the cursor so the head is live.
		for e.curIdx < len(e.sortedCur) {
			ev := e.sortedCur[e.curIdx]
			if ev.state != stateCanceled {
				break
			}
			ev.where = whereNone
			e.sortedCur[e.curIdx] = nil
			e.curIdx++
		}
		var head *Event
		if e.curIdx < len(e.sortedCur) {
			head = e.sortedCur[e.curIdx]
		}
		if len(e.curHeap) > 0 {
			if h := e.curHeap[0]; head == nil || evLess(h, head) {
				head = h
			}
		}
		if head != nil {
			return head
		}
		if !e.advance() {
			return nil
		}
	}
}

// popWheel removes the event wheelHead returned.
func (e *Engine) popWheel(ev *Event) {
	if len(e.curHeap) > 0 && e.curHeap[0] == ev {
		e.curHeap.remove(0)
		return
	}
	e.sortedCur[e.curIdx] = nil
	e.curIdx++
	e.curLive--
}

// Step dispatches the single earliest event, advancing the clock to its
// timestamp. It returns false if the queue is empty.
func (e *Engine) Step() bool { return e.stepUntil(MaxTime) }

// stepUntil dispatches the single earliest event if its timestamp is at
// most limit, and reports whether it did. It is the dispatch step under
// Step, Run and RunUntil, and RunWindow repeats it inline: the head is
// located once per event, and the bound is tested on the event about to
// fire.
func (e *Engine) stepUntil(limit Time) bool {
	if e.plain {
		if len(e.queue) == 0 || e.queue[0].at > limit {
			return false
		}
		ev := e.queue.remove(0)
		ev.where = whereNone
		e.now = ev.at
		e.fire(ev)
		return true
	}
	head := e.wheelHead()
	if head == nil || head.at > limit {
		return false
	}
	e.popWheel(head)
	e.now = head.at
	e.fire(head)
	return true
}

// PeekTime returns the earliest pending event's timestamp without
// dispatching anything. It is the lookahead primitive of the
// sparse-horizon pod executor: at a barrier, the minimum PeekTime
// across all rack engines bounds the first window in which any rack can
// dispatch, so every window before it may be skipped.
//
// Peeking may rotate the calendar ring's drain window (and migrate
// overflow events that have come inside the horizon) to locate the
// head, but it never fires, reorders or drops an event: the dispatch
// sequence — and therefore the dispatch-trace hash — is identical
// whether or not PeekTime was called. Call it only from contexts that
// already own the engine (barrier context under the pod executor).
func (e *Engine) PeekTime() (Time, bool) {
	if e.plain {
		if len(e.queue) == 0 {
			return 0, false
		}
		return e.queue[0].at, true
	}
	if head := e.wheelHead(); head != nil {
		return head.at, true
	}
	return 0, false
}

// Run dispatches events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then sets the
// clock to deadline if the simulation ran dry earlier. Events scheduled
// beyond deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.stepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWindow dispatches every event with timestamp strictly below end,
// then sets the clock to end. This is the lockstep-window primitive of
// the parallel pod executor: a window [start, end) owns exactly the
// events below its upper edge, and events at end belong to the next
// window — so an event injected *at* a window boundary (a cross-rack
// arrival) is never dispatched by the window that closed before it was
// injected. After RunWindow returns, every remaining queued event has
// at >= end and the clock sits exactly on the boundary, so boundary
// injections with at == end are legal non-past schedules.
//
// It reports the head it stopped at, exactly as PeekTime would right
// after it: the window had to locate that head to know it must stop, so
// the pod executor's per-rack lookahead costs nothing extra.
func (e *Engine) RunWindow(end Time) (next Time, ok bool) {
	for {
		var head *Event
		if e.plain {
			if len(e.queue) > 0 {
				head = e.queue[0]
			}
		} else {
			head = e.wheelHead()
		}
		if head == nil || head.at >= end {
			e.Park(end)
			if head == nil {
				return 0, false
			}
			return head.at, true
		}
		// stepUntil's dispatch, on the head already in hand. Calling
		// stepUntil instead costs a call level per rack-window, which the
		// pod executor pays on every rack it enters.
		if e.plain {
			e.queue.remove(0)
			head.where = whereNone
		} else {
			e.popWheel(head)
		}
		e.now = head.at
		e.fire(head)
	}
}

// Park moves the clock to t without dispatching anything (a no-op when
// the clock is already there or beyond). It is RunWindow(t) for an
// engine the caller knows has no event below t — the pod executor parks
// a rack with nothing due instead of entering it — and it must only be
// used so: an event below t would be dispatched late, at a clock past
// its timestamp.
func (e *Engine) Park(t Time) {
	if e.now < t {
		e.now = t
	}
}

// FreeListLen reports the current size of the event free list
// (diagnostics and pool tests).
func (e *Engine) FreeListLen() int { return e.free.Len() }

// EnableDispatchHash turns on the dispatch-trace hash (see DispatchHash).
// Enable before the first event fires; the accumulator starts at the
// FNV-1a offset basis.
func (e *Engine) EnableDispatchHash() {
	e.hashOn = true
	if e.dispatchHash == 0 {
		e.dispatchHash = 14695981039346656037
	}
}

// DispatchHash returns the accumulated hash over every dispatched
// (time, seq) pair since EnableDispatchHash. Equal hashes mean the two
// engines dispatched identical event sequences.
func (e *Engine) DispatchHash() uint64 { return e.dispatchHash }
