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
// recycled through a free list after firing. The queue is two
// containers. Events in the near future, the current instant included,
// land in a bucketed calendar ring small enough to stay in the host's
// cache; each bucket is a list of events linked through the events
// themselves, kept in (time, sequence) order on insert, which is nearly
// always a link at the tail, and dispatch takes the head of the first
// non-empty bucket. Far timers (past the ~65 µs ring horizon — fault
// timeouts, serve deadlines, epoch ticks — most of them canceled long
// before they are due) wait in a typed binary heap and migrate into the
// ring as its edge advances. Cancel removes an event from either at
// once. Dispatch order is identical to a pure (time, sequence) heap.
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
// backoffs) schedules in O(1), while the ring's bucket headers (4 KiB)
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

// Event is a scheduled callback. The zero Event is invalid. Events
// returned by Schedule/At/ScheduleTimer stay owned by the caller and are
// never recycled; events created by ScheduleArg/AtArg never escape the
// engine and return to its free list after firing. It is 64 bytes, one
// cache line.
type Event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
	// prev and next link a pending ring event into its bucket's list,
	// and next chains a recycled event into the engine's free list;
	// otherwise both are nil.
	prev, next *Event
	// idx is the event's slot in the overflow heap while it waits
	// there, and -1 otherwise: a pending event with idx -1 sits in a
	// calendar bucket, from whose list Cancel unlinks it.
	idx    int32
	state  uint8
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
// sifts are written out against evLess: container/heap pays an interface
// call per comparison and per swap, and this heap is the everyday path
// of every timer.
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
		h[i].idx = int32(i)
		i = p
	}
	h[i] = ev
	ev.idx = int32(i)
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
		h[i].idx = int32(i)
		i = c
	}
	h[i] = ev
	ev.idx = int32(i)
}

// Engine is the discrete-event simulation core. Create one with NewEngine;
// the zero value is not usable.
type Engine struct {
	now Time
	seq uint64

	// queue is the overflow heap, the far-timer path: every event at or
	// past wheelStart+horizon. Its minimum is therefore later than every
	// ring event, so it only needs consulting when the ring runs dry.
	queue eventHeap

	// The calendar ring: ring[b] lists the events with
	// wheelStart <= at < wheelStart+horizon whose (at>>bucketShift) lands
	// on b, ascending (time, seq). ringBits is the non-empty-bucket
	// bitmap; wheelLive counts ring events.
	ring      []bucket
	ringBits  []uint64
	wheelLive int
	// wheelStart is the ring's lower edge, bucket-aligned and never past
	// now: each dispatch moves it to the dispatched event's bucket, and an
	// insert past the horizon first catches it up to now's bucket. Both
	// then migrate the overflow events the horizon has come to cover.
	wheelStart Time
	// headBucket caches the first non-empty bucket (-1: unknown). An
	// insert into an earlier bucket lowers it and emptying its bucket
	// clears it, so the head is found without a bitmap scan between
	// bucket drains.
	headBucket int

	// free is the event free list, chained through Event.next: fired
	// ScheduleArg/AtArg events are recycled here, most recent first.
	// Events whose pointer escaped to a caller (Schedule/At/ScheduleTimer)
	// are never recycled — a retained handle must stay inert forever, not
	// come back to life as someone else's event. evMem is the carve block
	// behind a dry free list: fresh events are sliced off one shared
	// allocation, so warming a pod's per-rack engines costs one
	// allocation per 64 events rather than one per event.
	free  *Event
	evMem []Event

	// head caches the earliest pending event's time for PeekTime
	// (MaxTime: none; headUnknown: recompute). place lowers it, a
	// dispatch or a cancel at that time invalidates it, and RunWindow
	// leaves it exact.
	head Time

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

// bucket is one calendar slot: the list of its events, ascending
// (time, seq), from head to tail; dispatch takes head. An empty bucket
// has both nil. A bucket owns no memory, so one that empties leaves
// nothing to recycle.
type bucket struct {
	head, tail *Event
}

// headUnknown marks Engine.head stale. Event times are never negative, so
// place's lowering leaves it alone.
const headUnknown Time = -1

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{
		ring:       make([]bucket, numBuckets),
		ringBits:   make([]uint64, numBuckets/64),
		headBucket: -1,
		head:       MaxTime,
	}
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
	e.enqueue(e.now.Add(delay), fn, arg, true)
}

// AtArg enqueues the pre-bound callback fn(arg) at the absolute virtual
// time at (clamped to now), with the same pooling as ScheduleArg.
func (e *Engine) AtArg(at Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: AtArg with nil callback")
	}
	e.enqueue(at, fn, arg, true)
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
	e.seq++
	ev.at, ev.seq, ev.fn, ev.arg = e.now.Add(delay), e.seq, fn, arg
	ev.state, ev.idx, ev.pooled = statePending, -1, false
	e.place(ev)
	return ev
}

// alloc takes an event from the free list, or carves one from the
// engine's block allocation (refilled 64 events at a time).
func (e *Engine) alloc() *Event {
	if ev := e.free; ev != nil {
		e.free, ev.next = ev.next, nil
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

// place routes a pending event to its container: the calendar bucket of
// its time when that lies inside the horizon, the overflow heap
// otherwise.
func (e *Engine) place(ev *Event) {
	if ev.at < e.head {
		e.head = ev.at
	}
	if ev.at >= e.wheelStart+horizon {
		// The edge may lag behind a clock that Park or RunUntil moved
		// without a dispatch; bring it up before giving up on the ring.
		e.moveEdge(e.now)
		if ev.at >= e.wheelStart+horizon {
			e.queue.push(ev)
			return
		}
	}
	e.pushRing(ev)
}

// moveEdge raises the ring's lower edge to t's bucket (t must not pass
// any ring event) and migrates the overflow events the horizon now
// covers, which keeps every overflow event behind every ring event.
func (e *Engine) moveEdge(t Time) {
	ws := t &^ (bucketWidth - 1)
	if ws <= e.wheelStart {
		return
	}
	e.wheelStart = ws
	for len(e.queue) > 0 && e.queue[0].at < ws+horizon {
		e.pushRing(e.queue.remove(0))
	}
}

// pushRing links a pending event into its calendar bucket (the event's
// time must lie in [wheelStart, wheelStart+horizon)), keeping the list
// ascending: it walks back from the tail past later events. New events
// carry the largest seq, so the walk stops at once unless the event is
// earlier than one already in its bucket.
func (e *Engine) pushRing(ev *Event) {
	b := int(ev.at>>bucketShift) & ringMask
	bk := &e.ring[b]
	t := bk.tail
	if t == nil {
		ev.prev, ev.next = nil, nil
		bk.head, bk.tail = ev, ev
		e.ringBits[b>>6] |= 1 << uint(b&63)
		start := int(e.wheelStart>>bucketShift) & ringMask
		if e.wheelLive == 0 || e.headBucket >= 0 && (b-start)&ringMask < (e.headBucket-start)&ringMask {
			e.headBucket = b
		}
		e.wheelLive++
		return
	}
	for t != nil && evLess(ev, t) {
		t = t.prev
	}
	// ev goes after t, or first when the walk ran past the head.
	n := bk.head
	if t != nil {
		n = t.next
		t.next = ev
	} else {
		bk.head = ev
	}
	if n != nil {
		n.prev = ev
	} else {
		bk.tail = ev
	}
	ev.prev, ev.next = t, n
	e.wheelLive++
}

// unlinkRing removes ring event ev from bucket b's list, for dispatch
// and Cancel alike; a bucket left empty leaves the bitmap and, if it was
// the cached head bucket, the cache.
func (e *Engine) unlinkRing(b int, ev *Event) {
	bk := &e.ring[b]
	p, n := ev.prev, ev.next
	if p != nil {
		p.next = n
	} else {
		bk.head = n
	}
	if n != nil {
		n.prev = p
	} else {
		bk.tail = p
	}
	ev.prev, ev.next = nil, nil
	e.wheelLive--
	if bk.head == nil {
		e.ringBits[b>>6] &^= 1 << uint(b&63)
		if e.headBucket == b {
			e.headBucket = -1
		}
	}
}

// Cancel removes a pending event from its container at once. Canceling
// an already-fired or already-canceled event is a no-op. Canceled events
// are never recycled: the caller keeps the (now inert) handle, which
// Rearm may reuse.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	if ev.at == e.head {
		e.head = headUnknown
	}
	if ev.idx >= 0 {
		e.queue.remove(int(ev.idx))
	} else {
		e.unlinkRing(int(ev.at>>bucketShift)&ringMask, ev)
	}
	ev.state = stateCanceled
	ev.fn, ev.arg = nil, nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.wheelLive + len(e.queue) }

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
	e.head = headUnknown
	if ev.pooled {
		// Safe to recycle before the callback runs: fn/arg are saved,
		// and an immediate reuse inside the callback just reinitializes
		// the object.
		ev.next = e.free
		e.free = ev
	}
	e.Executed++
	fn(arg)
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

// first returns the earliest pending event without removing it, or nil:
// the head of the first non-empty bucket, or the overflow minimum when
// the ring is empty.
func (e *Engine) first() *Event {
	if e.wheelLive == 0 {
		if len(e.queue) == 0 {
			return nil
		}
		return e.queue[0]
	}
	b := e.headBucket
	if b < 0 {
		// All ring events lie in [wheelStart, wheelStart+horizon), so the
		// bitmap scan from the edge's bucket meets them in time order.
		b = e.nextBucket(int(e.wheelStart>>bucketShift) & ringMask)
		e.headBucket = b
	}
	return e.ring[b].head
}

// pop removes the event first returned and moves the ring's edge up to
// it.
func (e *Engine) pop(ev *Event) {
	if ev.idx >= 0 {
		e.queue.remove(0)
	} else {
		e.unlinkRing(e.headBucket, ev)
	}
	e.moveEdge(ev.at)
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
	head := e.first()
	if head == nil || head.at > limit {
		return false
	}
	e.pop(head)
	e.now = head.at
	e.fire(head)
	return true
}

// PeekTime returns the earliest pending event's timestamp without
// dispatching anything, or (MaxTime, false) when none is pending. It is
// the lookahead primitive of the sparse-horizon pod executor: the
// minimum across rack engines sizes the jump, and a rack whose head is
// at or past a window's end is parked. It reads the cached head; only
// after an invalidation does it locate the head, which reads the first
// non-empty calendar bucket (or the overflow minimum) and moves no
// event: the dispatch-trace hash is the same whether or not PeekTime was
// called. Call it only from contexts that already own the engine.
func (e *Engine) PeekTime() (Time, bool) {
	t := e.head
	if t < 0 {
		t = e.findHead()
	}
	return t, t != MaxTime
}

// findHead is PeekTime's recompute (MaxTime: nothing pending), which
// it caches.
func (e *Engine) findHead() Time {
	t := MaxTime
	if head := e.first(); head != nil {
		t = head.at
	}
	e.head = t
	return t
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
// The window had to locate the head it stopped at to know it must stop,
// so it leaves that head cached: the PeekTime that follows is a field
// read.
func (e *Engine) RunWindow(end Time) {
	for {
		head := e.first()
		if head == nil || head.at >= end {
			e.Park(end)
			e.head = MaxTime
			if head != nil {
				e.head = head.at
			}
			return
		}
		// stepUntil's dispatch, on the head already in hand. Calling
		// stepUntil instead costs a call level per rack-window, which the
		// pod executor pays on every rack it enters.
		e.pop(head)
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
// (diagnostics and pool tests); it walks the chain.
func (e *Engine) FreeListLen() int {
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	return n
}

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
