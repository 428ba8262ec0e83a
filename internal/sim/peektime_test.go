package sim

import "testing"

// TestPeekTimeEmpty checks the no-events case: a fresh engine and an
// engine that ran dry must both report no pending timestamp.
func TestPeekTimeEmpty(t *testing.T) {
	e := NewEngine()
	if at, ok := e.PeekTime(); ok {
		t.Fatalf("empty engine peeked (%v, true), want ok=false", at)
	}
	e.At(10, func() {})
	e.Run()
	if at, ok := e.PeekTime(); ok {
		t.Fatalf("drained engine peeked (%v, true), want ok=false", at)
	}
}

// TestPeekTimeNowLane checks the boundary-injection case the pod
// executor depends on: after RunWindow parks the clock on end, an event
// injected at exactly end (a cross-rack arrival) sits in the now lane
// and must be visible as the earliest pending time — it forces the next
// window to be adjacent, never skipped.
func TestPeekTimeNowLane(t *testing.T) {
	e := NewEngine()
	e.RunWindow(100)
	e.At(100, func() {})
	at, ok := e.PeekTime()
	if !ok || at != 100 {
		t.Fatalf("peek after boundary injection = (%v, %v), want (100, true)", at, ok)
	}
}

// TestPeekTimeCalendarRing checks the common case: an event parked in a
// calendar bucket is reported without being dispatched and without the
// clock moving.
func TestPeekTimeCalendarRing(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.At(700, func() {}) // a different bucket (bucketWidth = 256 ns)
	at, ok := e.PeekTime()
	if !ok || at != 100 {
		t.Fatalf("peek = (%v, %v), want (100, true)", at, ok)
	}
	if e.Executed != 0 || e.Now() != 0 {
		t.Fatalf("peek dispatched (executed=%d now=%v)", e.Executed, e.Now())
	}
	if at2, _ := e.PeekTime(); at2 != 100 {
		t.Fatalf("second peek = %v, want 100 (peek must be idempotent)", at2)
	}
}

// TestPeekTimeInWindowHeap checks the drain-window insert path: an
// event scheduled from within a callback into the bucket currently
// being drained lands in curHeap, and a peek between steps must see it.
func TestPeekTimeInWindowHeap(t *testing.T) {
	e := NewEngine()
	e.At(10, func() { e.Schedule(5, func() {}) }) // 15 shares 10's bucket
	if !e.Step() {
		t.Fatal("step dispatched nothing")
	}
	at, ok := e.PeekTime()
	if !ok || at != 15 {
		t.Fatalf("peek = (%v, %v), want (15, true)", at, ok)
	}
}

// TestPeekTimeOverflow checks the far-future path: an event beyond the
// ring's ~65 µs horizon lives in the overflow heap; peeking must
// migrate it across the horizon (the ring jumps forward) and report it
// — and the subsequent dispatch must still happen at its exact time.
func TestPeekTimeOverflow(t *testing.T) {
	far := Time(10 * Millisecond)
	e := NewEngine()
	e.At(far, func() {})
	at, ok := e.PeekTime()
	if !ok || at != far {
		t.Fatalf("peek = (%v, %v), want (%v, true)", at, ok, far)
	}
	if !e.Step() || e.Now() != far {
		t.Fatalf("dispatch after overflow peek at %v, want %v", e.Now(), far)
	}

	// Both a near ring event and a far overflow event: the peek reports
	// the near one, and after it fires the overflow event surfaces.
	e2 := NewEngine()
	e2.At(100, func() {})
	e2.At(far, func() {})
	if at, _ := e2.PeekTime(); at != 100 {
		t.Fatalf("peek = %v, want 100", at)
	}
	e2.Step()
	if at, ok := e2.PeekTime(); !ok || at != far {
		t.Fatalf("peek across horizon = (%v, %v), want (%v, true)", at, ok, far)
	}
}

// TestPeekTimeDispatchNeutral is the property the sparse-horizon
// executor rests on: interleaving PeekTime calls anywhere in a run must
// not change the dispatch sequence. Two engines replay the same
// schedule — self-rescheduling chains spanning the now lane, the ring
// and the overflow heap — one peeked before every step, and their
// dispatch-trace hashes must agree.
func TestPeekTimeDispatchNeutral(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.EnableDispatchHash()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n > 40 {
				return
			}
			e.Schedule(Duration(n%3), tick)                // now lane / in-window
			e.Schedule(Duration(137*n), func() {})         // ring
			e.Schedule(Duration(3*Millisecond), func() {}) // overflow
		}
		e.At(5, tick)
		return e
	}
	plainRun := build()
	plainRun.Run()
	peeked := build()
	for {
		if _, ok := peeked.PeekTime(); !ok {
			break
		}
		peeked.Step()
	}
	if plainRun.DispatchHash() != peeked.DispatchHash() {
		t.Fatalf("peeked run hash %#x differs from unpeeked %#x",
			peeked.DispatchHash(), plainRun.DispatchHash())
	}
	if plainRun.Executed != peeked.Executed {
		t.Fatalf("peeked run executed %d, unpeeked %d", peeked.Executed, plainRun.Executed)
	}
}
