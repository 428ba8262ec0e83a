package sim

import "testing"

// TestRunWindowStrictUpperEdge checks the window primitive's contract:
// RunWindow(end) dispatches events strictly below end, leaves events at
// end queued for the next window, parks the clock exactly on the
// boundary, and leaves the head it stopped at as PeekTime's answer.
func TestRunWindowStrictUpperEdge(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.At(10, rec)
	e.At(99, rec)
	e.At(100, rec) // exactly on the boundary: belongs to the next window
	e.At(150, rec)

	e.RunWindow(100)
	if next, ok := e.PeekTime(); next != 100 || !ok {
		t.Fatalf("PeekTime after RunWindow(100) = (%v, %v), want (100, true)", next, ok)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 99 {
		t.Fatalf("window [0,100) dispatched %v, want [10 99]", got)
	}
	if e.Now() != 100 {
		t.Fatalf("clock after RunWindow(100) = %v, want 100", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending after first window = %d, want 2", e.Pending())
	}

	// A boundary injection at exactly the window edge (the cross-rack
	// arrival case) must be dispatchable by the next window.
	e.At(100, rec)
	e.RunWindow(200)
	if next, ok := e.PeekTime(); next != MaxTime || ok {
		t.Fatalf("PeekTime after RunWindow(200) drained the queue = (%v, %v), want (MaxTime, false)", next, ok)
	}
	if len(got) != 5 {
		t.Fatalf("second window dispatched %d events total, want 5", len(got))
	}
	if got[2] != 100 || got[3] != 100 || got[4] != 150 {
		t.Fatalf("second window times = %v", got[2:])
	}
	if e.Now() != 200 {
		t.Fatalf("clock after RunWindow(200) = %v, want 200", e.Now())
	}

	// A head past the window, in the overflow heap: peeked, not run.
	e.At(200+Time(horizon)+7, rec)
	e.RunWindow(300)
	if next, ok := e.PeekTime(); next != 200+Time(horizon)+7 || !ok || len(got) != 5 {
		t.Fatalf("PeekTime after RunWindow(300) = (%v, %v) after %d dispatches, want (%v, true) after 5",
			next, ok, len(got), 200+Time(horizon)+7)
	}
}

// TestRunWindowEmpty checks that a window over an empty queue still
// advances the clock (dry racks must keep lockstep with busy ones).
func TestRunWindowEmpty(t *testing.T) {
	e := NewEngine()
	e.RunWindow(1000)
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime after RunWindow over an empty queue reported a head")
	}
	if e.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000", e.Now())
	}
}

// TestParkMatchesEmptyWindow checks Park against the window it stands
// in for: on an engine with nothing below t, Park(t) and RunWindow(t)
// leave the same clock and dispatch the same later sequence, and Park
// never moves the clock back.
func TestParkMatchesEmptyWindow(t *testing.T) {
	run := func(park bool) (Time, uint64) {
		e := NewEngine()
		e.EnableDispatchHash()
		e.At(500, func() { e.Schedule(3, func() {}) })
		e.At(Time(horizon)+900, func() {})
		if park {
			e.Park(400)
			e.Park(300)
		} else {
			e.RunWindow(400)
		}
		now := e.Now()
		e.At(400, func() {})
		e.Run()
		return now, e.DispatchHash()
	}
	pNow, pHash := run(true)
	wNow, wHash := run(false)
	if pNow != 400 || wNow != 400 {
		t.Fatalf("clock after Park = %v, after RunWindow = %v, want 400", pNow, wNow)
	}
	if pHash != wHash {
		t.Fatal("parking dispatched a different sequence than the empty window")
	}
}

// TestDispatchHashMatchesAcrossEngines drives two engines through the
// same schedule and checks the trace hashes agree — and that a diverging
// schedule disagrees.
func TestDispatchHashMatchesAcrossEngines(t *testing.T) {
	run := func(extra bool) uint64 {
		e := NewEngine()
		e.EnableDispatchHash()
		for i := 0; i < 100; i++ {
			e.At(Time(i%7)*3, func() {})
		}
		if extra {
			e.At(5, func() {})
		}
		e.Run()
		return e.DispatchHash()
	}
	if run(false) != run(false) {
		t.Fatal("identical schedules produced different dispatch hashes")
	}
	if run(false) == run(true) {
		t.Fatal("diverging schedules produced equal dispatch hashes")
	}
}
