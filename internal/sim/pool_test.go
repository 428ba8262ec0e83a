package sim

import (
	"testing"
)

// TestEventStateTransitions pins the explicit event lifecycle: pending ->
// fired and pending -> canceled are the only transitions, they are
// terminal, and they are distinguishable (the pre-pooling implementation
// conflated "fired" with "canceled").
func TestEventStateTransitions(t *testing.T) {
	e := NewEngine()

	fired := e.Schedule(10, func() {})
	if !fired.Pending() || fired.Fired() || fired.Canceled() {
		t.Fatalf("new event: Pending=%v Fired=%v Canceled=%v", fired.Pending(), fired.Fired(), fired.Canceled())
	}
	e.Run()
	if !fired.Fired() || fired.Canceled() || fired.Pending() {
		t.Fatalf("after firing: Pending=%v Fired=%v Canceled=%v", fired.Pending(), fired.Fired(), fired.Canceled())
	}
	// Cancel after fire must not rewrite history.
	e.Cancel(fired)
	if !fired.Fired() || fired.Canceled() {
		t.Error("Cancel after fire changed the event's state")
	}

	canceled := e.Schedule(10, func() { t.Error("canceled event fired") })
	e.Cancel(canceled)
	if !canceled.Canceled() || canceled.Fired() || canceled.Pending() {
		t.Fatalf("after cancel: Pending=%v Fired=%v Canceled=%v", canceled.Pending(), canceled.Fired(), canceled.Canceled())
	}
	e.Run()
	if !canceled.Canceled() || canceled.Fired() {
		t.Error("Run changed a canceled event's state")
	}
	// Double-cancel stays a no-op.
	e.Cancel(canceled)
	if !canceled.Canceled() {
		t.Error("double cancel changed state")
	}
}

// TestEventCancelAtNow covers cancellation of an event scheduled for the
// current instant.
func TestEventCancelAtNow(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(0, func() { ran = true })
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancel, want 0", e.Pending())
	}
	e.Run()
	if ran {
		t.Error("canceled same-instant event fired")
	}
	if !ev.Canceled() {
		t.Error("same-instant event not marked canceled")
	}
}

// TestSameInstantOrdering verifies that queued events at the current time
// (scheduled earlier, smaller seq) dispatch before same-time events
// scheduled during that instant, which run in FIFO order — i.e. exactly
// ascending (time, seq).
func TestSameInstantOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() {
		got = append(got, 0)
		// Scheduled while the clock sits at t=10: must run after the
		// other heap event at t=10.
		e.Schedule(0, func() { got = append(got, 2) })
		e.Schedule(0, func() { got = append(got, 3) })
	})
	e.Schedule(10, func() { got = append(got, 1) })
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestEventPoolRecycling checks that fired ScheduleArg events return to
// the free list and are reused, while events whose pointer escaped
// (Schedule/At/ScheduleTimer) are never recycled.
func TestEventPoolRecycling(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	e.ScheduleArg(1, nop, nil)
	e.Run()
	if e.FreeListLen() != 1 {
		t.Fatalf("free list = %d after one pooled fire, want 1", e.FreeListLen())
	}
	// The next pooled schedule must consume the recycled event.
	e.ScheduleArg(1, nop, nil)
	if e.FreeListLen() != 0 {
		t.Fatalf("free list = %d after reuse, want 0", e.FreeListLen())
	}
	e.Run()

	// Escaped events may be served FROM the free list, but they never
	// come back: a retained handle must stay inert instead of becoming
	// someone else's event.
	ev := e.Schedule(1, func() {})
	tm := e.ScheduleTimer(2, nop, nil)
	free := e.FreeListLen()
	e.Run()
	if e.FreeListLen() != free {
		t.Errorf("escaped events were recycled (free list %d -> %d)", free, e.FreeListLen())
	}
	if !ev.Fired() || !tm.Fired() {
		t.Error("escaped events did not fire")
	}
}

// TestAllocsScheduleFireRecycle pins the engine's steady-state cost: one
// ScheduleArg/fire/recycle cycle must not allocate, through both the
// current instant and a short delay.
func TestAllocsScheduleFireRecycle(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	// Warm the free list and the engine's block of events.
	for i := 0; i < 8; i++ {
		e.ScheduleArg(0, nop, nil)
		e.ScheduleArg(1, nop, nil)
	}
	e.Run()

	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(0, nop, nil) // the current instant
		e.Step()
	}); avg != 0 {
		t.Errorf("zero-delay schedule/fire/recycle allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(5, nop, nil) // heap path
		e.Run()
	}); avg != 0 {
		t.Errorf("heap schedule/fire/recycle allocates %v/op, want 0", avg)
	}
}

// TestRearmAfterSameInstantCancel: re-arming a timer that was canceled
// while queued for the current instant must not revive the stale entry —
// the re-armed callback fires exactly once, at the re-armed time.
func TestRearmAfterSameInstantCancel(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func(any) { fired = append(fired, e.Now()) }
	ev := e.ScheduleTimer(0, record, nil) // queued for the current instant
	e.Cancel(ev)
	ev = e.Rearm(ev, 5, record, nil)
	e.Schedule(1, func() {}) // keep the clock moving
	e.Run()
	if len(fired) != 1 || fired[0] != 5 {
		t.Fatalf("re-armed timer fired at %v, want exactly once at t=5", fired)
	}
	if !ev.Fired() {
		t.Error("re-armed event not marked fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", e.Pending())
	}
	// And the normal reuse path still works: cancel out of the heap,
	// re-arm, fire.
	ev2 := e.ScheduleTimer(10, record, nil)
	e.Cancel(ev2)
	ev3 := e.Rearm(ev2, 3, record, nil)
	if ev3 != ev2 {
		t.Error("heap-canceled event was not reused in place")
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("heap-path rearm fired %d times total, want 2", len(fired))
	}
}
