package sim

import "sort"

// This file holds the reference engine the equivalence tests hold
// Engine to: one slice of pending events kept in (time, seq) order,
// nothing cached, nothing recycled. It shares the Event type for its
// handles but none of Engine's code, so a fault in Engine's scheduling,
// re-arming, cancellation or dispatch shows up as a difference.

// engineAPI is what the equivalence drivers call. Engine and refEngine
// both satisfy it.
type engineAPI interface {
	Now() Time
	Schedule(delay Duration, fn func()) *Event
	At(at Time, fn func()) *Event
	ScheduleArg(delay Duration, fn func(any), arg any)
	AtArg(at Time, fn func(any), arg any)
	ScheduleTimer(delay Duration, fn func(any), arg any) *Event
	Rearm(ev *Event, delay Duration, fn func(any), arg any) *Event
	Cancel(ev *Event)
	Step() bool
	Run()
	RunUntil(deadline Time)
	RunWindow(end Time)
	PeekTime() (Time, bool)
	Pending() int
	executed() uint64
}

func (e *Engine) executed() uint64 { return e.Executed }

// refEngine is the reference: q holds the pending events ascending by
// (at, seq), so the head is q[0].
type refEngine struct {
	now   Time
	seq   uint64
	q     []*Event
	fired uint64
}

func (r *refEngine) Now() Time        { return r.now }
func (r *refEngine) Pending() int     { return len(r.q) }
func (r *refEngine) executed() uint64 { return r.fired }

// slot returns the index at which an event at (at, seq) sits or would
// be inserted.
func (r *refEngine) slot(at Time, seq uint64) int {
	return sort.Search(len(r.q), func(i int) bool {
		q := r.q[i]
		return q.at > at || q.at == at && q.seq >= seq
	})
}

// add queues ev at at (clamped to now) with the next seq.
func (r *refEngine) add(ev *Event, at Time, fn func(any), arg any) *Event {
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev.at, ev.seq, ev.fn, ev.arg, ev.state = at, r.seq, fn, arg, statePending
	i := r.slot(at, r.seq)
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = ev
	return ev
}

// after returns the time delay from now; a negative delay counts as
// zero.
func (r *refEngine) after(delay Duration) Time {
	if delay < 0 {
		delay = 0
	}
	return r.now + Time(delay)
}

func (r *refEngine) Schedule(delay Duration, fn func()) *Event {
	return r.add(new(Event), r.after(delay), func(any) { fn() }, nil)
}

func (r *refEngine) At(at Time, fn func()) *Event {
	return r.add(new(Event), at, func(any) { fn() }, nil)
}

func (r *refEngine) ScheduleArg(delay Duration, fn func(any), arg any) {
	r.add(new(Event), r.after(delay), fn, arg)
}

func (r *refEngine) AtArg(at Time, fn func(any), arg any) { r.add(new(Event), at, fn, arg) }

func (r *refEngine) ScheduleTimer(delay Duration, fn func(any), arg any) *Event {
	return r.add(new(Event), r.after(delay), fn, arg)
}

func (r *refEngine) Rearm(ev *Event, delay Duration, fn func(any), arg any) *Event {
	if ev == nil {
		ev = new(Event)
	} else if ev.state == statePending {
		panic("sim: Rearm of a pending event (cancel it first)")
	}
	return r.add(ev, r.after(delay), fn, arg)
}

func (r *refEngine) Cancel(ev *Event) {
	if ev == nil || ev.state != statePending {
		return
	}
	i := r.slot(ev.at, ev.seq)
	r.q = append(r.q[:i], r.q[i+1:]...)
	ev.state, ev.fn, ev.arg = stateCanceled, nil, nil
}

// dispatch fires the head.
func (r *refEngine) dispatch() {
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	fn, arg := ev.fn, ev.arg
	ev.state, ev.fn, ev.arg = stateFired, nil, nil
	r.fired++
	fn(arg)
}

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	r.dispatch()
	return true
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

func (r *refEngine) RunUntil(deadline Time) {
	for len(r.q) > 0 && r.q[0].at <= deadline {
		r.dispatch()
	}
	r.Park(deadline)
}

func (r *refEngine) RunWindow(end Time) {
	for len(r.q) > 0 && r.q[0].at < end {
		r.dispatch()
	}
	r.Park(end)
}

func (r *refEngine) Park(t Time) {
	if r.now < t {
		r.now = t
	}
}

func (r *refEngine) PeekTime() (Time, bool) {
	if len(r.q) == 0 {
		return MaxTime, false
	}
	return r.q[0].at, true
}
