package sim

import "testing"

// This file holds FuzzEngine: a byte string drives the calendar engine
// and the reference engine (refengine_test.go) with the same schedules,
// cancels, re-arms and clock advances, and after every op the two must
// agree on everything a caller can observe. The reference keeps no head
// cache, so the PeekTime comparison after every op checks the calendar
// engine's cached head against the reference's first pending event.

// fuzzFired is one dispatch as FuzzEngine's drivers record it.
type fuzzFired struct {
	id uint64
	at Time
}

// fuzzDriver runs FuzzEngine's op stream on one engine. Events carry an
// id and a child program; the handles of Schedule, At, ScheduleTimer and
// Rearm are held for later Cancel and Rearm ops.
type fuzzDriver struct {
	t       *testing.T
	e       engineAPI
	fired   []fuzzFired
	handles []*Event
	nextID  uint64
}

// fuzzEv is one event's payload. kids is its child program: bit 0 asks
// for a child, bits 1-3 pick the child's delay band, and the bits above
// are the child's own program.
type fuzzEv struct {
	d    *fuzzDriver
	id   uint64
	kids byte
}

func fuzzFireArg(x any) { ev := x.(*fuzzEv); ev.d.fire(ev) }

// fuzzDelay maps a band and a value to a delay: 0, 0-255 ns, inside the
// ~65 µs ring, past the ring, and 2 ms (the fault timeout).
func fuzzDelay(band, v byte) Duration {
	switch band % 5 {
	case 0:
		return 0
	case 1:
		return Duration(v)
	case 2:
		return Duration(v) * Duration(bucketWidth)
	case 3:
		return Duration(horizon) + Duration(v)*Duration(bucketWidth)
	default:
		return 2*Millisecond + Duration(v)
	}
}

func (d *fuzzDriver) newEv(kids byte) *fuzzEv {
	d.nextID++
	return &fuzzEv{d: d, id: d.nextID, kids: kids}
}

func (d *fuzzDriver) fire(ev *fuzzEv) {
	d.fired = append(d.fired, fuzzFired{ev.id, d.e.Now()})
	if ev.kids&1 == 0 {
		return
	}
	child := d.newEv(ev.kids >> 4)
	delay := fuzzDelay(ev.kids>>1&7, byte(ev.id*37))
	// By id, a child takes one of the two pooled forms or the closure
	// form; all three queue it at the same time.
	switch ev.id % 4 {
	case 0:
		d.e.ScheduleArg(delay, fuzzFireArg, child)
	case 2:
		d.e.AtArg(d.e.Now().Add(delay), fuzzFireArg, child)
	default:
		d.e.Schedule(delay, func() { d.fire(child) })
	}
}

// apply runs one 3-byte op: op%10 is the kind, op/10%5 the delay band, a
// the delay value, b the child program or handle index. Ops 50-59 are
// the past band instead: the delay is -a-1 and the time now-a, which the
// engine clamps to now. It returns Step's answer (false for every other
// kind).
func (d *fuzzDriver) apply(op, a, b byte) bool {
	e := d.e
	delay := fuzzDelay(op/10, a)
	at := e.Now().Add(delay)
	if op/10 == 5 {
		delay, at = -Duration(a)-1, e.Now().Add(-Duration(a))
	}
	switch op % 10 {
	case 0:
		ev := d.newEv(b)
		d.handles = append(d.handles, e.Schedule(delay, func() { d.fire(ev) }))
	case 1:
		e.ScheduleArg(delay, fuzzFireArg, d.newEv(b))
	case 2:
		ev := d.newEv(b)
		d.handles = append(d.handles, e.At(at, func() { d.fire(ev) }))
	case 3:
		d.handles = append(d.handles, e.ScheduleTimer(delay, fuzzFireArg, d.newEv(b)))
	case 4:
		if len(d.handles) > 0 {
			e.Cancel(d.handles[int(b)%len(d.handles)])
		}
	case 5:
		// Rearm a held handle in whatever state it is in (a pending one is
		// canceled first), which must reuse the object, or a nil one,
		// which allocates.
		i := int(b) % (len(d.handles) + 1)
		var ev *Event
		if i < len(d.handles) {
			ev = d.handles[i]
			e.Cancel(ev)
		}
		switch re := e.Rearm(ev, delay, fuzzFireArg, d.newEv(b>>5)); {
		case ev == nil:
			d.handles = append(d.handles, re)
		case re != ev:
			d.t.Fatalf("Rearm of a settled handle returned a fresh event")
		}
	case 6:
		return e.Step()
	case 7:
		e.RunUntil(at)
	case 8:
		e.RunWindow(at)
	case 9:
		// PeekTime: the comparison after every op peeks both engines.
	}
	return false
}

// fuzzEngineMaxOps bounds one input's work. It leaves room for a seed
// that fills one bucket with 512 events and then dispatches it.
const fuzzEngineMaxOps = 1024

// runEngineOps drives the calendar engine and the reference engine
// with the same op stream. After every op both must agree on the fired
// (id, time) sequence, Now, Pending, Executed and PeekTime.
func runEngineOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) > 3*fuzzEngineMaxOps {
		ops = ops[:3*fuzzEngineMaxOps]
	}
	w := &fuzzDriver{t: t, e: NewEngine()}
	r := &fuzzDriver{t: t, e: &refEngine{}}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		stepW, stepR := w.apply(op, a, b), r.apply(op, a, b)
		if stepW != stepR {
			t.Fatalf("op %d (%d %d %d): Step = %v, reference %v", i/3, op, a, b, stepW, stepR)
		}
		if len(w.fired) != len(r.fired) {
			t.Fatalf("op %d (%d %d %d): %d events fired, reference %d", i/3, op, a, b, len(w.fired), len(r.fired))
		}
		for j := range w.fired {
			if w.fired[j] != r.fired[j] {
				t.Fatalf("op %d (%d %d %d): dispatch %d = %+v, reference %+v", i/3, op, a, b, j, w.fired[j], r.fired[j])
			}
		}
		if w.e.Now() != r.e.Now() || w.e.Pending() != r.e.Pending() || w.e.executed() != r.e.executed() {
			t.Fatalf("op %d (%d %d %d): now/pending/executed = %d/%d/%d, reference %d/%d/%d", i/3, op, a, b,
				w.e.Now(), w.e.Pending(), w.e.executed(), r.e.Now(), r.e.Pending(), r.e.executed())
		}
		atW, okW := w.e.PeekTime()
		atR, okR := r.e.PeekTime()
		if atW != atR || okW != okR {
			t.Fatalf("op %d (%d %d %d): PeekTime = (%d, %v), reference (%d, %v)", i/3, op, a, b, atW, okW, atR, okR)
		}
	}
}

// FuzzEngine holds the calendar engine (ring buckets as ordered event
// lists, the cached head bucket, the overflow heap and migration out of
// it, eager cancellation, Rearm in place) to the reference engine's
// (time, seq) slice under any mix of schedules, cancels, re-arms and the
// four ways to advance the clock.
func FuzzEngine(f *testing.F) {
	const (
		sched, schedArg, at, timer, cancel, rearm, step, runUntil, runWindow, peek = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
	)
	band := func(kind, b byte) byte { return kind + 10*b }
	past := func(kind byte) byte { return kind + 50 }
	// Zero-delay children inside callbacks: each event asks for a child
	// at delay 0 whose own program asks for one more.
	f.Add([]byte{
		band(schedArg, 1), 10, 0x11,
		band(sched, 0), 0, 0x11,
		band(timer, 2), 3, 0x13,
		step, 0, 0,
		band(sched, 0), 0, 0x11,
		step, 0, 0,
		peek, 0, 0,
		band(runUntil, 2), 1, 0,
		band(cancel, 0), 0, 1,
		band(rearm, 0), 0, 1,
		step, 0, 0,
	})
	// A schedule at now right after RunWindow parks the clock on the
	// window's end, with ring and overflow events still queued.
	f.Add([]byte{
		band(timer, 2), 5, 0,
		band(schedArg, 3), 7, 0x15,
		band(timer, 4), 0, 0,
		band(runWindow, 1), 100, 0,
		band(at, 0), 0, 0x11,
		band(sched, 0), 0, 0,
		peek, 0, 0,
		band(cancel, 0), 0, 3,
		band(rearm, 0), 0, 0,
		band(runWindow, 2), 1, 0,
		band(schedArg, 0), 0, 0x31,
		band(runUntil, 3), 0, 0,
		step, 0, 0,
		band(runUntil, 4), 255, 0,
	})
	// Cancel the head from outside a window, then peek: the cached head
	// must move on to the next event.
	f.Add([]byte{
		band(timer, 2), 3, 0,
		band(timer, 2), 8, 0,
		peek, 0, 0,
		band(cancel, 0), 0, 0,
		peek, 0, 0,
		step, 0, 0,
	})
	// Rearm a canceled head earlier than the next event: first a head in
	// the bucket being dispatched from, then one in a later ring bucket;
	// cancellation is eager, so both are re-armed in place.
	f.Add([]byte{
		band(schedArg, 2), 5, 0,
		band(timer, 2), 5, 0,
		band(schedArg, 2), 9, 0,
		step, 0, 0,
		band(cancel, 0), 0, 0,
		band(rearm, 1), 10, 0,
		peek, 0, 0,
		step, 0, 0,
		band(timer, 2), 20, 0,
		band(schedArg, 2), 30, 0,
		band(cancel, 0), 0, 1,
		band(rearm, 1), 100, 1,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// Schedule at now right after RunWindow stopped before an overflow
	// head: the new event lowers the head the window left cached.
	f.Add([]byte{
		band(timer, 3), 2, 0,
		band(runWindow, 2), 4, 0,
		band(schedArg, 0), 0, 0,
		peek, 0, 0,
		step, 0, 0,
		peek, 0, 0,
	})
	rng := NewRNG(11, "fuzz-engine")
	for i := 0; i < 3; i++ {
		ops := make([]byte, 3*200)
		for j := range ops {
			ops[j] = byte(rng.Uint64())
		}
		f.Add(ops)
	}
	// Schedule into a partially dispatched bucket, below its remaining
	// events and at the current instant: the insert walks back past
	// every remaining event and becomes the bucket's head.
	f.Add([]byte{
		band(schedArg, 1), 10, 0,
		band(timer, 1), 200, 0,
		band(sched, 1), 220, 0,
		step, 0, 0,
		band(schedArg, 1), 50, 0,
		band(sched, 0), 0, 0,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// Schedule into buckets earlier than the cached head bucket, once
	// after a peek and once after a window stopped before that bucket:
	// the insert must lower the cache.
	f.Add([]byte{
		band(timer, 2), 10, 0,
		band(schedArg, 2), 12, 0,
		peek, 0, 0,
		band(schedArg, 2), 3, 0,
		band(sched, 2), 5, 0,
		step, 0, 0,
		step, 0, 0,
		band(runWindow, 2), 2, 0,
		band(timer, 1), 9, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// Cancel from the middle of a partially dispatched bucket, then
	// Rearm that handle into the same bucket, below its remaining events.
	f.Add([]byte{
		band(schedArg, 1), 10, 0,
		band(timer, 1), 100, 0,
		band(timer, 1), 150, 0,
		band(sched, 1), 200, 0,
		step, 0, 0,
		band(cancel, 0), 0, 1,
		peek, 0, 0,
		band(rearm, 1), 30, 1,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// Move the clock far past the ring's edge without a dispatch there,
	// by RunUntil and by a window that parks, then schedule near the new
	// clock, inside the ring and past the horizon: the edge must catch up
	// before a near event can enter the ring.
	f.Add([]byte{
		band(timer, 4), 200, 0,
		band(schedArg, 2), 5, 0,
		band(runUntil, 4), 0, 0,
		band(schedArg, 1), 7, 0,
		band(timer, 3), 9, 0,
		band(sched, 2), 100, 0,
		peek, 0, 0,
		band(timer, 4), 255, 0,
		band(runWindow, 4), 0, 0,
		band(sched, 0), 0, 0,
		band(schedArg, 3), 1, 0,
		band(timer, 2), 1, 0,
		peek, 0, 0,
		band(runUntil, 4), 255, 0,
		band(runUntil, 4), 255, 0,
	})
	// A dispatch moves the ring's edge far enough that the horizon covers
	// an overflow timer; a ring event scheduled just after, later than
	// that timer, must not dispatch first.
	f.Add([]byte{
		band(timer, 3), 10, 0,
		band(timer, 3), 12, 0,
		band(schedArg, 2), 20, 0,
		step, 0, 0,
		band(schedArg, 2), 255, 0,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// A bucket of 32 events, half of it dispatched: the inserts that
	// follow land after and among its remaining events, and a cancel
	// unlinks one of them from the middle of the list.
	var fill []byte
	for i := byte(0); i < 32; i++ {
		fill = append(fill, band(schedArg, 1), 8+7*i, 0)
	}
	for i := 0; i < 16; i++ {
		fill = append(fill, step, 0, 0)
	}
	fill = append(fill,
		band(schedArg, 1), 140, 0,
		band(timer, 1), 130, 0,
		band(schedArg, 1), 120, 0,
		band(sched, 1), 10, 0,
		band(cancel, 0), 0, 1,
		peek, 0, 0,
		band(runUntil, 2), 255, 0,
	)
	f.Add(fill)
	// Inserts into an occupied bucket: before its head, between two of
	// its events and at its tail, each walking back from the tail.
	f.Add([]byte{
		band(timer, 1), 100, 0,
		band(timer, 1), 200, 0,
		band(schedArg, 1), 50, 0,
		band(schedArg, 1), 150, 0,
		band(schedArg, 1), 250, 0,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// Cancels of a bucket's head, a middle event, its tail and a
	// bucket's only event, each followed by an insert into that bucket:
	// the list must relink around each hole, and the emptied bucket must
	// leave the bitmap and take its next event afresh.
	f.Add([]byte{
		band(timer, 1), 100, 0,
		band(timer, 1), 150, 0,
		band(timer, 1), 200, 0,
		band(timer, 2), 5, 0,
		band(cancel, 0), 0, 0,
		band(schedArg, 1), 60, 0,
		peek, 0, 0,
		band(cancel, 0), 0, 1,
		band(schedArg, 1), 170, 0,
		band(cancel, 0), 0, 2,
		band(schedArg, 1), 240, 0,
		band(cancel, 0), 0, 3,
		peek, 0, 0,
		band(sched, 2), 5, 0,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// Rearm a canceled handle back into its own bucket, ahead of its old
	// neighbours, then once more after it fired, ahead of the rest.
	f.Add([]byte{
		band(timer, 1), 100, 0,
		band(timer, 1), 150, 0,
		band(timer, 1), 200, 0,
		band(cancel, 0), 0, 1,
		peek, 0, 0,
		band(rearm, 1), 20, 1,
		peek, 0, 0,
		step, 0, 0,
		band(rearm, 1), 30, 1,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
	})
	// One bucket holds 512 events (a rack's start-up burst), two at each
	// time in scrambled order, so inserts walk back far; it is then
	// dispatched two events at a time with inserts and a timer's cancel
	// in between, into it and into the bucket after it.
	var burst []byte
	for i := 0; i < 512; i++ {
		burst = append(burst, band(schedArg, 1), byte(i*37), 0)
	}
	for k := 0; k < 64; k++ {
		burst = append(burst, step, 0, 0, step, 0, 0, band(schedArg, 1), byte(k*53), 0)
		if k%8 == 0 {
			burst = append(burst, band(timer, 1), byte(k*29), 0, band(cancel, 0), 0, byte(k/8))
		}
	}
	burst = append(burst, peek, 0, 0, band(runUntil, 2), 4, 0)
	f.Add(burst)
	// Re-arm a handle into the overflow heap at the time of the event
	// scheduled just before it, then queue an earlier and a later heap
	// event: only the fresh seq Rearm draws orders the re-armed event
	// after its twin, however the heap reshapes.
	f.Add([]byte{
		band(sched, 0), 0, 0,
		band(at, 3), 48, 0,
		band(rearm, 3), 48, 0,
		band(at, 3), 32, 0,
		band(sched, 4), 48, 0,
		band(runWindow, 4), 48, 0,
	})
	// Every kind in the past band, among pending ring and overflow
	// events: At before now and negative delays queue at now, behind the
	// events already there; a rearm into the past does too; RunUntil and
	// RunWindow before now dispatch nothing and leave the clock.
	f.Add([]byte{
		band(timer, 2), 40, 0,
		band(schedArg, 3), 1, 0,
		band(schedArg, 1), 200, 0,
		step, 0, 0,
		past(at), 150, 0x11,
		past(sched), 7, 0,
		past(schedArg), 255, 0,
		past(timer), 0, 0,
		peek, 0, 0,
		past(at), 0, 0,
		past(runUntil), 100, 0,
		past(runWindow), 100, 0,
		band(cancel, 0), 0, 1,
		past(rearm), 30, 1,
		peek, 0, 0,
		step, 0, 0,
		step, 0, 0,
		step, 0, 0,
		past(runUntil), 0, 0,
		past(runWindow), 0, 0,
		band(runUntil, 4), 0, 0,
		past(at), 255, 0,
		past(rearm), 9, 0,
		band(runUntil, 3), 255, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) { runEngineOps(t, ops) })
}
