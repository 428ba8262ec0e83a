package sim

import "testing"

// This file holds FuzzEngine: a byte string drives the calendar engine
// and the plain reference heap with the same schedules, cancels, re-arms
// and clock advances, and after every op the two must agree on
// everything a caller can observe. The plain engine keeps no head cache,
// so the PeekTime comparison after every op checks the calendar
// engine's cached head against its heap's minimum.

// fuzzFired is one dispatch as FuzzEngine's drivers record it.
type fuzzFired struct {
	id uint64
	at Time
}

// fuzzDriver runs FuzzEngine's op stream on one engine. Events carry an
// id and a child program; the handles of Schedule, At, ScheduleTimer and
// Rearm are held for later Cancel and Rearm ops.
type fuzzDriver struct {
	e       *Engine
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
	if ev.id%2 == 0 {
		d.e.ScheduleArg(delay, fuzzFireArg, child)
	} else {
		d.e.Schedule(delay, func() { d.fire(child) })
	}
}

// apply runs one 3-byte op: op%10 is the kind, op/10%5 the delay band, a
// the delay value, b the child program or handle index. It returns
// Step's answer (false for every other kind).
func (d *fuzzDriver) apply(op, a, b byte) bool {
	e := d.e
	delay := fuzzDelay(op/10, a)
	switch op % 10 {
	case 0:
		ev := d.newEv(b)
		d.handles = append(d.handles, e.Schedule(delay, func() { d.fire(ev) }))
	case 1:
		e.ScheduleArg(delay, fuzzFireArg, d.newEv(b))
	case 2:
		ev := d.newEv(b)
		d.handles = append(d.handles, e.At(e.Now().Add(delay), func() { d.fire(ev) }))
	case 3:
		d.handles = append(d.handles, e.ScheduleTimer(delay, fuzzFireArg, d.newEv(b)))
	case 4:
		if len(d.handles) > 0 {
			e.Cancel(d.handles[int(b)%len(d.handles)])
		}
	case 5:
		// Rearm a held handle in whatever state it is in (a pending one is
		// canceled first), or a nil one, which allocates.
		i := int(b) % (len(d.handles) + 1)
		var ev *Event
		if i < len(d.handles) {
			ev = d.handles[i]
			e.Cancel(ev)
		}
		ev = e.Rearm(ev, delay, fuzzFireArg, d.newEv(b>>5))
		if i < len(d.handles) {
			d.handles[i] = ev
		} else {
			d.handles = append(d.handles, ev)
		}
	case 6:
		return e.Step()
	case 7:
		e.RunUntil(e.Now().Add(delay))
	case 8:
		e.RunWindow(e.Now().Add(delay))
	case 9:
		// PeekTime: the comparison after every op peeks both engines.
	}
	return false
}

// fuzzEngineMaxOps bounds one input's work.
const fuzzEngineMaxOps = 300

// runEngineOps drives the calendar engine and the plain reference heap
// with the same op stream. After every op both must agree on the fired
// (id, time) sequence, Now, Pending, Executed and PeekTime.
func runEngineOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) > 3*fuzzEngineMaxOps {
		ops = ops[:3*fuzzEngineMaxOps]
	}
	w := &fuzzDriver{e: NewEngine()}
	p := &fuzzDriver{e: newPlainEngine()}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		stepW, stepP := w.apply(op, a, b), p.apply(op, a, b)
		if stepW != stepP {
			t.Fatalf("op %d (%d %d %d): Step = %v, reference %v", i/3, op, a, b, stepW, stepP)
		}
		if len(w.fired) != len(p.fired) {
			t.Fatalf("op %d (%d %d %d): %d events fired, reference %d", i/3, op, a, b, len(w.fired), len(p.fired))
		}
		for j := range w.fired {
			if w.fired[j] != p.fired[j] {
				t.Fatalf("op %d (%d %d %d): dispatch %d = %+v, reference %+v", i/3, op, a, b, j, w.fired[j], p.fired[j])
			}
		}
		if w.e.Now() != p.e.Now() || w.e.Pending() != p.e.Pending() || w.e.Executed != p.e.Executed {
			t.Fatalf("op %d (%d %d %d): now/pending/executed = %d/%d/%d, reference %d/%d/%d", i/3, op, a, b,
				w.e.Now(), w.e.Pending(), w.e.Executed, p.e.Now(), p.e.Pending(), p.e.Executed)
		}
		atW, okW := w.e.PeekTime()
		atP, okP := p.e.PeekTime()
		if atW != atP || okW != okP {
			t.Fatalf("op %d (%d %d %d): PeekTime = (%d, %v), reference (%d, %v)", i/3, op, a, b, atW, okW, atP, okP)
		}
	}
}

// FuzzEngine holds the calendar engine (window heap, ring, overflow heap,
// lazy cancellation, Rearm in place) to the plain (time, seq) heap under
// any mix of schedules, cancels, re-arms and the four ways to advance the
// clock.
func FuzzEngine(f *testing.F) {
	const (
		sched, schedArg, at, timer, cancel, rearm, step, runUntil, runWindow, peek = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
	)
	band := func(kind, b byte) byte { return kind + 10*b }
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
	// the drain window being dispatched (lazily canceled, so Rearm hands
	// back a fresh event), then one in a ring bucket (re-armed in place).
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
	f.Fuzz(func(t *testing.T, ops []byte) { runEngineOps(t, ops) })
}
