package sim

import (
	"slices"
	"testing"
	"unsafe"
)

// This file pins the calendar-queue event queue against the reference
// engine (refengine_test.go): randomized dispatch-order equivalence
// across both containers (the calendar ring's ordered buckets, including
// the one being dispatched from, and the far-future overflow heap),
// including Cancel and Rearm of events that cross the ring horizon — the
// operations whose bookkeeping differs most between the two
// implementations.

// calDriver runs a randomized schedule program on one engine, recording
// dispatch order. Delays are drawn from bands that deliberately straddle
// the engine's internal boundaries: 0 (the current instant), sub-bucket
// (the bucket being dispatched from), multi-bucket (ring), and beyond
// the ~65 µs horizon (overflow heap, later migrated into the ring).
type calDriver struct {
	e      engineAPI
	order  []uint64
	nextID uint64
	budget int
	timers []*Event // cancelable/re-armable handles, in creation order
}

// calDelay maps a hash to a delay in one of the boundary-straddling
// bands.
func calDelay(h uint64) Duration {
	switch h % 5 {
	case 0:
		return 0 // the current instant
	case 1:
		return Duration(h % uint64(bucketWidth)) // inside the current bucket
	case 2:
		return Duration(h % uint64(64*bucketWidth)) // nearby ring buckets
	case 3:
		return Duration(h % uint64(horizon)) // anywhere in the ring
	default:
		// Past the horizon: lands in the overflow heap and must migrate
		// into the ring as the clock advances.
		return Duration(uint64(horizon) + h%uint64(horizon))
	}
}

func (d *calDriver) schedule(id uint64) {
	h := eqMix(id)
	delay := calDelay(h >> 8)
	switch h % 3 {
	case 0:
		d.e.ScheduleArg(delay, d.fire, id)
	case 1:
		d.timers = append(d.timers, d.e.Schedule(delay, func() { d.fired(id) }))
	default:
		d.timers = append(d.timers, d.e.ScheduleTimer(delay, d.fire, id))
	}
}

func (d *calDriver) fire(x any) { d.fired(x.(uint64)) }

func (d *calDriver) fired(id uint64) {
	d.order = append(d.order, id)
	h := eqMix(id + 0x517c)
	if h%3 == 0 && d.budget > 0 {
		d.budget--
		d.nextID++
		d.schedule(d.nextID)
	}
	if h%5 == 0 && d.budget > 0 {
		d.budget--
		d.nextID++
		d.schedule(d.nextID)
	}
	if h%7 == 0 && len(d.timers) > 0 {
		// Cancel a surviving handle — possibly one that has already
		// migrated overflow -> ring, or that sits in the bucket being
		// dispatched from right now.
		d.e.Cancel(d.timers[int(h>>16)%len(d.timers)])
	}
	if h%11 == 0 && len(d.timers) > 0 && d.budget > 0 {
		// Rearm a settled (fired or canceled) timer across bands: a
		// short-delay timer comes back far-future and vice versa.
		i := int(h>>24) % len(d.timers)
		if tm := d.timers[i]; !tm.Pending() {
			d.budget--
			d.nextID++
			id := d.nextID
			d.timers[i] = d.e.Rearm(tm, calDelay(eqMix(id)), d.fire, id)
		}
	}
}

// timerDriver is the blade's fault path as the event queue sees it, and
// the overflow heap's everyday load: every slot keeps one fault in
// flight, each issue re-arms the slot's one timer object at +2 ms and
// schedules the completion that cancels it a few microseconds later.
// Some completions arrive from beyond the ring horizon, some faults are
// lost so their timer migrates into the ring and fires, and some timers
// are re-armed at backoff length, so the same Event object moves heap ->
// ring -> heap. Every decision is a hash of (seed, slot, generation), so
// two engines run the same program without sharing state.
type timerDriver struct {
	e      engineAPI
	seed   uint64
	order  []uint64
	timers []*Event
	gen    []uint64 // faults issued per slot; a completion of an older one is stale
	budget int
}

func (d *timerDriver) issue(x any) {
	slot := x.(uint64)
	d.order = append(d.order, slot<<2)
	if d.budget == 0 {
		return
	}
	d.budget--
	d.gen[slot]++
	h := eqMix(d.seed ^ slot<<32 ^ d.gen[slot])
	timeout := 2 * Millisecond
	if h%16 == 0 {
		timeout = Duration(h >> 8 % uint64(horizon)) // a retry backoff: inside the ring
	}
	d.timers[slot] = d.e.Rearm(d.timers[slot], timeout, d.timedOut, slot)
	tag := slot | d.gen[slot]<<32
	switch {
	case h%64 == 1:
		// Lost in the fabric: the timer fires.
	case h%8 == 2:
		d.e.ScheduleArg(Duration(horizon)+Duration(h>>16%uint64(4*horizon)), d.completed, tag)
	default:
		d.e.ScheduleArg(Duration(1000+h>>16%30000), d.completed, tag)
	}
}

func (d *timerDriver) completed(x any) {
	tag := x.(uint64)
	slot, gen := tag&(1<<32-1), tag>>32
	d.order = append(d.order, slot<<2|1)
	if gen != d.gen[slot] {
		return // the fault timed out first and was reissued
	}
	d.e.Cancel(d.timers[slot])
	d.e.ScheduleArg(Duration(eqMix(tag)%2000), d.issue, slot)
}

func (d *timerDriver) timedOut(x any) {
	slot := x.(uint64)
	d.order = append(d.order, slot<<2|2)
	d.gen[slot]++ // orphan the completion still in flight, if any
	d.e.ScheduleArg(5*Microsecond, d.issue, slot)
}

// eqMix hashes an event id into deterministic scheduling decisions, so
// the engine and the reference execute the same program without sharing
// state.
func eqMix(id uint64) uint64 {
	id ^= id >> 33
	id *= 0xff51afd7ed558ccd
	id ^= id >> 33
	return id
}

// eqDriver runs the randomized schedule program on one engine, recording
// dispatch order.
type eqDriver struct {
	e      engineAPI
	order  []uint64
	nextID uint64
	budget int
	live   []*Event // cancelable handles, in creation order
}

func (d *eqDriver) schedule(id uint64) {
	h := eqMix(id)
	delay := Duration(h % 37) // includes 0: the current instant
	if h&1 == 0 {
		d.e.ScheduleArg(delay, d.fire, id)
		return
	}
	ev := d.e.Schedule(delay, func() { d.fired(id) })
	d.live = append(d.live, ev)
}

func (d *eqDriver) fire(x any) { d.fired(x.(uint64)) }

func (d *eqDriver) fired(id uint64) {
	d.order = append(d.order, id)
	h := eqMix(id + 0x9e37)
	if h%3 == 0 && d.budget > 0 {
		d.budget--
		d.nextID++
		d.schedule(d.nextID)
	}
	if h%5 == 0 && d.budget > 0 {
		d.budget--
		d.nextID++
		d.schedule(d.nextID)
	}
	if h%7 == 0 && len(d.live) > 0 {
		victim := d.live[int(h%uint64(len(d.live)))]
		d.e.Cancel(victim)
	}
}

// TestCalendarHeapEquivalenceRandomized drives identical randomized
// programs through the calendar-queue engine and the reference engine,
// asserting identical dispatch order, Executed counts and final clocks,
// and an empty queue after the drain. The bands arm mixes all delay
// bands, nested scheduling, cancellations and cross-horizon re-arms; the
// fault-timers arm keeps thousands of +2 ms timers outstanding in the
// overflow heap, nearly all canceled within microseconds; the pool arm
// mixes closure and pre-bound forms at delays under 37 ns, so recycled
// events are reused while same-instant events are still queued.
func TestCalendarHeapEquivalenceRandomized(t *testing.T) {
	bands := func(e engineAPI, seed uint64) []uint64 {
		d := &calDriver{e: e, budget: 3000, nextID: seed * 1_000_000}
		for i := 0; i < 40; i++ {
			d.nextID++
			d.schedule(d.nextID)
		}
		e.Run()
		return d.order
	}
	faultTimers := func(e engineAPI, seed uint64) []uint64 {
		const slots = 3000
		d := &timerDriver{e: e, seed: eqMix(seed + 1), budget: 40000,
			timers: make([]*Event, slots), gen: make([]uint64, slots)}
		for i := uint64(0); i < slots; i++ {
			e.ScheduleArg(Duration(i*37), d.issue, i)
		}
		e.Run()
		return d.order
	}
	pool := func(e engineAPI, seed uint64) []uint64 {
		d := &eqDriver{e: e, budget: 2000, nextID: seed * 1_000_000}
		for i := 0; i < 50; i++ {
			d.nextID++
			d.schedule(d.nextID)
		}
		e.Run()
		return d.order
	}
	for _, arm := range []struct {
		name  string
		seeds uint64
		run   func(engineAPI, uint64) []uint64
	}{
		{"bands", 25, bands},
		{"fault-timers", 4, faultTimers},
		{"pool", 20, pool},
	} {
		t.Run(arm.name, func(t *testing.T) {
			for seed := uint64(0); seed < arm.seeds; seed++ {
				wheel, ref := NewEngine(), &refEngine{}
				got, want := arm.run(wheel, seed), arm.run(ref, seed)
				if len(got) != len(want) {
					t.Fatalf("seed %d: wheel dispatched %d events, reference %d", seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: dispatch order diverges at %d: wheel=%d reference=%d",
							seed, i, got[i], want[i])
					}
				}
				if wheel.Executed != ref.executed() {
					t.Errorf("seed %d: Executed %d vs %d", seed, wheel.Executed, ref.executed())
				}
				if wheel.Now() != ref.Now() {
					t.Errorf("seed %d: final clock %d vs %d", seed, wheel.Now(), ref.Now())
				}
				if wheel.Pending() != 0 {
					t.Errorf("seed %d: wheel Pending = %d after drain", seed, wheel.Pending())
				}
			}
		})
	}
}

// TestEventHeapAgainstSort pins the typed heap on its own: under random
// pushes and removals from any slot it pops in ascending (time, seq)
// order, and every resident event's idx names its slot — the invariant
// Cancel relies on.
func TestEventHeapAgainstSort(t *testing.T) {
	rng := NewRNG(7, "event-heap")
	var h eventHeap
	var live []*Event
	check := func() {
		t.Helper()
		for i, ev := range h {
			if int(ev.idx) != i {
				t.Fatalf("slot %d holds an event with idx %d", i, ev.idx)
			}
			if i > 0 && evLess(ev, h[(i-1)/2]) {
				t.Fatalf("slot %d sorts before its parent", i)
			}
		}
	}
	for seq := uint64(1); seq <= 4000; seq++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			// Few distinct times, so seq breaks most ties.
			ev := &Event{at: Time(rng.Intn(50)), seq: seq}
			h.push(ev)
			live = append(live, ev)
		} else {
			i := rng.Intn(len(live))
			ev := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if got := h.remove(int(ev.idx)); got != ev || ev.idx != -1 {
				t.Fatalf("remove returned %p (idx %d), want %p (idx -1)", got, ev.idx, ev)
			}
		}
		check()
	}
	slices.SortFunc(live, func(a, b *Event) int {
		switch {
		case evLess(a, b):
			return -1
		case evLess(b, a):
			return 1
		}
		return 0
	})
	for i, want := range live {
		if got := h.remove(0); got != want {
			t.Fatalf("pop %d = (%d, %d), want (%d, %d)", i, got.at, got.seq, want.at, want.seq)
		}
		check()
	}
	if len(h) != 0 {
		t.Fatalf("%d events left in the heap", len(h))
	}
}

// TestOverflowMigrationOrdering pins the one ordering case the ring
// cannot see at insert time: an event placed in the overflow heap (far
// future, small seq) must still dispatch before a later-scheduled ring
// event at the same timestamp (larger seq), which requires the edge's
// advance to migrate it into the ring as soon as the horizon covers it,
// before a same-time event can be placed there.
func TestOverflowMigrationOrdering(t *testing.T) {
	e := NewEngine()
	target := Time(horizon) + 777 // beyond the horizon at t=0
	var got []int
	e.At(target, func() { got = append(got, 1) }) // overflow; seq 1
	// Walk the clock forward so the horizon crosses target long before
	// it fires, then schedule a same-timestamp ring event with a larger
	// seq.
	e.Schedule(Duration(horizon)/2, func() {
		e.At(target, func() { got = append(got, 2) }) // ring; seq 3
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("dispatch order %v, want [1 2] (overflow event first by seq)", got)
	}
	if e.Now() != target {
		t.Fatalf("final clock %d, want %d", e.Now(), target)
	}
}

// TestCancelAcrossContainers cancels events resident in each container
// and verifies Pending accounting and that none fire.
func TestCancelAcrossContainers(t *testing.T) {
	e := NewEngine()
	bad := func() { t.Error("canceled event fired") }
	now := e.Schedule(0, bad)                        // current instant
	ring := e.Schedule(Duration(5*bucketWidth), bad) // calendar ring
	far := e.Schedule(Duration(horizon)+12345, bad)  // overflow heap
	keep := false
	e.Schedule(1, func() { keep = true })
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	for _, ev := range []*Event{now, ring, far} {
		e.Cancel(ev)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancels, want 1", e.Pending())
	}
	e.Run()
	if !keep {
		t.Error("surviving event did not fire")
	}
	for _, ev := range []*Event{now, ring, far} {
		if !ev.Canceled() {
			t.Error("event not marked canceled")
		}
	}
}

// TestRearmAcrossHorizon re-arms one timer object back and forth across
// the ring/overflow boundary; ring- and overflow-canceled events are
// removed eagerly, so the object must be reused in place each time.
func TestRearmAcrossHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func(any) { fired = append(fired, e.Now()) }

	tm := e.ScheduleTimer(Duration(2*horizon), record, nil) // overflow
	e.Cancel(tm)
	tm2 := e.Rearm(tm, Duration(3*bucketWidth), record, nil) // ring
	if tm2 != tm {
		t.Fatal("overflow-canceled timer was not reused in place")
	}
	e.Cancel(tm2)
	tm3 := e.Rearm(tm2, Duration(2*horizon)+5, record, nil) // overflow again
	if tm3 != tm2 {
		t.Fatal("ring-canceled timer was not reused in place")
	}
	e.Run()
	want := Time(0).Add(Duration(2*horizon) + 5)
	if len(fired) != 1 || fired[0] != want {
		t.Fatalf("fired %v, want exactly once at %d", fired, want)
	}
}

// TestRunUntilAcrossWindows pins RunUntil semantics with the calendar:
// deadlines inside empty stretches, between windows, and before queued
// far-future events leave the clock at the deadline with the events
// still pending.
func TestRunUntilAcrossWindows(t *testing.T) {
	e := NewEngine()
	var fired []Time
	at := func(t Time) { e.At(t, func() { fired = append(fired, t) }) }
	at(100)
	at(Time(horizon) + 50) // overflow at insert
	e.RunUntil(Time(horizon) / 2)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired %v before deadline, want [100]", fired)
	}
	if e.Now() != Time(horizon)/2 {
		t.Fatalf("clock %d, want deadline %d", e.Now(), Time(horizon)/2)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(2 * Time(horizon))
	if len(fired) != 2 || fired[1] != Time(horizon)+50 {
		t.Fatalf("fired %v after second deadline", fired)
	}
	if e.Now() != 2*Time(horizon) {
		t.Fatalf("clock %d, want %d", e.Now(), 2*Time(horizon))
	}
}

// TestEngineLayout pins the queue's footprint: a bucket is the two ends
// of its event list, so the ring's 256 headers are 4 KiB per engine, and
// an Event, which carries those links, still fits one 64-byte cache line.
func TestEngineLayout(t *testing.T) {
	if got := unsafe.Sizeof(bucket{}); got > 16 {
		t.Errorf("unsafe.Sizeof(bucket) = %d, limit 16", got)
	}
	if got := unsafe.Sizeof(Event{}); got > 64 {
		t.Errorf("unsafe.Sizeof(Event) = %d, limit 64", got)
	}
}
