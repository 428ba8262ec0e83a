package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("final clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	// Events at identical timestamps must fire in scheduling order.
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d fired out of order (got %d)", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Schedule(12, func() { fired = append(fired, e.Now()) })
	e.Run()
	want := []Time{10, 12, 15}
	for i, w := range want {
		if fired[i] != w {
			t.Fatalf("fired=%v want=%v", fired, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(10, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("event not marked canceled")
	}
	// Double-cancel and cancel-nil must not panic.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []*Event
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, e.Schedule(Duration(i+1), func() { got = append(got, i) }))
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8: %v", len(got), got)
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Duration(i*10), func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Errorf("clock = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 200 {
		t.Errorf("clock = %d, want 200 (idle advance)", e.Now())
	}
}

func TestEnginePastEventClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		// Scheduling into the past must clamp to now, not rewind time.
		e.At(10, func() {
			if e.Now() != 100 {
				t.Errorf("past event ran at %d, want clamp to 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestEngineNegativeDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("negative-delay event did not run")
	}
}

func TestResourceSerialQueueing(t *testing.T) {
	r := NewResource(1)
	s1, e1 := r.Reserve(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first job: start=%d end=%d", s1, e1)
	}
	s2, e2 := r.Reserve(0, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second job queued wrong: start=%d end=%d", s2, e2)
	}
	// A job arriving after the backlog drains starts immediately.
	s3, e3 := r.Reserve(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("third job: start=%d end=%d", s3, e3)
	}
	served, busy, waited, maxWait := r.Stats()
	if served != 3 || busy != 25 || waited != 10 || maxWait != 10 {
		t.Errorf("stats: served=%d busy=%d waited=%d max=%d", served, busy, waited, maxWait)
	}
}

func TestResourceParallelSlots(t *testing.T) {
	r := NewResource(2)
	_, e1 := r.Reserve(0, 10)
	_, e2 := r.Reserve(0, 10)
	if e1 != 10 || e2 != 10 {
		t.Fatalf("two slots should serve in parallel: %d %d", e1, e2)
	}
	s3, _ := r.Reserve(0, 10)
	if s3 != 10 {
		t.Fatalf("third job should queue: start=%d", s3)
	}
}

// resourcePair runs a Resource beside the linear-min-scan reference it
// is pinned against: a plain slice of next-free times whose earliest
// entry every booking replaces. The returned (start, end) depend only on
// the multiset of next-free times, never on which slot served a job, so
// any exact multiset structure must agree with it on every reservation.
type resourcePair struct {
	r    *Resource
	ref  []Time
	step int

	served               uint64
	busy, waits, maxWait Duration
}

func newResourcePair(slots int) *resourcePair {
	return &resourcePair{r: NewResource(slots), ref: make([]Time, slots)}
}

// reserve books (at, d) on both sides and fails on any disagreement.
func (p *resourcePair) reserve(t *testing.T, at Time, d Duration) {
	t.Helper()
	gotS, gotE := p.r.Reserve(at, d)
	best := 0
	for j := 1; j < len(p.ref); j++ {
		if p.ref[j] < p.ref[best] {
			best = j
		}
	}
	wantS := max(at, p.ref[best])
	wantE := wantS.Add(d)
	p.ref[best] = wantE
	if gotS != wantS || gotE != wantE {
		t.Fatalf("slots=%d step %d: Reserve(%d, %d) = (%d, %d), reference (%d, %d)",
			len(p.ref), p.step, at, d, gotS, gotE, wantS, wantE)
	}
	p.step++
	wait := wantS.Sub(at)
	p.served++
	p.busy += d
	p.waits += wait
	p.maxWait = max(p.maxWait, wait)
}

// checkStats compares the Resource's accounting with the reference's.
func (p *resourcePair) checkStats(t *testing.T) {
	t.Helper()
	served, busy, waits, maxWait := p.r.Stats()
	if served != p.served || busy != p.busy || waits != p.waits || maxWait != p.maxWait {
		t.Fatalf("slots=%d: Stats() = (%d, %d, %d, %d), reference (%d, %d, %d, %d)",
			len(p.ref), served, busy, waits, maxWait, p.served, p.busy, p.waits, p.maxWait)
	}
}

// TestResourceEquivalence pins Reserve against the linear-min-scan
// reference: non-monotone arrival times (the fabric books pipelines at
// now, now+recirculation and NIC-arrival times interleaved), mixed
// service durations, and bursts far below the latest booking, whose ends
// land deep inside the slot order rather than after its maximum.
func TestResourceEquivalence(t *testing.T) {
	for _, slots := range []int{1, 2, 3, 4, 7, 32} {
		p := newResourcePair(slots)
		rng := NewRNG(42, "resource-heap")
		var at Time
		for i := 0; i < 5000; i++ {
			// Arrival times drift forward but routinely step back below
			// earlier bookings.
			at = at.Add(Duration(rng.Uint64n(40))).Add(-Duration(rng.Uint64n(30)))
			if at < 0 {
				at = 0
			}
			p.reserve(t, at, Duration(1+rng.Uint64n(50)))
			if i%97 == 96 {
				low := at.Add(-Duration(500 + rng.Uint64n(2000)))
				for b := 0; b < 2*slots; b++ {
					p.reserve(t, low.Add(Duration(rng.Uint64n(20))), Duration(1+rng.Uint64n(10)))
				}
			}
		}
		p.checkStats(t)
	}
}

// FuzzResource reads a byte string as a slot count followed by (signed
// arrival step, duration) pairs and holds Reserve to the reference.
func FuzzResource(f *testing.F) {
	f.Add([]byte{5, 10, 40, 10, 40, 0x80, 3, 0x80, 3, 0x80, 3, 20, 7})
	f.Add([]byte{2, 1, 200, 1, 200, 1, 200, 0xf0, 1, 0xf0, 1, 0xf0, 1, 0xf0, 1})
	f.Add([]byte{0, 5, 5, 0xfb, 9, 5, 0})
	rng := NewRNG(7, "fuzz-resource")
	for _, slots := range []byte{1, 3, 4, 5} {
		ops := []byte{slots}
		for i := 0; i < 200; i++ {
			ops = append(ops, byte(rng.Uint64()), byte(rng.Uint64n(64)))
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		p := newResourcePair([]int{1, 2, 3, 4, 7, 32}[int(ops[0])%6])
		var at Time
		for i := 1; i+1 < len(ops); i += 2 {
			at = at.Add(Duration(int8(ops[i])) * 8)
			p.reserve(t, at, Duration(ops[i+1]))
		}
		p.checkStats(t)
	})
}

// TestResourceReserveZeroAlloc pins Reserve allocation-free at every
// slot count the simulator uses (a NIC lane, a GAM node's cores, a
// switch pipeline), for bookings after and far below the latest end.
func TestResourceReserveZeroAlloc(t *testing.T) {
	for _, slots := range []int{1, 4, 32} {
		r := NewResource(slots)
		var at Time
		if avg := testing.AllocsPerRun(1000, func() {
			at += 10
			r.Reserve(at, 25)
			r.Reserve(at-400, 3)
		}); avg != 0 {
			t.Errorf("slots=%d: Reserve allocates %v/op, want 0", slots, avg)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7, "blade-0")
	b := NewRNG(7, "blade-0")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, tag) produced different streams")
		}
	}
	c := NewRNG(7, "blade-1")
	same := 0
	a = NewRNG(7, "blade-0")
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different tags produced %d/1000 identical values", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1, "t")
	f := func(n uint16) bool {
		nn := int(n%1000) + 1
		v := r.Intn(nn)
		return v >= 0 && v < nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3, "f")
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(4, "b")
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	// Rough proportion check.
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 28000 || hits > 32000 {
		t.Errorf("Bool(0.3) hit %d/100000, want ~30000", hits)
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	r := NewRNG(5, "z")
	const n = 1000
	z := NewZipfDist(n, 0.99).Sampler(r)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Key 0 must be the hottest by a wide margin under theta=0.99.
	if counts[0] < counts[n/2]*10 {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[mid]=%d", counts[0], counts[n/2])
	}
}

func TestZipfLargeRange(t *testing.T) {
	r := NewRNG(6, "z2")
	z := NewZipfDist(10_000_000, 0.99).Sampler(r)
	for i := 0; i < 1000; i++ {
		if v := z.Next(); v >= 10_000_000 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	d := 1500 * Nanosecond
	if d.Micros() != 1.5 {
		t.Errorf("Micros = %v", d.Micros())
	}
	if (2 * Second).Seconds() != 2 {
		t.Errorf("Seconds = %v", (2 * Second).Seconds())
	}
	tm := Time(100).Add(50)
	if tm != 150 {
		t.Errorf("Add = %v", tm)
	}
	if tm.Sub(100) != 50 {
		t.Errorf("Sub = %v", tm.Sub(100))
	}
}

// The engine must tolerate heavy churn: schedule/cancel interleavings keep
// heap indices consistent.
func TestEngineHeapChurnProperty(t *testing.T) {
	rng := NewRNG(99, "churn")
	e := NewEngine()
	live := map[*Event]bool{}
	fired := 0
	for i := 0; i < 5000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			ev := e.Schedule(Duration(rng.Intn(1000)), func() { fired++ })
			live[ev] = true
		case 2:
			for ev := range live {
				e.Cancel(ev)
				delete(live, ev)
				break
			}
		}
	}
	e.Run()
	if fired == 0 {
		t.Error("nothing fired")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after Run", e.Pending())
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i%1000), func() {})
		if e.Pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}
