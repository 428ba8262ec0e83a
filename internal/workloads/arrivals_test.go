package workloads

import (
	"math"
	"testing"

	"mind/internal/sim"
)

// drain pulls n gaps from a process, tracking virtual time the way the
// serving layer does.
func drainGaps(p ArrivalProcess, n int) (gaps []sim.Duration) {
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		g := p.Next(now)
		gaps = append(gaps, g)
		now += sim.Time(g)
	}
	return gaps
}

func meanGap(gaps []sim.Duration) float64 {
	var sum float64
	for _, g := range gaps {
		sum += float64(g)
	}
	return sum / float64(len(gaps))
}

// TestPoissonRate: the empirical mean inter-arrival gap must be within
// 10% of 1/rate.
func TestPoissonRate(t *testing.T) {
	const rate = 10000.0 // arrivals/sec
	gaps := drainGaps(NewPoisson(1, "t", rate), 20000)
	want := float64(sim.Second) / rate
	got := meanGap(gaps)
	if got < 0.9*want || got > 1.1*want {
		t.Errorf("mean gap = %.0f ns, want ~%.0f ns", got, want)
	}
	for _, g := range gaps {
		if g < 1 {
			t.Fatal("gap must be >= 1 ns")
		}
	}
}

// TestMMPPRateBetweenStates: the long-run MMPP rate must sit strictly
// between the quiet and burst rates, and bursts must actually occur
// (some gaps near the burst-rate scale).
func TestMMPPRateBetweenStates(t *testing.T) {
	const quiet, burst = 1000.0, 50000.0
	gaps := drainGaps(NewMMPP(2, "t", quiet, burst, 0.01, 0.005), 30000)
	mean := meanGap(gaps)
	quietGap := float64(sim.Second) / quiet
	burstGap := float64(sim.Second) / burst
	if mean <= burstGap || mean >= quietGap {
		t.Errorf("mean gap %.0f ns not between burst %.0f and quiet %.0f", mean, burstGap, quietGap)
	}
	short := 0
	for _, g := range gaps {
		if float64(g) < 3*burstGap {
			short++
		}
	}
	if short < len(gaps)/10 {
		t.Errorf("only %d/%d gaps at burst scale; bursts not occurring", short, len(gaps))
	}
}

// TestDiurnalModulation: arrivals must be denser near the rate peak
// than near the trough.
func TestDiurnalModulation(t *testing.T) {
	const base = 20000.0
	period := 10 * sim.Millisecond
	d := NewDiurnal(3, "t", base, 0.9, period)
	// Count arrivals per period-quarter over many periods. The sine
	// peaks in the first quarter (phase pi/2) and troughs in the third.
	counts := [4]int{}
	now := sim.Time(0)
	horizon := sim.Time(200 * period)
	for now < horizon {
		g := d.Next(now)
		now += sim.Time(g)
		quarter := int((sim.Duration(now) % period) * 4 / period)
		if quarter > 3 {
			quarter = 3
		}
		counts[quarter]++
	}
	if counts[0] <= 2*counts[2] {
		t.Errorf("peak quarter %d not >> trough quarter %d (counts %v)", counts[0], counts[2], counts)
	}
}

// TestArrivalDeterminism: same seed, same sequence — across all three
// process types.
func TestArrivalDeterminism(t *testing.T) {
	build := func() []ArrivalProcess {
		return []ArrivalProcess{
			NewPoisson(11, "d", 5000),
			NewMMPP(12, "d", 1000, 20000, 0.01, 0.002),
			NewDiurnal(13, "d", 8000, 0.8, 5*sim.Millisecond),
		}
	}
	a, b := build(), build()
	for i := range a {
		ga, gb := drainGaps(a[i], 5000), drainGaps(b[i], 5000)
		for j := range ga {
			if ga[j] != gb[j] {
				t.Fatalf("process %d diverges at gap %d: %d vs %d", i, j, ga[j], gb[j])
			}
		}
	}
}

// TestRequestStreamEndless: the stream must keep producing ops past
// any closed-loop cap and stay deterministic.
func TestRequestStreamEndless(t *testing.T) {
	p := Params{Threads: 2, Blades: 2, Seed: 99}
	s1 := requestStream(MemcachedA(1), 0, 0, p)
	s2 := requestStream(MemcachedA(1), 0, 0, p)
	for i := 0; i < 10000; i++ {
		va1, wr1 := s1()
		va2, wr2 := s2()
		if va1 != va2 || wr1 != wr2 {
			t.Fatalf("stream diverges at op %d", i)
		}
	}
}

// TestArrivalDegenerateParams pins the clamp policy: zero, negative,
// NaN, and ±Inf rates/dwells must all yield processes that make
// progress and terminate (no zero gaps, no wedged NaN arithmetic). A
// NaN dwell formerly spun NewMMPP's Next forever because every NaN
// comparison is false.
func TestArrivalDegenerateParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	procs := map[string]ArrivalProcess{
		"poisson-zero": NewPoisson(1, "z", 0),
		"poisson-neg":  NewPoisson(1, "n", -500),
		"poisson-nan":  NewPoisson(1, "na", nan),
		"poisson-inf":  NewPoisson(1, "i", inf),
		"mmpp-zero":    NewMMPP(2, "z", 0, 0, 0, 0),
		"mmpp-neg":     NewMMPP(2, "n", -1, -1, -1, -1),
		"mmpp-nan":     NewMMPP(2, "na", nan, nan, nan, nan),
		"mmpp-inf":     NewMMPP(2, "i", inf, inf, inf, inf),
		"diurnal-zero": NewDiurnal(3, "z", 0, 0.5, sim.Millisecond),
		"diurnal-nan":  NewDiurnal(3, "na", nan, nan, 0),
		"diurnal-inf":  NewDiurnal(3, "i", inf, inf, -sim.Second),
	}
	for name, p := range procs {
		gaps := drainGaps(p, 200)
		for i, g := range gaps {
			if g < 1 {
				t.Errorf("%s: gap %d = %d, want >= 1 ns", name, i, g)
				break
			}
		}
	}
	// Floor and ceiling are the documented band: a zero-rate Poisson
	// trickles at ~1/s, an Inf-rate one runs at ~1e9/s (1 ns gaps).
	if m := meanGap(drainGaps(NewPoisson(4, "floor", 0), 500)); m < 0.5*float64(sim.Second) {
		t.Errorf("zero rate should clamp to the 1/s floor (mean gap %.0f ns)", m)
	}
	if m := meanGap(drainGaps(NewPoisson(4, "ceil", inf), 500)); m > 10 {
		t.Errorf("Inf rate should clamp to the 1e9/s ceiling (mean gap %.2f ns)", m)
	}
}

// FuzzArrivals holds the three arrival processes to their contract under
// any parameters, degenerate ones included: every gap is at least 1 ns,
// a second process from the same seed replays the same gaps, and 10 000
// draws finish (a hang shows as a fuzz timeout; -short draws 1 000, as
// the floor-rate MMPP seeds take ~0.8 s each). kind%3 picks Poisson
// (rate a), MMPP (rates a and b, dwells c and d, in seconds) or Diurnal
// (base rate a, swing b, period).
func FuzzArrivals(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	ms, s := int64(sim.Millisecond), int64(sim.Second)
	// TestArrivalDegenerateParams' table, plus -Inf.
	for _, c := range []struct {
		kind       uint8
		seed       uint64
		a, b, c, d float64
		period     int64
	}{
		{0, 1, 0, 0, 0, 0, 0},
		{0, 1, -500, 0, 0, 0, 0},
		{0, 1, nan, 0, 0, 0, 0},
		{0, 1, inf, 0, 0, 0, 0},
		{0, 1, -inf, 0, 0, 0, 0},
		{1, 2, 0, 0, 0, 0, 0},
		{1, 2, -1, -1, -1, -1, 0},
		{1, 2, nan, nan, nan, nan, 0},
		{1, 2, inf, inf, inf, inf, 0},
		{1, 2, -inf, inf, -inf, nan, 0},
		{2, 3, 0, 0.5, 0, 0, ms},
		{2, 3, nan, nan, 0, 0, 0},
		{2, 3, inf, inf, 0, 0, -s},
		{2, 3, -inf, -inf, 0, 0, 1},
	} {
		f.Add(c.kind, c.seed, c.a, c.b, c.c, c.d, c.period)
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, a, b, c, d float64, period int64) {
		mk := func() ArrivalProcess {
			switch kind % 3 {
			case 0:
				return NewPoisson(seed, "fuzz", a)
			case 1:
				return NewMMPP(seed, "fuzz", a, b, c, d)
			default:
				return NewDiurnal(seed, "fuzz", a, b, sim.Duration(period))
			}
		}
		draws := 10_000
		if testing.Short() {
			draws = 1_000
		}
		p, replay := mk(), mk()
		now := sim.Time(0)
		for i := 0; i < draws; i++ {
			g := p.Next(now)
			if g < 1 {
				t.Fatalf("draw %d at %d: gap %d, want >= 1 ns", i, now, g)
			}
			if h := replay.Next(now); h != g {
				t.Fatalf("draw %d at %d: gap %d, replay from the same seed %d", i, now, g, h)
			}
			now += sim.Time(g)
		}
	})
}
