package workloads

import (
	"math"

	"mind/internal/mem"
	"mind/internal/sim"
)

// ArrivalProcess generates open-loop inter-arrival gaps: the serving
// layer asks for the next gap at each arrival and schedules the
// successor as an engine event, independent of service completion.
// That independence is the open-loop property — offered load does not
// back off when the system saturates, so queues (and tail latency)
// grow without bound past the knee, unlike the closed-loop Thread
// model where each op waits for the previous one.
//
// Implementations must be deterministic functions of their seed and
// the virtual times they are called with.
type ArrivalProcess interface {
	// Next returns the gap until the next arrival after one at now.
	// The returned duration is always >= 1 ns so arrival chains make
	// progress.
	Next(now sim.Time) sim.Duration
}

// Degenerate-parameter policy: a rate or dwell that is non-positive or
// not finite (NaN, ±Inf — which would sail through a plain `<= 0`
// check and wedge the arrival chain in NaN arithmetic or zero-length
// gaps) is clamped rather than rejected, so a mis-scaled tenant spec
// degrades to a trickle instead of hanging the simulation:
//
//   - rates clamp to [1, 1e9] arrivals/sec (the upper bound matches
//     the 1 ns gap floor — one arrival per simulated nanosecond);
//   - dwell times clamp to [1e-9, 1e9] seconds;
//   - NaN takes the documented floor (1/s, 1e-9 s).
const (
	minRatePerSec = 1.0
	maxRatePerSec = 1e9
	minDwellSec   = 1e-9
	maxDwellSec   = 1e9
)

// clampRate applies the documented arrival-rate floor and ceiling.
func clampRate(ratePerSec float64) float64 {
	if math.IsNaN(ratePerSec) || ratePerSec < minRatePerSec {
		return minRatePerSec
	}
	if ratePerSec > maxRatePerSec {
		return maxRatePerSec
	}
	return ratePerSec
}

// clampDwell applies the documented dwell-time floor and ceiling.
func clampDwell(dwellSec float64) float64 {
	if math.IsNaN(dwellSec) || dwellSec < minDwellSec {
		return minDwellSec
	}
	if dwellSec > maxDwellSec {
		return maxDwellSec
	}
	return dwellSec
}

// expGap samples an exponential inter-arrival gap for the given rate
// (arrivals per second). Inverse-CDF with the RNG's Float64 keeps the
// stream a pure function of the seed.
func expGap(rng *sim.RNG, ratePerSec float64) sim.Duration {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	gap := -math.Log(u) / ratePerSec // seconds
	d := sim.Duration(gap * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// Poisson is a constant-rate memoryless arrival process — the baseline
// open-loop tenant.
type Poisson struct {
	rng  *sim.RNG
	rate float64
}

// NewPoisson builds a Poisson process at ratePerSec arrivals/second
// (clamped to the documented [1, 1e9] band).
func NewPoisson(seed uint64, tag string, ratePerSec float64) *Poisson {
	return &Poisson{rng: sim.NewRNG(seed, "poisson/"+tag), rate: clampRate(ratePerSec)}
}

// Next returns an exponential gap at the fixed rate.
func (p *Poisson) Next(now sim.Time) sim.Duration { return expGap(p.rng, p.rate) }

// MMPP is a two-state Markov-modulated Poisson process: a quiet state
// and a burst state, each with its own arrival rate, switching after
// exponentially distributed dwell times. This is the standard bursty-
// traffic model — bursts arrive at burstRate regardless of whether the
// quiet-state queue has drained.
//
// Sampling is exact across state switches: the gap is accumulated
// piecewise, consuming the remaining dwell in the current state before
// re-drawing in the next, so the process is memoryless within states
// and the switch times never quantize arrivals.
type MMPP struct {
	rng        *sim.RNG
	rate       [2]float64 // arrivals/sec per state
	meanDwell  [2]float64 // seconds per state
	state      int
	dwellLeft  float64 // seconds remaining in current state
	dwellDrawn bool
}

// NewMMPP builds a two-state MMPP. quietRate/burstRate are arrivals
// per second (clamped to [1, 1e9]); quietDwell/burstDwell are mean
// state-dwell times in seconds (clamped to [1e-9, 1e9]). Each state's
// dwell is additionally floored so the state expects at least 1e-3
// arrivals per dwell: Next's piecewise sampler runs one iteration per
// state switch, so without this floor a degenerate pair like
// (rate floor 1/s, dwell floor 1e-9 s) would take ~1e9 switches per
// gap — a wedge in all but name. Real configurations sit far above
// the floor and are unaffected.
func NewMMPP(seed uint64, tag string, quietRate, burstRate, quietDwell, burstDwell float64) *MMPP {
	rq, rb := clampRate(quietRate), clampRate(burstRate)
	dq, db := clampDwell(quietDwell), clampDwell(burstDwell)
	const minArrivalsPerDwell = 1e-3
	if dq*rq < minArrivalsPerDwell {
		dq = minArrivalsPerDwell / rq
	}
	if db*rb < minArrivalsPerDwell {
		db = minArrivalsPerDwell / rb
	}
	return &MMPP{
		rng:       sim.NewRNG(seed, "mmpp/"+tag),
		rate:      [2]float64{rq, rb},
		meanDwell: [2]float64{dq, db},
	}
}

func (m *MMPP) expSec(mean float64) float64 {
	u := m.rng.Float64()
	for u == 0 {
		u = m.rng.Float64()
	}
	return -math.Log(u) * mean
}

// Next accumulates the gap piecewise across state switches.
func (m *MMPP) Next(now sim.Time) sim.Duration {
	var gap float64 // seconds
	for {
		if !m.dwellDrawn {
			m.dwellLeft = m.expSec(m.meanDwell[m.state])
			m.dwellDrawn = true
		}
		// Candidate arrival gap at the current state's rate.
		g := m.expSec(1 / m.rate[m.state])
		if g <= m.dwellLeft {
			m.dwellLeft -= g
			gap += g
			d := sim.Duration(gap * float64(sim.Second))
			if d < 1 {
				d = 1
			}
			return d
		}
		// State switches before the candidate arrival; by memorylessness
		// discard it, consume the dwell, and re-draw in the next state.
		gap += m.dwellLeft
		m.state = 1 - m.state
		m.dwellDrawn = false
	}
}

// Diurnal modulates a Poisson process with a sinusoidal rate curve
// (period = one virtual "day"), via thinning against the peak rate:
// candidate arrivals are drawn at peakRate and accepted with
// probability rate(t)/peakRate, which yields an exact inhomogeneous
// Poisson process without numeric integration.
type Diurnal struct {
	rng      *sim.RNG
	baseRate float64 // trough-to-peak midpoint, arrivals/sec
	swing    float64 // amplitude as a fraction of baseRate, in [0,1)
	period   sim.Duration
}

// NewDiurnal builds a diurnal process oscillating around basePerSec
// (clamped to [1, 1e9]) with relative amplitude swing (0 = flat,
// 0.9 = near-silent troughs; NaN flattens to 0) and the given period.
func NewDiurnal(seed uint64, tag string, basePerSec, swing float64, period sim.Duration) *Diurnal {
	basePerSec = clampRate(basePerSec)
	if math.IsNaN(swing) || swing < 0 {
		swing = 0
	}
	if swing > 0.95 {
		swing = 0.95
	}
	if period <= 0 {
		period = sim.Second
	}
	return &Diurnal{
		rng:      sim.NewRNG(seed, "diurnal/"+tag),
		baseRate: basePerSec,
		swing:    swing,
		period:   period,
	}
}

// rateAt returns the instantaneous rate at virtual time t.
func (d *Diurnal) rateAt(t sim.Time) float64 {
	phase := 2 * math.Pi * float64(sim.Time(sim.Duration(t)%d.period)) / float64(d.period)
	return d.baseRate * (1 + d.swing*math.Sin(phase))
}

// Next thins candidates drawn at the peak rate.
func (d *Diurnal) Next(now sim.Time) sim.Duration {
	peak := d.baseRate * (1 + d.swing)
	t := now
	for {
		g := expGap(d.rng, peak)
		t += sim.Time(g)
		if d.rng.Float64()*peak <= d.rateAt(t) {
			gap := sim.Duration(t - now)
			if gap < 1 {
				gap = 1
			}
			return gap
		}
	}
}

// requestStream adapts a closed-loop Workload generator into an
// endless per-tenant op source for the serving layer: each call to the
// returned generator yields the next (va, write) op of the tenant's
// access pattern, cycling the underlying pattern indefinitely. The
// serving layer consumes one op per admitted request.
func requestStream(w Workload, base mem.VA, thread int, p Params) func() (mem.VA, bool) {
	// Build with an effectively unbounded op budget; the arrival
	// horizon, not an op count, ends a serving run.
	p.OpsPerThread = math.MaxInt32
	gen := w.Gen(base, thread, p)
	return func() (mem.VA, bool) {
		va, wr, ok := gen()
		if !ok {
			// Pattern exhausted (cannot happen before ~2^31 ops); restart.
			gen = w.Gen(base, thread, p)
			va, wr, _ = gen()
		}
		return va, wr
	}
}

// RequestStreamIn is requestStream folded into the tenant's mapped
// window [base, base+bytes): a generated VA past the window wraps
// modulo the window length. Serving tenants map their placement share
// of the workload, not the workload's whole footprint, and an access
// outside the mapping is a data-plane permission rejection (EACCES at
// the switch) — a request failure, not service. Folding keeps the
// generator's draw sequence (and so the whole event schedule)
// deterministic while modeling a tenant whose working set is its
// share. When bytes covers the workload footprint the fold is the
// identity and the stream equals requestStream's.
func RequestStreamIn(w Workload, base mem.VA, bytes uint64, thread int, p Params) func() (mem.VA, bool) {
	next := requestStream(w, base, thread, p)
	if bytes == 0 || bytes >= w.Footprint {
		return next
	}
	return func() (mem.VA, bool) {
		va, wr := next()
		if off := uint64(va - base); off >= bytes {
			va = base + mem.VA(off%bytes)
		}
		return va, wr
	}
}
