package sim

import (
	"fmt"
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 seeded xorshift128+). Every simulated component that needs
// randomness derives its own RNG from the run seed plus a component tag so
// results are independent of event interleaving.
type RNG struct {
	s0, s1 uint64
}

// splitmix64 expands a seed into well-distributed state words.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives an independent child seed from a
// root seed and a tag. Parallel experiment runs each derive their own
// seed from the run's root seed plus a per-run tag, so every run's
// random streams are fixed by spec content alone — never by which worker
// executes it or in what order.
func DeriveSeed(root uint64, tag string) uint64 {
	x := root
	for _, c := range []byte(tag) {
		x = x*131 + uint64(c)
	}
	return splitmix64(&x)
}

// NewRNG returns a generator seeded from seed and a component tag. The same
// (seed, tag) pair always yields the same stream.
func NewRNG(seed uint64, tag string) *RNG {
	x := seed
	for _, c := range []byte(tag) {
		x = x*131 + uint64(c)
	}
	r := &RNG{}
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ZipfDist is a bounded Zipf-like distribution over [0, n) with skew
// theta in [0, 1), sampled with the standard YCSB-style rejection-free
// inverse-method approximation; theta = 0 degenerates to uniform. It is
// immutable once built and safe to share between goroutines: build it
// once per (n, theta), then take one Sampler per random stream.
type ZipfDist struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	rank1 float64 // 0.5^theta: the mass of rank 1 relative to rank 0
}

// zetaExact is the range size up to which zeta sums term by term.
const zetaExact = 10000

// NewZipfDist builds the distribution over [0, n) with parameter theta
// (commonly 0.99 for YCSB). Building costs min(n, zetaExact) math.Pow
// calls, about half a millisecond from n = 1e4 up; drawing from it is
// O(1). The arguments are code constants, not user input, so a value the
// method is not defined for panics: n == 0, or theta outside [0, 1)
// (theta = 1 would make alpha infinite and eta 0, sending every draw past
// the first two ranks to n-1).
func NewZipfDist(n uint64, theta float64) *ZipfDist {
	if n == 0 {
		panic("sim: Zipf over empty range")
	}
	if !(theta >= 0 && theta < 1) {
		panic(fmt.Sprintf("sim: Zipf theta %v outside [0, 1) (n = %d)", theta, n))
	}
	d := &ZipfDist{n: n}
	d.zetan = zeta(n, theta)
	d.alpha = 1.0 / (1.0 - theta)
	d.rank1 = powF(0.5, theta)
	// For n <= 2 ranks 0 and 1 carry all the mass and the formula for eta
	// is 0/0 at n = 2. eta stays 0 there: should rounding in u*zetan ever
	// carry a draw past both rank tests, Next clamps it to n-1, which is
	// the rank it belongs to.
	if n > 2 {
		d.eta = (1 - powF(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/d.zetan)
	}
	return d
}

// zeta returns the generalized harmonic number sum_{i=1..n} i^-theta:
// term by term up to zetaExact, then the integral of x^-theta for the
// tail, so that its cost is bounded by zetaExact math.Pow calls whatever
// the range size. theta < 1 (NewZipfDist checks).
func zeta(n uint64, theta float64) float64 {
	if n <= zetaExact {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1.0 / powF(float64(i), theta)
		}
		return sum
	}
	sum := zeta(zetaExact, theta)
	a := float64(zetaExact)
	b := float64(n)
	return sum + (powF(b, 1-theta)-powF(a, 1-theta))/(1-theta)
}

func powF(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// Zipf draws from a ZipfDist with one RNG stream.
type Zipf struct {
	d   *ZipfDist
	rng *RNG
}

// Sampler returns a sampler that draws from d using rng. It is O(1) and
// does not touch d, so any number of samplers can share one distribution.
func (d *ZipfDist) Sampler(rng *RNG) *Zipf {
	return &Zipf{d: d, rng: rng}
}

// Next draws the next Zipf value in [0, n).
func (z *Zipf) Next() uint64 {
	d := z.d
	u := z.rng.Float64()
	uz := u * d.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+d.rank1 {
		return 1
	}
	v := uint64(float64(d.n) * powF(d.eta*u-d.eta+1, d.alpha))
	if v >= d.n {
		v = d.n - 1
	}
	return v
}
