package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// TestZipfDrawsPinned pins the first 4096 draws for every (n, theta) the
// workloads package builds: GC over its vertex pages, memcached over its
// item pages and NativeKVS over one of 8 partitions, at scale 1 and 4
// (n is bytes: pages x 4096). The hashes were captured at the commit
// before the distribution/sampler split (56cba5c), so a change to the
// arithmetic or its order — and with it to every simulated output — fails
// here first.
func TestZipfDrawsPinned(t *testing.T) {
	const page = 4096
	for _, c := range []struct {
		name  string
		n     uint64
		theta float64
		want  uint64
	}{
		{"GC/s1", page * 2048, 0.95, 0xd924ec5048751133},
		{"GC/s4", page * 2048 * 4, 0.95, 0xb4408392ad9fdb3f},
		{"memcached/s1", page * 4096, 0.99, 0x303773bef8dd1fec},
		{"memcached/s4", page * 4096 * 4, 0.99, 0xa346e3ce718d63ee},
		{"NativeKVS8/s1", page * 4096 / 8, 0.99, 0xc0a5e7cb868bef8a},
		{"NativeKVS8/s4", page * 4096 * 4 / 8, 0.99, 0x808d467ab65d4844},
	} {
		z := NewZipfDist(c.n, c.theta).Sampler(NewRNG(1021, "zipf-pin"))
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 4096; i++ {
			binary.LittleEndian.PutUint64(b[:], z.Next())
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s (n=%d theta=%v): draw hash %#016x, want %#016x", c.name, c.n, c.theta, got, c.want)
		}
	}
}

// TestZipfSamplersShareDist: samplers over one shared distribution draw
// what samplers over a distribution of their own draw from the same RNG
// streams.
func TestZipfSamplersShareDist(t *testing.T) {
	d := NewZipfDist(1<<23, 0.95)
	for _, tag := range []string{"a", "b"} {
		shared := d.Sampler(NewRNG(9, tag))
		fresh := NewZipfDist(1<<23, 0.95).Sampler(NewRNG(9, tag))
		for i := 0; i < 1000; i++ {
			if s, f := shared.Next(), fresh.Next(); s != f {
				t.Fatalf("stream %q draw %d: shared %d, fresh %d", tag, i, s, f)
			}
		}
	}
}

func TestZipfRejectsBadArguments(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		theta float64
		msg   string
	}{
		{0, 0.5, "empty range"},
		{100, 1, "theta 1 outside [0, 1) (n = 100)"},
		{100, 1.5, "theta 1.5 outside"},
		{100, -0.1, "theta -0.1 outside"},
		{100, math.NaN(), "theta NaN outside"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.msg) {
					t.Errorf("NewZipfDist(%d, %v): recovered %v, want a panic containing %q", c.n, c.theta, r, c.msg)
				}
			}()
			NewZipfDist(c.n, c.theta)
		}()
	}
}

// checkZipf asserts the two properties every valid (n, theta) must have:
// finite distribution fields and draws inside [0, n).
func checkZipf(t *testing.T, seed, n uint64, theta float64, draws int) {
	t.Helper()
	d := NewZipfDist(n, theta)
	for name, f := range map[string]float64{"alpha": d.alpha, "zetan": d.zetan, "eta": d.eta, "rank1": d.rank1} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("n=%d theta=%v: %s = %v", n, theta, name, f)
		}
	}
	z := d.Sampler(NewRNG(seed, "zipf-check"))
	for i := 0; i < draws; i++ {
		if v := z.Next(); v >= n {
			t.Fatalf("n=%d theta=%v: draw %d = %d, outside [0, n)", n, theta, i, v)
		}
	}
}

// TestZipfSmallRanges: n <= 2 is exact — only the ranks that exist, both
// of them at n = 2 — and theta = 0 spreads evenly.
func TestZipfSmallRanges(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.99} {
		checkZipf(t, 1, 1, theta, 1000)
		checkZipf(t, 1, 2, theta, 1000)
		checkZipf(t, 1, 3, theta, 1000)
		z := NewZipfDist(2, theta).Sampler(NewRNG(2, "two"))
		var seen [2]int
		for i := 0; i < 1000; i++ {
			seen[z.Next()]++
		}
		if seen[0] == 0 || seen[1] == 0 || seen[0] < seen[1]-100 {
			t.Errorf("n=2 theta=%v: rank counts %v", theta, seen)
		}
	}
	z := NewZipfDist(10, 0).Sampler(NewRNG(3, "uniform"))
	var seen [10]int
	for i := 0; i < 10000; i++ {
		seen[z.Next()]++
	}
	for r, c := range seen {
		if c < 800 || c > 1200 {
			t.Errorf("theta=0 n=10: rank %d drawn %d/10000 times, want ~1000", r, c)
		}
	}
}

// FuzzZipf: for any seed, n >= 1 and theta in [0, 1), every distribution
// field is finite and every draw is in [0, n). The seeds sit on both
// sides of the n <= 2 and zetaExact edges and at the largest range a
// workload could ask for.
func FuzzZipf(f *testing.F) {
	for _, n := range []uint64{1, 2, 3, 10000, 10001, 1 << 33} {
		f.Add(uint64(1021), n, 0.99)
	}
	f.Add(uint64(7), uint64(1<<23), 0.0)
	f.Add(uint64(7), uint64(1<<23), math.Nextafter(1, 0))
	f.Fuzz(func(t *testing.T, seed, n uint64, theta float64) {
		if n == 0 || !(theta >= 0 && theta < 1) {
			t.Skip("outside the constructor's domain")
		}
		checkZipf(t, seed, n, theta, 256)
	})
}

// TestZipfSamplerAllocs: taking a sampler from a built distribution is
// one small allocation at most, and drawing allocates nothing.
func TestZipfSamplerAllocs(t *testing.T) {
	d := NewZipfDist(1<<25, 0.95)
	rng := NewRNG(1, "allocs")
	var sink uint64
	if a := testing.AllocsPerRun(100, func() { sink += d.Sampler(rng).Next() }); a > 1 {
		t.Errorf("Sampler+Next allocates %v times, want <= 1", a)
	}
	z := d.Sampler(rng)
	if a := testing.AllocsPerRun(100, func() { sink += z.Next() }); a != 0 {
		t.Errorf("Next allocates %v times, want 0", a)
	}
	_ = sink
}

var zipfSink uint64

// BenchmarkZipfSampler takes a sampler from a built distribution and
// draws once. The two range sizes show that neither step depends on n.
func BenchmarkZipfSampler(b *testing.B) {
	for _, n := range []uint64{1e4, 1 << 33} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := NewZipfDist(n, 0.99)
			rng := NewRNG(1, "bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				zipfSink += d.Sampler(rng).Next()
			}
		})
	}
}

// BenchmarkZipfDistBuild is the cost a Sampler no longer pays: what every
// thread's generator paid before distributions were shared per Workload.
func BenchmarkZipfDistBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		zipfSink += NewZipfDist(1<<25, 0.95).n
	}
}
