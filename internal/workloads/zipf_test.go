package workloads

import (
	"slices"
	"sync"
	"testing"
	"time"

	"mind/internal/core"
	"mind/internal/mem"
)

// zipfWorkloads builds, fresh on every call, each workload that draws
// Zipf keys; NativeKVS's range depends on Params.Blades, so the callers
// below run it at two blade counts.
func zipfWorkloads() []Workload {
	return []Workload{GC(1), MemcachedA(1), MemcachedC(1), NativeKVS(0.5, 1)}
}

// stream is a generator's full output, one word per access.
func stream(g core.AccessGen) []uint64 {
	var out []uint64
	for {
		va, wr, ok := g()
		if !ok {
			return out
		}
		v := uint64(va) << 1
		if wr {
			v |= 1
		}
		out = append(out, v)
	}
}

func TestZipfsBuildsOncePerRange(t *testing.T) {
	z := &zipfs{theta: 0.9}
	const n = 1 << 20
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = z.over(n)
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != got[0] {
			t.Errorf("caller %d got its own distribution over the same range", i)
		}
	}
	if z.over(n/2) == z.over(n) {
		t.Error("two ranges share one distribution")
	}
}

// TestGenSharedMatchesFresh: thread generators taken from one Workload,
// which share its distribution, yield exactly the streams of generators
// taken from freshly constructed Workloads, which each build their own.
func TestGenSharedMatchesFresh(t *testing.T) {
	base := mem.VA(1) << 32
	for _, blades := range []int{2, 8} {
		p := Params{Threads: 16, Blades: blades, OpsPerThread: 600, Seed: 1021}
		for wi, shared := range zipfWorkloads() {
			for _, th := range []int{0, 5, 5, 15} {
				fresh := zipfWorkloads()[wi]
				if !slices.Equal(stream(shared.Gen(base, th, p)), stream(fresh.Gen(base, th, p))) {
					t.Errorf("%s blades=%d thread %d: shared and fresh Workload streams differ", shared.Name, blades, th)
				}
			}
		}
	}
}

// TestGenSharesDistribution: what makes Gen cheap is that only the first
// call on a Workload builds the distribution. 256 generators from one
// GC(4) must cost a small fraction of 256 generators that each come from
// a fresh GC(4); the ratio is ~100x, the test asks for 4x.
func TestGenSharesDistribution(t *testing.T) {
	p := Params{Threads: 256, Blades: 64, OpsPerThread: 1, Seed: 1}
	gens := func(w func() Workload) time.Duration {
		start := time.Now()
		for th := 0; th < p.Threads; th++ {
			w().Gen(1<<32, th, p)
		}
		return time.Since(start)
	}
	one := GC(4)
	var shared, fresh time.Duration
	for try := 0; try < 3; try++ { // a host stall must hit all three
		shared = gens(func() Workload { return one })
		fresh = gens(func() Workload { return GC(4) })
		if 4*shared < fresh {
			return
		}
	}
	t.Errorf("256 Gen calls on one Workload took %v, on fresh Workloads %v: the distribution is not shared", shared, fresh)
}

// TestGenConcurrent: parallel runner workers call Gen on one Workload
// value at once, the first of them while the distribution is still
// unbuilt. Each goroutine's stream must be the one a serial caller gets.
// CI runs this package under -race.
func TestGenConcurrent(t *testing.T) {
	base := mem.VA(1) << 32
	const threads = 8
	p := Params{Threads: threads, Blades: 4, OpsPerThread: 2000, Seed: 7}
	for wi, shared := range zipfWorkloads() {
		got := make([][]uint64, threads)
		var wg sync.WaitGroup
		for th := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[th] = stream(shared.Gen(base, th, p))
			}()
		}
		wg.Wait()
		serial := zipfWorkloads()[wi]
		for th := range got {
			if !slices.Equal(got[th], stream(serial.Gen(base, th, p))) {
				t.Errorf("%s thread %d: concurrent stream differs from serial", shared.Name, th)
			}
		}
	}
}

// TestFootprintIsFree: experiments construct workloads only to read
// their Footprint. That allocates the Gen closure and its empty zipfs,
// and must not build a distribution (one more allocation, and 1e4 Pow).
func TestFootprintIsFree(t *testing.T) {
	var sink uint64
	for _, w := range []func() Workload{
		func() Workload { return GC(1) },
		func() Workload { return MemcachedA(1) },
		func() Workload { return NativeKVS(0.5, 1) },
	} {
		if a := testing.AllocsPerRun(10, func() { sink += w().Footprint }); a > 2 {
			t.Errorf("%s: constructing for Footprint allocates %v times, want <= 2", w().Name, a)
		}
	}
	_ = sink
}

// BenchmarkGenConstruct is generator construction for rack_gc's shape:
// one GC(4) Workload, 256 threads.
func BenchmarkGenConstruct(b *testing.B) {
	p := Params{Threads: 256, Blades: 64, OpsPerThread: 1000, Seed: 1021}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := GC(4)
		for th := 0; th < p.Threads; th++ {
			w.Gen(1<<32, th, p)
		}
	}
}
