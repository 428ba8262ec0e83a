package gam

import (
	"runtime"
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

func seqGen(base mem.VA, pages, n int, writeEvery int, seed uint64) func() (mem.VA, bool, bool) {
	rng := sim.NewRNG(seed, "gam-test")
	i := 0
	return func() (mem.VA, bool, bool) {
		if i >= n {
			return 0, false, false
		}
		i++
		va := base + mem.VA(rng.Intn(pages)*mem.PageSize)
		write := writeEvery > 0 && i%writeEvery == 0
		return va, write, true
	}
}

func TestGAMBasicRun(t *testing.T) {
	c := New(DefaultConfig(2, 1, 256))
	base, err := c.Alloc(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Spawn(i, seqGen(base, 128, 2000, 4, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	end := c.Run()
	if end == 0 {
		t.Fatal("no time elapsed")
	}
	col := c.Collector()
	if col.Counter(stats.CtrAccesses) != 4000 {
		t.Errorf("accesses = %d", col.Counter(stats.CtrAccesses))
	}
	if col.Counter(stats.CtrRemoteAccesses) == 0 {
		t.Error("expected remote accesses")
	}
	if col.Counter(stats.CtrInvalidations) == 0 {
		t.Error("expected invalidations under read-write sharing")
	}
}

func TestGAMSpawnValidation(t *testing.T) {
	c := New(DefaultConfig(2, 1, 64))
	if err := c.Spawn(5, nil); err == nil {
		t.Error("bad blade accepted")
	}
}

func TestGAMSoftwareOverheadLimitsScaling(t *testing.T) {
	// Throughput per thread must degrade markedly between 4 and 12
	// threads on one blade (lock serialization), unlike a fault-free
	// hardware path.
	perThread := func(threads int) float64 {
		c := New(DefaultConfig(1, 1, 4096))
		base, _ := c.Alloc(1 << 24)
		const ops = 5000
		for i := 0; i < threads; i++ {
			// Private pages: everything hits after warm-up, so the
			// software path dominates.
			lo := base + mem.VA(i*64*mem.PageSize)
			if err := c.Spawn(0, seqGen(lo, 64, ops, 0, uint64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		end := c.Run()
		return float64(threads*ops) / end.Sub(0).Seconds() / float64(threads)
	}
	p1 := perThread(1)
	p12 := perThread(12)
	if p12 > 0.7*p1 {
		t.Errorf("per-thread throughput at 12 threads (%.0f) should be well below 1 thread (%.0f)", p12, p1)
	}
}

func TestGAMLocalSlowerThanHardwarePath(t *testing.T) {
	// GAM's local access cost must be ~10x MIND's DRAM hit (§7.1).
	cfg := DefaultConfig(1, 1, 64)
	if cfg.LocalAccess < 8*(90*sim.Nanosecond) {
		t.Errorf("LocalAccess = %v, want ~10x 90ns", cfg.LocalAccess)
	}
}

func TestGAMCoherenceStates(t *testing.T) {
	// Two blades ping-pong writes on one page: each write must
	// invalidate the other's copy and flush dirty data.
	c := New(DefaultConfig(2, 1, 64))
	base, _ := c.Alloc(1 << 16)
	n0, n1 := 0, 0
	_ = c.Spawn(0, func() (mem.VA, bool, bool) {
		if n0 >= 20 {
			return 0, false, false
		}
		n0++
		return base, true, true
	})
	_ = c.Spawn(1, func() (mem.VA, bool, bool) {
		if n1 >= 20 {
			return 0, false, false
		}
		n1++
		return base, true, true
	})
	c.Run()
	col := c.Collector()
	if col.Counter(stats.CtrInvalidations) == 0 {
		t.Error("write ping-pong produced no invalidations")
	}
	if col.Counter(stats.CtrFlushedPages) == 0 {
		t.Error("no dirty flushes")
	}
}

// TestGAMReplayOrder stalls one PSO thread on purpose, both ways, several
// hundred times: with a one-entry store buffer and a cache too small to
// keep a page until its next use, every round of
//
//	W(a)  W(b)  R(b)
//
// issues W(a) asynchronously, stalls W(b) on the full store buffer, and —
// once W(b) is replayed and itself in flight — stalls R(b) on the pending
// write to its page; R(b)'s replay then hits the page W(b) installed. A
// lost, duplicated or reordered replay breaks one of the counter
// identities below; and since the stalled access waits in one slot of the
// thread, the run allocates the same whether it stalls 600 times or 1200.
func TestGAMReplayOrder(t *testing.T) {
	const (
		pages      = 64
		cachePages = 16
	)
	run := func(rounds int) (mallocs uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)

		cfg := DefaultConfig(2, 1, cachePages)
		cfg.StoreBufferDepth = 1
		c := New(cfg)
		base, _ := c.Alloc(pages * mem.PageSize)
		ops := 3 * rounds
		drawn := 0
		err := c.Spawn(0, func() (mem.VA, bool, bool) {
			// Every access handed out so far has executed, exactly once,
			// before the next one is drawn: a stalled access is not counted
			// until its replay, and nothing is drawn while one waits.
			if got := c.Collector().Counter(stats.CtrAccesses); got != uint64(drawn) {
				t.Fatalf("access %d drawn with %d executed", drawn, got)
			}
			if drawn == ops {
				return 0, false, false
			}
			round, pos := drawn/3, drawn%3
			drawn++
			a := base + mem.VA((2*round)%pages*mem.PageSize)
			b := base + mem.VA((2*round+1)%pages*mem.PageSize)
			switch pos {
			case 0:
				return a, true, true
			case 1:
				return b, true, true
			default:
				return b, false, true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run()
		runtime.ReadMemStats(&after)

		col := c.Collector()
		for _, want := range []struct {
			ctr string
			n   int
		}{
			{stats.CtrAccesses, ops},
			{stats.CtrRemoteAccesses, 2 * rounds}, // the writes: every one misses
			{stats.CtrLocalHits, rounds},          // the reads: every one waited for its page
			{stats.CtrEvictions, 2*rounds - cachePages},
			{stats.CtrWritebacks, 2*rounds - cachePages},
		} {
			if got := col.Counter(want.ctr); got != uint64(want.n) {
				t.Errorf("%d rounds: %s = %d, want %d", rounds, want.ctr, got, want.n)
			}
		}
		return after.Mallocs - before.Mallocs
	}
	const rounds = 300
	m1, m2 := run(rounds), run(2*rounds)
	t.Logf("mallocs: %d at %d stalls, %d at %d", m1, 2*rounds, m2, 4*rounds)
	if m2 > m1+32 {
		t.Errorf("mallocs grew with the stall count: %d at %d stalls, %d at %d", m1, 2*rounds, m2, 4*rounds)
	}
}
