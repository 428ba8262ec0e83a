package core

import (
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
)

// accessPinRun starts n threads round-robin over the rack's compute
// blades, each drawing ops accesses over one shared vma of pages pages
// from gen, and pins what the run leaves behind.
func accessPinRun(t *testing.T, cfg Config, n, pages, ops int, gen func(rng *sim.RNG, base mem.VA) AccessGen) string {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Engine().EnableDispatchHash()
	p := c.Exec("app")
	vma, err := p.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	var threads []*Thread
	for i := 0; i < n; i++ {
		th, err := p.SpawnThread(i % cfg.ComputeBlades)
		if err != nil {
			t.Fatal(err)
		}
		next, left := gen(sim.NewRNG(cfg.Seed+uint64(i), "access-pin"), vma.Base), ops
		th.Start(func() (mem.VA, bool, bool) {
			if left == 0 {
				return 0, false, false
			}
			left--
			return next()
		}, nil)
		threads = append(threads, th)
	}
	end := c.RunThreads()
	for i, th := range threads {
		if !th.Done() || th.Ops() != uint64(ops) {
			t.Fatalf("thread %d: done=%v ops=%d, want %d", i, th.Done(), th.Ops(), ops)
		}
	}
	return soloPin(c, end)
}

// TestAccessPinned pins the dispatch sequence of the closed-loop access
// paths TestSoloDispatchPinned does not reach. The constants were read
// before the access step was rewritten, so a change that issues a fault
// at another instant, replays a stalled access differently or counts a
// hit twice fails here first.
func TestAccessPinned(t *testing.T) {
	// PSO store buffer: three slots, so write misses stall on a full
	// buffer, and one access in four re-reads the page just written,
	// which blocks until that write drains. Both stalls replay the
	// parked access when the drain comes back. The directory holds
	// fewer regions than the vma spans, which only PSO feels: PSO+
	// models it as unbounded.
	pso := func(model Consistency, want string) {
		t.Run(model.String(), func(t *testing.T) {
			cfg := DefaultConfig(3, 2)
			cfg.MemoryBladeCapacity = 1 << 26
			cfg.CachePagesPerBlade = 48
			cfg.ASIC.SlotCapacity = 16
			cfg.SplitterEpoch = 150 * sim.Microsecond
			cfg.Consistency = model
			cfg.StoreBufferDepth = 3
			cfg.Seed = 1021
			got := accessPinRun(t, cfg, 6, 96, 1500, func(rng *sim.RNG, base mem.VA) AccessGen {
				last := mem.VA(0)
				return func() (mem.VA, bool, bool) {
					if last != 0 && rng.Intn(4) == 0 {
						va := last
						last = 0
						return va, false, true
					}
					va := base + mem.VA(rng.Intn(96)*mem.PageSize)
					write := rng.Bool(0.4)
					last = 0
					if write {
						last = va
					}
					return va, write, true
				}
			})
			if got != want {
				t.Errorf("end / executed / dispatch hash / counters = %s, want %s", got, want)
			}
		})
	}
	pso(PSO, "16340341 / 96991 / 9547d243e9cf155b / 4a1d5c99f46f0566")
	pso(PSOPlus, "15468491 / 96634 / c2255ad8b0749760 / 4d408bb852f68edf")

	// Raced hit: four threads per blade over a working set that nearly
	// fits the cache, so a thread that missed often finds, once its
	// think time has elapsed, that a sibling's fault installed the page.
	t.Run("raced-hit", func(t *testing.T) {
		cfg := DefaultConfig(2, 2)
		cfg.MemoryBladeCapacity = 1 << 26
		cfg.CachePagesPerBlade = 40
		cfg.Seed = 1021
		got := accessPinRun(t, cfg, 8, 48, 2500, func(rng *sim.RNG, base mem.VA) AccessGen {
			return func() (mem.VA, bool, bool) {
				return base + mem.VA(rng.Intn(48)*mem.PageSize), rng.Bool(0.05), true
			}
		})
		const want = "10603737 / 59344 / c158adacff0b8360 / 4d4c8296da4f46a0"
		if got != want {
			t.Errorf("end / executed / dispatch hash / counters = %s, want %s", got, want)
		}
	})
}
