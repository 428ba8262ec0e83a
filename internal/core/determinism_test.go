package core

import (
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// runDeterministic executes a fixed mixed workload and returns the finish
// time plus a counter fingerprint.
func runDeterministic(t *testing.T, seed uint64) (sim.Time, map[string]uint64) {
	t.Helper()
	cfg := DefaultConfig(4, 2)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 512
	cfg.Seed = seed
	cfg.SplitterEpoch = 500 * sim.Microsecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<22, mem.PermReadWrite)
	for i := 0; i < 8; i++ {
		th, _ := p.SpawnThread(i % 4)
		rng := sim.NewRNG(seed+uint64(i), "det")
		n := 0
		th.Start(func() (mem.VA, bool, bool) {
			if n >= 4000 {
				return 0, false, false
			}
			n++
			return vma.Base + mem.VA(rng.Intn(768)*mem.PageSize), rng.Bool(0.3), true
		}, nil)
	}
	end := c.RunThreads()
	return end, c.Collector().Snapshot()
}

// TestSimulationDeterminism: identical seeds produce bit-identical runs —
// the property every experiment in this repo depends on.
func TestSimulationDeterminism(t *testing.T) {
	end1, snap1 := runDeterministic(t, 42)
	end2, snap2 := runDeterministic(t, 42)
	if end1 != end2 {
		t.Fatalf("runtimes differ: %d vs %d", end1, end2)
	}
	if len(snap1) != len(snap2) {
		t.Fatalf("counter sets differ: %d vs %d", len(snap1), len(snap2))
	}
	for k, v := range snap1 {
		if snap2[k] != v {
			t.Errorf("counter %s: %d vs %d", k, v, snap2[k])
		}
	}
	// A different seed must actually change the run.
	end3, _ := runDeterministic(t, 43)
	if end3 == end1 {
		t.Error("different seeds produced identical runtimes (suspicious)")
	}
}

// TestEpochLoopRunsDuringWorkload: the splitter's epoch loop must fire
// while threads run and stop afterwards.
func TestEpochLoopRunsDuringWorkload(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 512
	cfg.SplitterEpoch = 100 * sim.Microsecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<20, mem.PermReadWrite)
	th, _ := p.SpawnThread(0)
	n := 0
	th.Start(func() (mem.VA, bool, bool) {
		if n >= 2000 {
			return 0, false, false
		}
		n++
		return vma.Base + mem.VA((n%256)*mem.PageSize), n%3 == 0, true
	}, nil)
	c.RunThreads()
	if c.Splitter().Epochs() == 0 {
		t.Error("epoch loop never fired during the run")
	}
	// After RunThreads the loop is stopped: advancing time adds nothing.
	before := c.Splitter().Epochs()
	c.AdvanceTime(10 * sim.Millisecond)
	if c.Splitter().Epochs() != before {
		t.Error("epoch loop still running after RunThreads")
	}
}

// TestDisableSplitting: with splitting disabled there is no splitter and
// regions stay at the configured fixed granularity.
func TestDisableSplitting(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 512
	cfg.DisableSplitting = true
	cfg.InitialRegionSize = 64 << 10
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Splitter() != nil {
		t.Fatal("splitter exists despite DisableSplitting")
	}
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<20, mem.PermReadWrite)
	a, _ := p.SpawnThread(0)
	b, _ := p.SpawnThread(1)
	for i := 0; i < 16; i++ {
		if err := a.Store(vma.Base+mem.VA(i*mem.PageSize), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Load(vma.Base + mem.VA(i*mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	c.AdvanceTime(5 * sim.Millisecond)
	if got := c.Collector().Counter(stats.CtrSplits); got != 0 {
		t.Errorf("splits = %d with splitting disabled", got)
	}
	// Every region is exactly the configured size.
	for _, st := range c.Directory().EpochStats(nil) {
		if st.Size != 64<<10 {
			t.Errorf("region size = %d, want fixed 64K", st.Size)
		}
	}
}

// TestCacheHitFastPath: a hot single-page loop should be served almost
// entirely from the local cache.
func TestCacheHitFastPath(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	th, _ := p.SpawnThread(0)
	n := 0
	th.Start(func() (mem.VA, bool, bool) {
		if n >= 10000 {
			return 0, false, false
		}
		n++
		return vma.Base, n%2 == 0, true
	}, nil)
	c.RunThreads()
	col := c.Collector()
	hitRate := float64(col.Counter(stats.CtrLocalHits)) / float64(col.Counter(stats.CtrAccesses))
	if hitRate < 0.999 {
		t.Errorf("hit rate = %v, want ~1 for a single hot page", hitRate)
	}
	if col.Counter(stats.CtrRemoteAccesses) > 2 {
		t.Errorf("remote accesses = %d, want <= 2 (read then write upgrade)",
			col.Counter(stats.CtrRemoteAccesses))
	}
}
