package core

import (
	"fmt"
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// podRackConfig shapes a small test rack: capacity in pages per blade.
func podRackConfig(computeBlades, memBlades int, bladePages uint64) Config {
	cfg := DefaultConfig(computeBlades, memBlades)
	cfg.MemoryBladeCapacity = bladePages * mem.PageSize
	cfg.CachePagesPerBlade = 64
	return cfg
}

// newTestPod builds a 2-rack pod where rack 0 has a single small memory
// blade and rack 1 has spare capacity to lend.
func newTestPod(t *testing.T, promo PromotionConfig) *Pod {
	t.Helper()
	pod, err := NewPod(PodConfig{
		Racks: []Config{
			podRackConfig(2, 1, 1024),
			podRackConfig(2, 3, 1024),
		},
		Promotion: promo,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pod
}

func TestPodBorrowOnENOMEM(t *testing.T) {
	pod := newTestPod(t, PromotionConfig{Disable: true})
	r0 := pod.Rack(0)
	p := r0.Exec("borrower")

	// Fill rack 0's only blade, then allocate past it: the second mmap
	// must be served by a blade borrowed from rack 1.
	filler, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatalf("filler mmap: %v", err)
	}
	work, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatalf("mmap past local capacity: %v (borrow did not happen)", err)
	}
	if r0.BorrowedBlades() != 1 || pod.Leases() != 1 {
		t.Fatalf("borrowed=%d leases=%d, want 1/1", r0.BorrowedBlades(), pod.Leases())
	}
	home, err := r0.Controller().Allocator().Translate(work.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !r0.remoteBlade(home) {
		t.Fatalf("working vma homed on local blade %d, want remote", home)
	}
	// The lender retired the lent blade from its own allocator.
	lenderAlloc := pod.Rack(1).Controller().Allocator()
	retired := 0
	for i := 0; i < lenderAlloc.Blades(); i++ {
		if lenderAlloc.BladeRetired(ctrlplane.BladeID(i)) {
			retired++
		}
	}
	if retired != 1 {
		t.Fatalf("lender retired %d blades, want 1", retired)
	}
	if got := pod.Collector().Counter(stats.CtrBladeBorrows); got != 1 {
		t.Fatalf("blade_borrows = %d, want 1", got)
	}

	// Data round-trips through both switches.
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store(work.Base+8, 0xfeed); err != nil {
		t.Fatalf("store to borrowed memory: %v", err)
	}
	if v, err := th.Load(work.Base + 8); err != nil || v != 0xfeed {
		t.Fatalf("load from borrowed memory = %#x, %v", v, err)
	}
	if pod.Collector().Counter(stats.CtrCrossRackMsgs) == 0 {
		t.Error("no cross-rack messages accounted for remote-homed accesses")
	}
	_ = filler
}

// TestPodRemoteSlowerThanLocal pins the latency structure: a fault served
// by a borrowed blade pays the interconnect and the second switch, so it
// must be strictly slower than the same fault served locally.
func TestPodRemoteSlowerThanLocal(t *testing.T) {
	faultTime := func(remote bool) sim.Duration {
		pod := newTestPod(t, PromotionConfig{Disable: true})
		p := pod.Rack(0).Exec("probe")
		var va mem.VA
		if remote {
			filler, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			_ = filler
			work, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			va = work.Base
		} else {
			work, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			va = work.Base
		}
		th, err := p.SpawnThread(0)
		if err != nil {
			t.Fatal(err)
		}
		start := pod.Now()
		if err := th.Touch(va, false); err != nil {
			t.Fatal(err)
		}
		return pod.Now().Sub(start)
	}
	local, remote := faultTime(false), faultTime(true)
	if remote <= local {
		t.Fatalf("remote fault %v not slower than local %v", remote, local)
	}
	// The gap must be at least one interconnect round trip's propagation.
	if remote-local < 2*sim.Microsecond {
		t.Fatalf("remote-local gap %v implausibly small", remote-local)
	}
}

// TestPodPromotionMigratesHotVMAHome drives faults at a borrowed blade
// until the promotion policy migrates the vma to freed-up local memory,
// and checks translation, counters, lease return and data integrity.
func TestPodPromotionMigratesHotVMAHome(t *testing.T) {
	pod := newTestPod(t, PromotionConfig{
		Epoch:     200 * sim.Microsecond,
		Threshold: 4,
	})
	r0 := pod.Rack(0)
	p := r0.Exec("promoter")
	alloc := r0.Controller().Allocator()

	filler, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	work, err := p.Mmap(64*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	home0, _ := alloc.Translate(work.Base)
	if !r0.remoteBlade(home0) {
		t.Fatal("setup: working vma should start remote")
	}

	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize some data on the remote blade before promotion.
	for i := 0; i < 8; i++ {
		if err := th.Store(work.Base+mem.VA(i)*mem.PageSize, uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Free local capacity so the promotion has a target.
	if err := p.Munmap(filler.Base); err != nil {
		t.Fatal(err)
	}

	// Generate remote heat across several promotion epochs. Touch a
	// rotating window so faults keep occurring (cache is only 64 pages).
	for round := 0; round < 40; round++ {
		for i := 0; i < 64; i++ {
			if err := th.Touch(work.Base+mem.VA(i)*mem.PageSize, false); err != nil {
				t.Fatal(err)
			}
		}
		r0.AdvanceTime(250 * sim.Microsecond)
		home, err := alloc.Translate(work.Base)
		if err != nil {
			t.Fatal(err)
		}
		if !r0.remoteBlade(home) {
			break
		}
	}
	home, err := alloc.Translate(work.Base)
	if err != nil {
		t.Fatal(err)
	}
	if r0.remoteBlade(home) {
		t.Fatalf("vma still remote-homed (blade %d) after sustained heat", home)
	}
	col := pod.Collector()
	if got := col.Counter(stats.CtrPromotedVMAs); got == 0 {
		t.Error("promoted_vmas counter is zero")
	}
	// Data written before the promotion survives it.
	for i := 0; i < 8; i++ {
		v, err := th.Load(work.Base + mem.VA(i)*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(1000+i) {
			t.Fatalf("page %d reads %d after promotion, want %d", i, v, 1000+i)
		}
	}
	// The emptied borrowed blade goes back to its owner.
	r0.AdvanceTime(2 * sim.Millisecond)
	if pod.Leases() != 0 {
		t.Errorf("lease not returned: %d live", pod.Leases())
	}
	if got := col.Counter(stats.CtrBladeReturns); got != 1 {
		t.Errorf("blade_returns = %d, want 1", got)
	}
}

// TestPodDeterminism runs the same 2-rack borrow+promote workload twice
// and requires identical virtual end times and counter snapshots.
func TestPodDeterminism(t *testing.T) {
	run := func() (sim.Time, map[string]uint64) {
		pod := newTestPod(t, PromotionConfig{Epoch: 200 * sim.Microsecond, Threshold: 4})
		// Rack 0 fills its one blade and then borrows; rack 1 stays local.
		lengths := [][]uint64{{900, 400}, {600}}
		for ri := 0; ri < 2; ri++ {
			r := pod.Rack(ri)
			p := r.Exec("w")
			length := lengths[ri][len(lengths[ri])-1] * mem.PageSize
			var vma mem.VMA
			for _, pgs := range lengths[ri] {
				var err error
				vma, err = p.Mmap(pgs*mem.PageSize, mem.PermReadWrite)
				if err != nil {
					t.Fatal(err)
				}
			}
			for b := 0; b < 2; b++ {
				th, err := p.SpawnThread(b)
				if err != nil {
					t.Fatal(err)
				}
				rng := sim.NewRNG(uint64(7+ri), "podgold")
				n := 0
				th.Start(func() (mem.VA, bool, bool) {
					if n >= 3000 {
						return 0, false, false
					}
					n++
					pg := rng.Uint64n(length / mem.PageSize)
					return vma.Base + mem.VA(pg*mem.PageSize), rng.Bool(0.3), true
				}, nil)
			}
		}
		end := pod.RunThreads()
		return end, pod.Collector().Snapshot()
	}
	end1, snap1 := run()
	end2, snap2 := run()
	if end1 != end2 {
		t.Fatalf("pod end time diverged: %v vs %v", end1, end2)
	}
	if len(snap1) != len(snap2) {
		t.Fatalf("counter sets differ: %d vs %d", len(snap1), len(snap2))
	}
	for k, v := range snap1 {
		if snap2[k] != v {
			t.Errorf("counter %q diverged: %d vs %d", k, v, snap2[k])
		}
	}
}

// TestSingleRackPodHasNoPodMachinery pins the 1-rack identity contract:
// no interconnect, no pod or cross-rack counters, no promotion tick, no
// windows — the classic single-rack counter set and event schedule.
func TestSingleRackPodHasNoPodMachinery(t *testing.T) {
	c, err := NewCluster(DefaultConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	pod := c.Pod()
	if pod.Interconnect() != nil {
		t.Error("1-rack pod built an interconnect")
	}
	if c.Rack.promoTick != nil {
		t.Error("1-rack pod scheduled a promotion tick")
	}
	p := c.Exec("app")
	vma, err := p.Mmap(64*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	th.Start(func() (mem.VA, bool, bool) {
		n++
		return vma.Base + mem.VA(n%64*mem.PageSize), n%3 == 0, n <= 500
	}, nil)
	c.RunThreads()
	if executed, skipped, elided := pod.WindowStats(); executed+skipped+elided != 0 {
		t.Errorf("1-rack run swept windows: WindowStats() = %d, %d, %d", executed, skipped, elided)
	}
	snap := pod.Collector().Snapshot()
	for _, k := range []string{stats.CtrCrossRackMsgs, stats.CtrBladeBorrows} {
		if _, ok := snap[k]; ok {
			t.Errorf("1-rack pod registered the pod counter %q", k)
		}
	}
}

// TestRunsEndQuiesced pins the one run tail: whatever the pod's size,
// worker count or run entry point, a run returns with every engine
// empty and the epoch loops stopped, and quiescing again is a no-op.
func TestRunsEndQuiesced(t *testing.T) {
	build := func(t *testing.T, racks, workers int) *Pod {
		cfgs := []Config{podRackConfig(2, 1, 1024)}
		if racks == 2 {
			cfgs = append(cfgs, podRackConfig(2, 3, 1024))
		}
		for i := range cfgs {
			cfgs[i].SplitterEpoch = 100 * sim.Microsecond
		}
		pod, err := NewPod(PodConfig{
			Racks:     cfgs,
			Workers:   workers,
			Promotion: PromotionConfig{Epoch: 100 * sim.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pod
	}
	// mapWork gives rack 0 a working area: on the 2-rack pod its one
	// blade is filled first, so the area lands on a borrowed blade.
	mapWork := func(t *testing.T, pod *Pod, p *Process) mem.VMA {
		if pod.Racks() == 2 {
			if _, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite); err != nil {
				t.Fatal(err)
			}
		}
		vma, err := p.Mmap(128*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if want := pod.Racks() - 1; pod.Rack(0).BorrowedBlades() != want {
			t.Fatalf("setup: rack 0 borrowed %d blades, want %d", pod.Rack(0).BorrowedBlades(), want)
		}
		return vma
	}
	entries := []struct {
		name string
		run  func(t *testing.T, pod *Pod)
	}{
		{"RunThreads", func(t *testing.T, pod *Pod) {
			p := pod.Rack(0).Exec("app")
			vma := mapWork(t, pod, p)
			for b := 0; b < 2; b++ {
				th, err := p.SpawnThread(b)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				th.Start(func() (mem.VA, bool, bool) {
					n++
					return vma.Base + mem.VA(n%128*mem.PageSize), n%3 == 0, n <= 1500
				}, nil)
			}
			pod.RunThreads()
		}},
		{"Serving.Run", func(t *testing.T, pod *Pod) {
			s, err := NewPodServing(pod, ServeConfig{Horizon: sim.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			p := pod.Rack(0).Exec("tenant")
			vma := mapWork(t, pod, p)
			if err := s.AddTenant(TenantWorkload{
				Name: "tenant", Proc: p, Blade: 0,
				Arrival: fixedGap(10 * sim.Microsecond),
				NextOp:  roundRobinOps(vma.Base, 128),
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, racks := range []int{1, 2} {
		for _, workers := range []int{1, 2} {
			for _, e := range entries {
				t.Run(fmt.Sprintf("%s/racks=%d/workers=%d", e.name, racks, workers), func(t *testing.T) {
					pod := build(t, racks, workers)
					e.run(t, pod)
					for i, r := range pod.racks {
						if n := r.eng.Pending(); n != 0 {
							t.Errorf("rack %d: %d events pending after the run", i, n)
						}
						if r.epochTick != nil || r.promoTick != nil {
							t.Errorf("rack %d: an epoch loop survived the run", i)
						}
						if r.Splitter().Epochs() == 0 {
							t.Errorf("rack %d: the splitter never ran, so stopping it proved nothing", i)
						}
					}
					before := pod.ExecutedEvents()
					pod.quiesce()
					if got := pod.ExecutedEvents() - before; got != 0 {
						t.Errorf("quiescing a quiesced pod dispatched %d events", got)
					}
				})
			}
		}
	}
}

// TestPodDrainOfBorrowedBladeReleasesLease: a borrowed blade that is
// drained (rather than promoted empty and returned) must not leave a
// phantom lease behind.
func TestPodDrainOfBorrowedBladeReleasesLease(t *testing.T) {
	pod := newTestPod(t, PromotionConfig{Disable: true})
	r0 := pod.Rack(0)
	p := r0.Exec("drainer")
	if _, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	work, err := p.Mmap(64*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := r0.Controller().Allocator().Translate(work.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !r0.remoteBlade(victim) {
		t.Fatal("setup: working vma should be remote-homed")
	}
	// Draining the borrowed blade needs a local target: free the filler
	// first so the drain can re-home the vma locally.
	bases := r0.Controller().Allocator().AllocationsOn(0)
	if len(bases) != 1 {
		t.Fatalf("setup: expected one filler vma on blade 0, got %d", len(bases))
	}
	if err := p.Munmap(bases[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r0.DrainMemBlade(victim); err != nil {
		t.Fatalf("drain of borrowed blade: %v", err)
	}
	if got := pod.Leases(); got != 0 {
		t.Errorf("Leases() = %d after draining the borrowed blade, want 0", got)
	}
	if got := r0.BorrowedBlades(); got != 0 {
		t.Errorf("BorrowedBlades() = %d, want 0", got)
	}
}
