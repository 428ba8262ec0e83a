package mind_test

// Ablation and microbenchmarks for the design choices called out in
// DESIGN.md: multicast vs sequential invalidation, recirculation,
// placement, the MESI exclusive grant, thread affinity, the drain batch
// size, and two raw protocol paths. They report virtual-time findings
// through b.ReportMetric, and some check them with b.Fatal; CI runs each
// once. The evaluation figures are regenerated by cmd/figures and hashed
// by TestDumpAllPanels (internal/experiments); a performance or
// no-regression claim is made with the repository's one benchmark,
// `go run ./benchmark` (benchmark/README.md).

import (
	"fmt"
	"testing"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
	"mind/internal/workloads"
)

// newAblationCluster builds a small rack for protocol microbenches.
func newAblationCluster(b *testing.B, mutate func(*core.Config)) (*core.Cluster, *core.Process) {
	b.Helper()
	cfg := core.DefaultConfig(8, 2)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 4096
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c, c.Exec("ablation")
}

// sharedWriteLatency measures an S->M transition with 7 sharers.
func sharedWriteLatency(b *testing.B, c *core.Cluster, p *core.Process, page mem.VA) float64 {
	b.Helper()
	var threads []*core.Thread
	for i := 0; i < 8; i++ {
		th, err := p.SpawnThread(i)
		if err != nil {
			b.Fatal(err)
		}
		threads = append(threads, th)
	}
	for _, th := range threads[1:] {
		if err := th.Touch(page, false); err != nil {
			b.Fatal(err)
		}
	}
	start := c.Now()
	if err := threads[0].Touch(page, true); err != nil {
		b.Fatal(err)
	}
	return c.Now().Sub(start).Micros()
}

// BenchmarkAblationMulticast compares the switch's native multicast
// invalidation (§4.3.2) against sequential unicast: the multicast path
// must invalidate 7 sharers in roughly constant time.
func BenchmarkAblationMulticast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, p := newAblationCluster(b, nil)
		vma, err := p.Mmap(1<<20, mem.PermReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		mc := sharedWriteLatency(b, c, p, vma.Base)

		c2, p2 := newAblationCluster(b, func(cfg *core.Config) {
			cfg.SequentialInvalidation = true
		})
		vma2, err := p2.Mmap(1<<20, mem.PermReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		seq := sharedWriteLatency(b, c2, p2, vma2.Base)

		b.ReportMetric(mc, "multicast-us")
		b.ReportMetric(seq, "sequential-us")
		if seq <= mc {
			b.Fatalf("sequential invalidation (%v us) should cost more than multicast (%v us)", seq, mc)
		}
	}
}

// BenchmarkAblationRecirculation measures the cost of the two-MAU +
// recirculation directory update (§6.3) by zeroing the recirculation
// delay.
func BenchmarkAblationRecirculation(b *testing.B) {
	measure := func(recirc bool) float64 {
		c, p := newAblationCluster(b, func(cfg *core.Config) {
			if !recirc {
				cfg.Fabric.RecircDelay = 0
			}
		})
		vma, err := p.Mmap(1<<20, mem.PermReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		th, err := p.SpawnThread(0)
		if err != nil {
			b.Fatal(err)
		}
		start := c.Now()
		const pages = 64
		for i := 0; i < pages; i++ {
			if err := th.Touch(vma.Base+mem.VA(i*mem.PageSize), false); err != nil {
				b.Fatal(err)
			}
		}
		return c.Now().Sub(start).Micros() / pages
	}
	for i := 0; i < b.N; i++ {
		with := measure(true)
		without := measure(false)
		b.ReportMetric(with, "with-recirc-us")
		b.ReportMetric(without, "no-recirc-us")
	}
}

// BenchmarkAblationPlacement compares allocation placement policies
// (§4.1) by Jain's fairness across 8 memory blades.
func BenchmarkAblationPlacement(b *testing.B) {
	trace := []uint64{1 << 20, 4 << 20, 64 << 10, 2 << 20, 8 << 20, 256 << 10, 1 << 20, 16 << 20}
	for i := 0; i < b.N; i++ {
		for _, pol := range []struct {
			name   string
			policy ctrlplane.PlacementPolicy
		}{
			{"least-loaded", ctrlplane.PlaceLeastLoaded},
			{"round-robin", ctrlplane.PlaceRoundRobin},
			{"first-fit", ctrlplane.PlaceFirstFit},
		} {
			ctl := ctrlplane.NewController(switchasic.DefaultConfig(), pol.policy, 8)
			for m := 0; m < 8; m++ {
				if _, err := ctl.Allocator().AddBlade(1 << 30); err != nil {
					b.Fatal(err)
				}
			}
			proc := ctl.Exec("bench")
			for r := 0; r < 16; r++ {
				for _, sz := range trace {
					if _, err := ctl.Mmap(proc.PID, sz, mem.PermReadWrite); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(stats.JainFairness(ctl.Allocator().BladeLoad()), pol.name+"-fairness")
		}
	}
}

// BenchmarkAblationExclusiveReads compares MSI against the MESI-style
// Exclusive grant (§8 "Other coherence protocols") on a private
// read-then-write sweep: the E grant removes the upgrade fault.
func BenchmarkAblationExclusiveReads(b *testing.B) {
	measure := func(exclusive bool) (float64, uint64) {
		c, p := newAblationCluster(b, func(cfg *core.Config) {
			cfg.ExclusiveReads = exclusive
		})
		vma, err := p.Mmap(8<<20, mem.PermReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		th, err := p.SpawnThread(0)
		if err != nil {
			b.Fatal(err)
		}
		start := c.Now()
		const pages = 256
		for i := 0; i < pages; i++ {
			va := vma.Base + mem.VA(i*mem.PageSize)
			if err := th.Touch(va, false); err != nil {
				b.Fatal(err)
			}
			if err := th.Touch(va, true); err != nil {
				b.Fatal(err)
			}
		}
		us := c.Now().Sub(start).Micros() / pages
		return us, c.Collector().Counter(stats.CtrRemoteAccesses)
	}
	for i := 0; i < b.N; i++ {
		msiUS, msiRemote := measure(false)
		mesiUS, mesiRemote := measure(true)
		b.ReportMetric(msiUS, "msi-us/page")
		b.ReportMetric(mesiUS, "mesi-us/page")
		if mesiRemote >= msiRemote {
			b.Fatalf("exclusive grant should cut remote accesses: %d vs %d", mesiRemote, msiRemote)
		}
	}
}

// BenchmarkAblationThreadAffinity explores the §8 "Thread management"
// direction: Native-KVS threads placed on the blade owning their key
// partition versus deliberately misplaced. Aligned placement turns most
// item traffic into local hits.
func BenchmarkAblationThreadAffinity(b *testing.B) {
	run := func(aligned bool) (float64, float64) {
		const blades = 4
		w := workloads.NativeKVS(0.5, 1)
		cfg := core.DefaultConfig(blades, 2)
		cfg.MemoryBladeCapacity = 1 << 30
		cfg.CachePagesPerBlade = int(w.Footprint / mem.PageSize / 2)
		c, err := core.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p := c.Exec("affinity")
		vma, err := p.Mmap(w.Footprint, mem.PermReadWrite)
		if err != nil {
			b.Fatal(err)
		}
		// Two threads per partition: aligned placement co-locates each
		// partition's pair on one blade (their read-write sharing stays
		// in the local cache); misplaced splits every pair across blades,
		// turning that sharing into coherence traffic.
		const threads = 2 * blades
		params := workloads.Params{Threads: threads, Blades: blades, OpsPerThread: 20000, Seed: 5}
		for t := 0; t < threads; t++ {
			blade := t % blades // the partition this thread favours
			if !aligned {
				blade = (t%blades + t/blades) % blades
			}
			th, err := p.SpawnThread(blade)
			if err != nil {
				b.Fatal(err)
			}
			th.Start(w.Gen(vma.Base, t, params), nil)
		}
		end := c.RunThreads()
		col := c.Collector()
		mops := float64(col.Counter(stats.CtrAccesses)) / end.Sub(0).Seconds() / 1e6
		return mops, col.PerAccess(stats.CtrInvalidations)
	}
	for i := 0; i < b.N; i++ {
		alignedMOPS, alignedInv := run(true)
		misMOPS, misInv := run(false)
		b.ReportMetric(alignedMOPS, "aligned-MOPS")
		b.ReportMetric(misMOPS, "misplaced-MOPS")
		b.ReportMetric(alignedInv, "aligned-inv/access")
		b.ReportMetric(misInv, "misplaced-inv/access")
	}
}

// BenchmarkRemoteReadPath is the raw protocol microbench: one cold I->S
// page fault end to end.
func BenchmarkRemoteReadPath(b *testing.B) {
	_, p := newAblationCluster(b, nil)
	vma, err := p.Mmap(64<<20, mem.PermReadWrite)
	if err != nil {
		b.Fatal(err)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := vma.Base + mem.VA((i%8192)*mem.PageSize)
		if err := th.Touch(page, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOwnershipPingPong is the raw M->M transfer microbench between
// two blades.
func BenchmarkOwnershipPingPong(b *testing.B) {
	c, p := newAblationCluster(b, nil)
	vma, err := p.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		b.Fatal(err)
	}
	t0, _ := p.SpawnThread(0)
	t1, _ := p.SpawnThread(1)
	_ = c
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := t0
		if i%2 == 1 {
			th = t1
		}
		if err := th.Touch(vma.Base, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrainBatchSize measures the drain throttle's operating
// points: for each migration batch size, a 1024-page blade drains while
// a foreground thread streams accesses through the rack. Reported
// metrics are virtual: pages migrated per virtual millisecond of drain
// (drain bandwidth), the drain's blackout in virtual ms, and the
// foreground throughput achieved during the run (MOPS). Small batches
// keep the foreground fast but stretch the drain; big batches invert
// the tradeoff — DefaultMigrationConfig picks from this curve.
func BenchmarkDrainBatchSize(b *testing.B) {
	for _, batch := range []int{8, 32, 128, 512} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(2, 2)
				cfg.MemoryBladeCapacity = 1 << 28
				cfg.CachePagesPerBlade = 512
				cfg.Migration.BatchPages = batch
				c, err := core.NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				proc := c.Exec("drain-bench")
				const pages = 1024
				// Two vmas: least-loaded placement puts one per blade.
				v0, err := proc.Mmap(pages*mem.PageSize, mem.PermReadWrite)
				if err != nil {
					b.Fatal(err)
				}
				v1, err := proc.Mmap(pages*mem.PageSize, mem.PermReadWrite)
				if err != nil {
					b.Fatal(err)
				}
				alloc := c.Controller().Allocator()
				victim, err := alloc.Translate(v0.Base)
				if err != nil {
					b.Fatal(err)
				}
				// Preload the victim's vma with real bytes so the drain
				// moves a full dataset.
				buf := make([]byte, mem.PageSize)
				for p := 0; p < pages; p++ {
					buf[0] = byte(p)
					c.MemBlade(int(victim)).WritePage(v0.Base+mem.VA(p)*mem.PageSize, buf)
				}
				// Foreground load over the survivor's vma.
				th, err := proc.SpawnThread(0)
				if err != nil {
					b.Fatal(err)
				}
				const ops = 20000
				j := 0
				th.Start(func() (mem.VA, bool, bool) {
					if j >= ops {
						return 0, false, false
					}
					va := v1.Base + mem.VA((j*7919)%(pages*mem.PageSize))
					j++
					return va, j%4 == 0, true
				}, nil)
				var rep core.DrainReport
				err = c.Pod().DrainMemBladeAt(0, victim, c.Now().Add(100*sim.Microsecond), func(r core.DrainReport, e error) {
					rep = r
					if e != nil {
						b.Error(e)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				end := c.RunThreads()
				if rep.PagesMoved != pages {
					b.Fatalf("moved %d pages, want %d", rep.PagesMoved, pages)
				}
				blackoutMS := rep.Blackout().Seconds() * 1e3
				b.ReportMetric(float64(rep.PagesMoved)/blackoutMS, "pages/vms")
				b.ReportMetric(blackoutMS, "blackout-vms")
				b.ReportMetric(float64(ops)/end.Sub(0).Seconds()/1e6, "fg-MOPS")
			}
		})
	}
}
