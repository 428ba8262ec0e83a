package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
)

// soloPin renders what a 1-rack run leaves behind — virtual time, events
// executed, the engine's (time, seq) dispatch hash and a hash of the
// sorted counter snapshot — as one comparable line.
func soloPin(c *Cluster, at sim.Time) string {
	snap := c.Collector().Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, snap[k])
	}
	return fmt.Sprintf("%d / %d / %016x / %016x", int64(at), c.Engine().Executed, c.Engine().DispatchHash(), h.Sum64())
}

// TestSoloDispatchPinned pins the dispatch sequence of a 1-rack pod on
// the three run shapes no golden covers: closed-loop threads with
// membership events registered through the pod's fault scheduler, an
// open-loop serving run with the whole robustness layer armed across a
// switch failover, and a script of blocking calls that ends on targets
// landing exactly on an epoch tick. The constants were read before the
// 1-rack pod moved onto the pod executor's drive loop, so a run loop
// that dispatches one event more or less, ends on a different event, or
// treats a target's own instant differently fails here first.
func TestSoloDispatchPinned(t *testing.T) {
	t.Run("threads", func(t *testing.T) {
		cfg := DefaultConfig(4, 3)
		cfg.MemoryBladeCapacity = 1 << 26
		cfg.CachePagesPerBlade = 96
		cfg.ASIC.SlotCapacity = 160
		cfg.SplitterEpoch = 150 * sim.Microsecond
		cfg.Seed = 1021
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Engine().EnableDispatchHash()
		p := c.Exec("app")
		var vmas []mem.VMA
		for i := 0; i < 6; i++ {
			vma, err := p.Mmap(128*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			vmas = append(vmas, vma)
		}
		for i := 0; i < 8; i++ {
			th, err := p.SpawnThread(i % 4)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(1021+uint64(i), "solo-pin")
			n := 0
			th.Start(func() (mem.VA, bool, bool) {
				if n >= 2500 {
					return 0, false, false
				}
				n++
				// Mostly the thread's own area, one access in five anywhere.
				vma := vmas[i%len(vmas)]
				if rng.Intn(5) == 0 {
					vma = vmas[rng.Intn(len(vmas))]
				}
				return vma.Base + mem.VA(rng.Intn(128)*mem.PageSize), rng.Bool(0.3), true
			}, nil)
		}
		pod, base := c.Pod(), c.Now()
		var drained, killed bool
		if err := pod.DrainMemBladeAt(0, 0, base.Add(2*sim.Millisecond), func(_ DrainReport, e error) {
			if e != nil {
				t.Errorf("drain: %v", e)
			}
			drained = true
		}); err != nil {
			t.Fatal(err)
		}
		if err := pod.KillMemBladeAt(0, 1, base.Add(5*sim.Millisecond), func(_ KillReport, e error) {
			if e != nil {
				t.Errorf("kill: %v", e)
			}
			killed = true
		}); err != nil {
			t.Fatal(err)
		}
		end := c.RunThreads()
		if !drained || !killed {
			t.Fatalf("drained=%v killed=%v: a fault landed after the run", drained, killed)
		}
		const want = "32649536 / 206466 / bd70a39c2e0c5c25 / a61e8f3a1b92b910"
		if got := soloPin(c, end); got != want {
			t.Errorf("end / executed / dispatch hash / counters = %s, want %s", got, want)
		}
	})

	t.Run("serving", func(t *testing.T) {
		cfg := DefaultConfig(2, 2)
		cfg.MemoryBladeCapacity = 1 << 28
		cfg.CachePagesPerBlade = 64
		cfg.SplitterEpoch = 300 * sim.Microsecond
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Engine().EnableDispatchHash()
		s, err := NewPodServing(c.Pod(), ServeConfig{
			Horizon:      2 * sim.Millisecond,
			Deadline:     60 * sim.Microsecond,
			MaxRetries:   2,
			RetryBackoff: 5 * sim.Microsecond,
			Brownout:     0.5,
			Seed:         3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"a", "b"} {
			p := c.Exec(name)
			vma, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AddTenant(TenantWorkload{
				Name:    name,
				Proc:    p,
				Blade:   i,
				Arrival: fixedGap(sim.Duration(13+4*i) * sim.Microsecond),
				NextOp:  roundRobinOps(vma.Base, 256),
			}); err != nil {
				t.Fatal(err)
			}
		}
		failedOver := false
		if err := c.Pod().KillSwitchAt(0, c.Now().Add(800*sim.Microsecond), func(_ SwitchFailoverReport, e error) {
			if e != nil {
				t.Errorf("switch failover: %v", e)
			}
			failedOver = true
		}); err != nil {
			t.Fatal(err)
		}
		end, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !failedOver {
			t.Fatal("the failover landed after the run")
		}
		const want = "2118194 / 2648 / 1041b258091d9dbb / 13c11074dcd637e7"
		if got := soloPin(c, end); got != want {
			t.Errorf("end / executed / dispatch hash / counters = %s, want %s", got, want)
		}
	})

	t.Run("blocking", func(t *testing.T) {
		cfg := DefaultConfig(2, 3)
		cfg.MemoryBladeCapacity = 1 << 26
		cfg.CachePagesPerBlade = 32
		cfg.SplitterEpoch = 200 * sim.Microsecond
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Engine().EnableDispatchHash()
		var got []string
		step := func(name string) {
			got = append(got, name+": "+soloPin(c, c.Pod().Now()))
		}

		p := c.Exec("script")
		vma, err := p.Mmap(64*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.SpawnThread(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.SpawnThread(1)
		if err != nil {
			t.Fatal(err)
		}
		step("setup")
		for i := 0; i < 48; i++ {
			va := vma.Base + mem.VA(i*mem.PageSize)
			if err := a.Store(va, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if v, err := b.Load(va); err != nil || v != uint64(i) {
				t.Fatalf("load %d = %d, %v", i, v, err)
			}
		}
		step("store/load")
		victim, err := c.Controller().Allocator().Translate(vma.Base)
		if err != nil {
			t.Fatal(err)
		}
		c.KillSwitch()
		step("failover")
		if _, err := c.DrainMemBlade(victim); err != nil {
			t.Fatal(err)
		}
		step("drain")
		for i := 0; i < 48; i++ {
			if v, err := b.Load(vma.Base + mem.VA(i*mem.PageSize)); err != nil || v != uint64(i) {
				t.Fatalf("load %d after failover and drain = %d, %v", i, v, err)
			}
		}
		step("reload")
		// Epoch ticks sit on multiples of the epoch. Land on the next one,
		// then exactly one epoch further: both targets coincide with a
		// tick, which a 1-rack AdvanceTime dispatches (inclusive target).
		epoch := cfg.SplitterEpoch
		before := c.Splitter().Epochs()
		c.AdvanceTime(epoch - sim.Duration(c.Now())%epoch)
		step("advance to tick")
		c.AdvanceTime(epoch)
		step("advance one epoch")
		if ran := c.Splitter().Epochs() - before; ran != 2 {
			t.Errorf("%d epochs ran across two targets on ticks, want 2 (the target's own instant is dispatched)", ran)
		}

		want := []string{
			"setup: 120000 / 4 / 1124f9852c306fa5 / 9ea0801ff8bff61a",
			"store/load: 1542108 / 1307 / 59ae1828e84009a1 / e9d7b47c7af8d51d",
			"failover: 1778008 / 1363 / a1d78172c3ba5359 / 032ac3106c154661",
			"drain: 1820502 / 1370 / 1bd41c3bd1eb5ec5 / 49af08f5f5577ada",
			"reload: 2260374 / 1756 / 8385de3ec0554148 / 3d8c947d081053d5",
			"advance to tick: 2400000 / 1757 / 7a67809586e4ded1 / c9e9dc2cf228d19b",
			"advance one epoch: 2600000 / 1758 / 9a1aabf8c903a717 / 62c3b36464f7c711",
		}
		if len(got) != len(want) {
			t.Fatalf("recorded %d steps, want %d:\n%q", len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("now / executed / dispatch hash / counters after %s, want %s", got[i], want[i])
			}
		}
	})
}
