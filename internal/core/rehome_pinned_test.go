package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// podPin renders what a run leaves behind on every rack of a pod — clock,
// events executed and the engine's (time, seq) dispatch hash — plus a
// hash of the pod's sorted counter snapshot, as one comparable line.
func podPin(pod *Pod) string {
	snap := pod.Collector().Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, snap[k])
	}
	var b strings.Builder
	for i := 0; i < pod.Racks(); i++ {
		eng := pod.Rack(i).Engine()
		fmt.Fprintf(&b, "%d / %d / %016x | ", int64(eng.Now()), eng.Executed, eng.DispatchHash())
	}
	fmt.Fprintf(&b, "%016x", h.Sum64())
	return b.String()
}

// stride starts a closed-loop thread that sweeps pages of the given
// areas in a fixed pattern, writing every third access.
func stride(t *testing.T, p *Process, blade, ops int, areas []mem.VMA, pages int) {
	t.Helper()
	th, err := p.SpawnThread(blade)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	th.Start(func() (mem.VA, bool, bool) {
		if n >= ops {
			return 0, false, false
		}
		n++
		a := areas[n%len(areas)]
		return a.Base + mem.VA((n*7)%pages)*mem.PageSize, n%3 == 0, true
	}, nil)
}

// TestRehomePinned pins the dispatch sequence of the error arms of the
// three procedures that move a vma off a blade — drain, kill recovery
// and promotion — which the figure goldens (happy paths only) never
// reach: a drain whose target dies with a copy batch in flight, a drain
// whose vma is unmapped under it, and a borrower that sees a promotion,
// a drain of its borrowed blade and a kill no survivor can absorb. The
// constants were read before the three step machines were folded into
// one re-home procedure; a freeze lifted an event earlier or later, a
// target picked at a different moment or one Schedule call more or less
// fails here first.
func TestRehomePinned(t *testing.T) {
	t.Run("target dies mid-copy", func(t *testing.T) {
		cfg := DefaultConfig(2, 2)
		cfg.MemoryBladeCapacity = 1 << 28
		cfg.CachePagesPerBlade = 128
		cfg.Migration.BatchPages = 4 // stretch the copy so the kill lands inside it
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Engine().EnableDispatchHash()
		p := c.Exec("app")
		const pages = 256
		vma, err := p.Mmap(pages*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		victim, err := c.Controller().Allocator().Translate(vma.Base)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, mem.PageSize)
		for i := 0; i < pages; i++ {
			buf[0] = byte(i)
			c.MemBlade(int(victim)).WritePage(vma.Base+mem.VA(i)*mem.PageSize, buf)
		}
		if _, err := c.AddMemBlade(0); err != nil {
			t.Fatal(err)
		}
		target := ctrlplane.BladeID(1 - victim)
		stride(t, p, 0, 3000, []mem.VMA{vma}, pages)
		stride(t, p, 1, 3000, []mem.VMA{vma}, pages)

		var drep DrainReport
		var krep KillReport
		var derr, kerr error
		drained, killed := false, false
		c.Engine().Schedule(10*sim.Microsecond, func() {
			c.drainMemBladeAsync(victim, func(r DrainReport, e error) { drep, derr, drained = r, e, true })
		})
		c.Engine().Schedule(300*sim.Microsecond, func() {
			c.killMemBladeAsync(target, func(r KillReport, e error) { krep, kerr, killed = r, e, true })
		})
		end := c.RunThreads()
		if !drained || !killed || derr != nil || kerr != nil {
			t.Fatalf("drained=%v (%v) killed=%v (%v)", drained, derr, killed, kerr)
		}
		if drep.Batches <= pages/cfg.Migration.BatchPages || krep.PagesLost != 0 {
			t.Fatalf("the kill did not land inside the copy (or cost pages): drain %+v, kill %+v", drep, krep)
		}
		if got := c.MemBlade(c.MemBladeCount() - 1).MaterializedPages(); got != pages {
			t.Fatalf("%d/%d pages reached the last survivor", got, pages)
		}
		got := fmt.Sprintf("%s | %+v | %+v", soloPin(c, end), drep, krep)
		const want = "40276639 / 80073 / ad05febc216133a4 / 26920d51bbb02353" +
			" | {Victim:0 Start:130000 End:942661 Allocations:1 PagesMoved:256 PagesPurged:0 RegionsHit:5 Batches:79}" +
			" | {Victim:1 Start:420000 End:470000 PagesLost:0 Allocations:0 VMAsLost:0 RegionsHit:0}"
		if got != want {
			t.Errorf("end / executed / dispatch hash / counters | drain | kill =\n%s, want\n%s", got, want)
		}
	})

	t.Run("munmap during drain", func(t *testing.T) {
		cfg := DefaultConfig(2, 2)
		cfg.MemoryBladeCapacity = 1 << 28
		cfg.CachePagesPerBlade = 256
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Engine().EnableDispatchHash()
		p := c.Exec("app")
		const pages = 64
		a, b := twoVMAsOnBlade0(t, c.Rack, p, pages)
		th, err := p.SpawnThread(0)
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, th, a.Base, pages)
		fillPages(t, th, b.Base, pages)
		failoverNow(c.Rack) // flush dirty data to blade 0
		// Foreground traffic on the vma that survives; the one that is
		// unmapped under the drain is left alone.
		stride(t, p, 1, 2000, []mem.VMA{b}, pages)

		var drep DrainReport
		var derr error
		drained := false
		c.Engine().Schedule(10*sim.Microsecond, func() {
			c.drainMemBladeAsync(0, func(r DrainReport, e error) { drep, derr, drained = r, e, true })
		})
		// Free vma A while its regions are being reset (the drain processes
		// it first: lowest base).
		c.Engine().Schedule(40*sim.Microsecond, func() {
			if err := c.ctl.Munmap(p.PID(), a.Base); err != nil {
				t.Errorf("munmap: %v", err)
			}
		})
		end := c.RunThreads()
		if !drained || derr != nil {
			t.Fatalf("drained=%v (%v)", drained, derr)
		}
		if drep.Allocations != 1 {
			t.Fatalf("drain relocated %d vmas, want 1 (the survivor)", drep.Allocations)
		}
		got := fmt.Sprintf("%s | %+v", soloPin(c, end), drep)
		const want = "4192517 / 2762 / 5de5b95a19ae55e4 / 4c09298a7c7689db" +
			" | {Victim:0 Start:2631616 End:2910177 Allocations:1 PagesMoved:64 PagesPurged:64 RegionsHit:5 Batches:4}"
		if got != want {
			t.Errorf("end / executed / dispatch hash / counters | drain =\n%s, want\n%s", got, want)
		}
	})

	t.Run("borrower: promotion, drain, forced unmap", func(t *testing.T) {
		pod := newTestPod(t, PromotionConfig{
			Epoch:           200 * sim.Microsecond,
			Threshold:       4,
			MaxVMAsPerEpoch: 1,
		})
		for i := 0; i < pod.Racks(); i++ {
			pod.Rack(i).Engine().EnableDispatchHash()
		}
		var got []string
		step := func(name string) { got = append(got, name+": "+podPin(pod)) }

		r0 := pod.Rack(0)
		alloc := r0.Controller().Allocator()
		p := r0.Exec("borrower")
		filler, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := p.Mmap(64*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.Mmap(128*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		lease := borrowedBladeID(t, r0)
		for _, v := range []mem.VMA{hot, cold} {
			if home, err := alloc.Translate(v.Base); err != nil || home != lease {
				t.Fatalf("setup: vma %#x homed on blade %d (%v), want the borrowed blade %d", uint64(v.Base), home, err, lease)
			}
		}
		th, err := p.SpawnThread(0)
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, th, hot.Base, 16)
		fillPages(t, th, cold.Base, 16)
		if err := p.Munmap(filler.Base); err != nil {
			t.Fatal(err)
		}
		step("setup")

		// Heat the borrowed blade until the policy promotes exactly one of
		// its two vmas (MaxVMAsPerEpoch is 1); the other stays for the drain.
		for round := 0; round < 200 && pod.CounterTotal(stats.CtrPromotedVMAs) == 0; round++ {
			for i := 0; i < 8; i++ {
				if err := th.Touch(hot.Base+mem.VA((round*8+i)%64)*mem.PageSize, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := pod.CounterTotal(stats.CtrPromotedVMAs); n != 1 {
			t.Fatalf("promoted %d vmas, want exactly 1", n)
		}
		if n := len(alloc.AllocationsOn(lease)); n != 1 {
			t.Fatalf("%d vmas left on the borrowed blade after the promotion, want 1", n)
		}
		step("promotion")

		drep, err := drainNow(r0, lease)
		if err != nil {
			t.Fatalf("drain of the borrowed blade: %v", err)
		}
		if drep.Allocations != 1 || drep.PagesMoved == 0 || pod.Leases() != 0 {
			t.Fatalf("drain report %+v, leases %d", drep, pod.Leases())
		}
		checkPages(t, th, hot.Base, 16, 1)
		checkPages(t, th, cold.Base, 16, 1)
		step("drain " + fmt.Sprintf("%+v", drep))

		// Fill local memory again and map past it: the new area lands on a
		// second borrowed blade, and nothing local can take it back.
		if _, err := p.Mmap(512*mem.PageSize, mem.PermReadWrite); err != nil {
			t.Fatal(err)
		}
		doomed, err := p.Mmap(512*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		lease = borrowedBladeID(t, r0)
		if home, err := alloc.Translate(doomed.Base); err != nil || home != lease {
			t.Fatalf("setup: doomed vma homed on blade %d (%v), want the borrowed blade %d", home, err, lease)
		}
		fillPages(t, th, doomed.Base, 16)
		var krep KillReport
		var kerr error
		killed := false
		if err := pod.KillMemBladeAt(0, lease, pod.Now().Add(20*sim.Microsecond), func(r KillReport, e error) {
			krep, kerr, killed = r, e, true
		}); err != nil {
			t.Fatal(err)
		}
		pod.AdvanceTime(2 * sim.Millisecond)
		if !killed || kerr != nil {
			t.Fatalf("killed=%v (%v)", killed, kerr)
		}
		if krep.VMAsLost != 1 || krep.Allocations != 0 || pod.Leases() != 0 {
			t.Fatalf("kill report %+v, leases %d", krep, pod.Leases())
		}
		// The forced unmap revoked the owner's rule: the switch refuses
		// the access at its protection check, before translation.
		if err := th.Touch(doomed.Base, false); !errors.Is(err, ctrlplane.ErrPermission) {
			t.Fatalf("access to the forcibly unmapped vma = %v, want ErrPermission", err)
		}
		checkPages(t, th, cold.Base, 16, 1)
		step("kill " + fmt.Sprintf("%+v", krep))

		want := []string{
			"setup: 798000 / 266 / 094c4000c37505ca | 798000 / 195 / e7d13d2bf92cdbcd | 7737a7881f1ab6db",
			"promotion: 1223000 / 468 / 53b8862f8b5c42aa | 1223000 / 302 / 19b90cd56ccd0c1e | fa3131459ea8511a",
			"drain {Victim:1 Start:1223000 End:1462763 Allocations:1 PagesMoved:16 PagesPurged:0 RegionsHit:4 Batches:1}: 1783000 / 840 / 93100cce96fcb6b2 | 1783000 / 408 / ee43394e8e3d6791 | fe79a852bae9319a",
			"kill {Victim:2 Start:2221000 End:2433328 PagesLost:0 Allocations:0 VMAsLost:1 RegionsHit:4}: 4206000 / 1057 / 24039c559987daae | 4206000 / 518 / 15db211bf92490c6 | 786945db2bb6fb3a",
		}
		if len(got) != len(want) {
			t.Fatalf("recorded %d steps, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rack 0 now / executed / dispatch hash | rack 1 … | counters after\n%s, want\n%s", got[i], want[i])
			}
		}
	})
}
