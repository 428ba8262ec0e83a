package core

import (
	"errors"
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
)

// fillPages stores a distinct value into every page of [base, base+n).
func fillPages(t *testing.T, th *Thread, base mem.VA, pages int) {
	t.Helper()
	for i := 0; i < pages; i++ {
		if err := th.Store(base+mem.VA(i)*mem.PageSize+8, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
}

// twoVMAsOnBlade0 maps two areas of pages pages for p, both on memory
// blade 0: every other blade is unavailable around the two mmaps.
func twoVMAsOnBlade0(t *testing.T, c *Rack, p *Process, pages int) (a, b mem.VMA) {
	t.Helper()
	alloc := c.Controller().Allocator()
	setOthers := func(available bool) {
		for id := 1; id < alloc.Blades(); id++ {
			if err := alloc.SetBladeAvailable(ctrlplane.BladeID(id), available); err != nil {
				t.Fatal(err)
			}
		}
	}
	setOthers(false)
	defer setOthers(true)
	var err error
	if a, err = p.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if b, err = p.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func checkPages(t *testing.T, th *Thread, base mem.VA, pages int, wantOffset uint64) {
	t.Helper()
	for i := 0; i < pages; i++ {
		got, err := th.Load(base + mem.VA(i)*mem.PageSize + 8)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		want := uint64(i) + wantOffset
		if wantOffset == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("page %d = %d, want %d", i, got, want)
		}
	}
}

func TestAddMemBladeHotPlacesNewAllocations(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	p := c.Exec("app")
	// Fill most of blade 0 so the next allocation prefers the new blade.
	if _, err := p.Mmap(1<<27, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	id, err := c.AddMemBlade(0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 || c.MemBladeCount() != 2 {
		t.Fatalf("AddMemBlade id=%d count=%d", id, c.MemBladeCount())
	}
	vma, err := p.Mmap(1<<26, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if home, err := c.Controller().Allocator().Translate(vma.Base); err != nil || home != id {
		t.Fatalf("new allocation on blade %d (%v), want %d", home, err, id)
	}
	// The new blade serves real traffic.
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, th, vma.Base, 4)
	checkPages(t, th, vma.Base, 4, 1)
}

func TestDrainMovesDataAndRetiresBlade(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	p := c.Exec("app")
	alloc := c.Controller().Allocator()

	const pages = 48
	var areas []mem.VMA
	for i := 0; i < 4; i++ {
		vma, err := p.Mmap(pages*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		areas = append(areas, vma)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range areas {
		fillPages(t, th, a.Base, pages)
	}
	// Push dirty data to the memory blades so the victim holds real bytes.
	rep := failoverNow(c.Rack) // resets flush everything; also covers SwapASIC
	if rep.RegionsReset == 0 {
		t.Fatal("failover reset nothing")
	}

	victim := ctrlplane.BladeID(0)
	before := c.MemBlade(0).MaterializedPages() + c.MemBlade(1).MaterializedPages()
	if c.MemBlade(int(victim)).MaterializedPages() == 0 {
		t.Fatal("victim holds no pages; test setup broken")
	}

	drep, err := drainNow(c.Rack, victim)
	if err != nil {
		t.Fatal(err)
	}
	if c.MemBlade(int(victim)).MaterializedPages() != 0 {
		t.Fatalf("drained blade still holds %d pages", c.MemBlade(int(victim)).MaterializedPages())
	}
	if drep.PagesMoved == 0 || drep.Batches == 0 || drep.Blackout() <= 0 {
		t.Fatalf("implausible drain report: %+v", drep)
	}
	if got := c.MemBlade(1).MaterializedPages(); got != before {
		t.Fatalf("survivor holds %d pages, want %d", got, before)
	}
	if !alloc.BladeRetired(victim) {
		t.Fatal("victim not retired")
	}
	// Translation must never resolve to the drained blade.
	for _, a := range areas {
		for i := 0; i < pages; i++ {
			va := a.Base + mem.VA(i)*mem.PageSize
			home, err := alloc.Translate(va)
			if err != nil {
				t.Fatalf("translate %#x: %v", uint64(va), err)
			}
			if home == victim {
				t.Fatalf("%#x still translates to drained blade", uint64(va))
			}
		}
	}
	// All data survived the move, readable from another compute blade.
	th2, err := p.SpawnThread(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range areas {
		checkPages(t, th2, a.Base, pages, 1)
	}
	// And the rack still takes new allocations (on survivors).
	vma, err := p.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if home, _ := alloc.Translate(vma.Base); home == victim {
		t.Fatal("new allocation placed on retired blade")
	}
}

func TestDrainUnderLoadKeepsTrafficFlowing(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	p := c.Exec("app")
	vma, err := p.Mmap(1<<22, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	// A foreground thread streams writes over the area while the drain
	// runs concurrently in virtual time.
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 4000
	i := 0
	th.Start(func() (mem.VA, bool, bool) {
		if i >= ops {
			return 0, false, false
		}
		va := vma.Base + mem.VA((i*7919)%(1<<22))
		i++
		return va, i%2 == 0, true
	}, nil)

	victim, err := c.Controller().Allocator().Translate(vma.Base)
	if err != nil {
		t.Fatal(err)
	}
	var drep DrainReport
	var derr error
	drained := false
	c.Engine().Schedule(50*sim.Microsecond, func() {
		c.drainMemBladeAsync(victim, func(r DrainReport, e error) {
			drep, derr = r, e
			drained = true
		})
	})
	end := c.RunThreads()
	if !drained {
		t.Fatal("drain never completed")
	}
	if derr != nil {
		t.Fatal(derr)
	}
	if th.Ops() != ops {
		t.Fatalf("foreground completed %d/%d ops", th.Ops(), ops)
	}
	if end.Sub(0) <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if c.MemBlade(int(victim)).MaterializedPages() != 0 {
		t.Fatal("drain under load left pages behind")
	}
	if drep.Allocations == 0 {
		t.Fatalf("drain touched no allocations: %+v", drep)
	}
}

// TestDrainBatchTradeoff is the drain throttle's operating curve, which
// DefaultMigrationConfig picks from: a 1024-page blade drains while a
// foreground thread streams accesses over the survivor's vma. A larger
// batch raises drain bandwidth and shortens the blackout, and lowers the
// foreground throughput inside the drain's [Start, End) window.
func TestDrainBatchTradeoff(t *testing.T) {
	const pages, ops = 1024, 20000
	var prevRate, prevBlackout, prevMOPS float64
	for i, batch := range []int{8, 32, 128, 512} {
		c := newTestCluster(t, 2, 2, func(cfg *Config) {
			cfg.CachePagesPerBlade = 512
			cfg.Migration.BatchPages = batch
		})
		proc := c.Exec("drain")
		// Two vmas: least-loaded placement puts one per blade.
		v0, err := proc.Mmap(pages*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := proc.Mmap(pages*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		victim, err := c.Controller().Allocator().Translate(v0.Base)
		if err != nil {
			t.Fatal(err)
		}
		// Preload the victim's vma so the drain moves a full dataset.
		buf := make([]byte, mem.PageSize)
		for p := 0; p < pages; p++ {
			buf[0] = byte(p)
			c.MemBlade(int(victim)).WritePage(v0.Base+mem.VA(p)*mem.PageSize, buf)
		}
		th, err := proc.SpawnThread(0)
		if err != nil {
			t.Fatal(err)
		}
		var issued []sim.Time
		th.Start(func() (mem.VA, bool, bool) {
			j := len(issued)
			if j >= ops {
				return 0, false, false
			}
			issued = append(issued, c.Now())
			return v1.Base + mem.VA((j*7919)%(pages*mem.PageSize)), (j+1)%4 == 0, true
		}, nil)
		var rep DrainReport
		var derr error
		err = c.Pod().DrainMemBladeAt(0, victim, c.Now().Add(100*sim.Microsecond), func(r DrainReport, e error) {
			rep, derr = r, e
		})
		if err != nil {
			t.Fatal(err)
		}
		c.RunThreads()
		if derr != nil || rep.PagesMoved != pages {
			t.Fatalf("batch %d: moved %d pages (%v), want %d", batch, rep.PagesMoved, derr, pages)
		}
		during := 0
		for _, at := range issued {
			if at >= rep.Start && at < rep.End {
				during++
			}
		}
		blackout := rep.Blackout().Seconds() * 1e3 // virtual ms
		rate, mops := pages/blackout, float64(during)/blackout/1e3
		t.Logf("batch %d: %.0f pages/ms, blackout %.3f ms, foreground %.3f MOPS", batch, rate, blackout, mops)
		if i > 0 && (rate <= prevRate || blackout >= prevBlackout || mops >= prevMOPS) {
			t.Errorf("batch %d: %.0f pages/ms, blackout %.3f ms, %.3f MOPS; the smaller batch gave %.0f, %.3f, %.3f",
				batch, rate, blackout, mops, prevRate, prevBlackout, prevMOPS)
		}
		prevRate, prevBlackout, prevMOPS = rate, blackout, mops
	}
}

func TestKillMemBladeLosesDataButRecovers(t *testing.T) {
	c := newTestCluster(t, 1, 2)
	p := c.Exec("app")
	alloc := c.Controller().Allocator()

	const pages = 16
	a, err := p.Mmap(pages*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Mmap(pages*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	homeA, _ := alloc.Translate(a.Base)
	homeB, _ := alloc.Translate(b.Base)
	if homeA == homeB {
		t.Fatalf("test needs areas on distinct blades (got %d, %d)", homeA, homeB)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, th, a.Base, pages)
	fillPages(t, th, b.Base, pages)
	failoverNow(c.Rack) // flush all dirty data to the blades

	krep, err := killNow(c.Rack, homeA)
	if err != nil {
		t.Fatal(err)
	}
	if krep.PagesLost == 0 || krep.Allocations == 0 {
		t.Fatalf("implausible kill report: %+v", krep)
	}
	if krep.Blackout() < c.Config().Migration.DetectionDelay {
		t.Fatalf("blackout %v shorter than detection delay", krep.Blackout())
	}
	// Area A's contents died with the blade: reads are zero.
	checkPages(t, th, a.Base, pages, 0)
	// Area B is untouched.
	checkPages(t, th, b.Base, pages, 1)
	// Translation never resolves to the dead blade; writes to A work again.
	for i := 0; i < pages; i++ {
		va := a.Base + mem.VA(i)*mem.PageSize
		if home, err := alloc.Translate(va); err != nil || home == homeA {
			t.Fatalf("%#x translates to dead blade (%v)", uint64(va), err)
		}
	}
	if err := th.Store(a.Base+8, 77); err != nil {
		t.Fatal(err)
	}
	if got, _ := th.Load(a.Base + 8); got != 77 {
		t.Fatalf("post-recovery store lost: %d", got)
	}
	if !alloc.BladeRetired(homeA) {
		t.Fatal("dead blade not retired")
	}
}

func TestKillSwitchEventMeasuresBlackout(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	p := c.Exec("app")
	vma, err := p.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, th, vma.Base, 8)
	rep := failoverNow(c.Rack)
	if rep.RegionsReset == 0 || rep.Blackout() <= 0 {
		t.Fatalf("implausible failover report: %+v", rep)
	}
	// Data survives failover (flushed during resets, re-fetched after).
	checkPages(t, th, vma.Base, 8, 1)
	// The rack still functions end to end.
	th2, err := p.SpawnThread(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := th2.Store(vma.Base+mem.PageSize+16, 123); err != nil {
		t.Fatal(err)
	}
	if got, _ := th2.Load(vma.Base + mem.PageSize + 16); got != 123 {
		t.Fatalf("post-failover store = %d", got)
	}
}

// TestKillOfMigrationTargetMidDrain is the compound failure: the blade a
// drain is copying pages into dies mid-copy. The drain must terminate
// (in-flight batches are lost with crash semantics, never wedged), and
// after both recoveries complete every address re-homes to the last
// survivor.
func TestKillOfMigrationTargetMidDrain(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 128
	cfg.Migration.BatchPages = 4 // stretch the copy so the kill lands inside it
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	// Materialize the dataset on the victim so the copy takes real time.
	buf := make([]byte, mem.PageSize)
	for i := 0; i < pages; i++ {
		buf[0] = byte(i)
		c.MemBlade(int(victim)).WritePage(vma.Base+mem.VA(i)*mem.PageSize, buf)
	}
	if _, err := c.AddMemBlade(0); err != nil {
		t.Fatal(err)
	}
	target := ctrlplane.BladeID(1 - victim) // the other original blade

	drained, killed := false, false
	var derr error
	c.Engine().Schedule(10*sim.Microsecond, func() {
		c.drainMemBladeAsync(victim, func(r DrainReport, e error) { drained, derr = true, e })
	})
	c.Engine().Schedule(40*sim.Microsecond, func() {
		c.killMemBladeAsync(target, func(KillReport, error) { killed = true })
	})
	for steps := 0; !(drained && killed); steps++ {
		if !c.Engine().Step() || steps > 20_000_000 {
			t.Fatalf("membership events wedged (drained=%v killed=%v)", drained, killed)
		}
	}
	if derr != nil {
		t.Fatalf("drain failed: %v", derr)
	}
	alloc := c.Controller().Allocator()
	if !alloc.BladeRetired(victim) || !alloc.BladeRetired(target) {
		t.Fatal("departed blades not retired")
	}
	if n := c.MemBlade(int(victim)).MaterializedPages(); n != 0 {
		t.Fatalf("drained blade holds %d pages", n)
	}
	for i := 0; i < pages; i++ {
		home, err := alloc.Translate(vma.Base + mem.VA(i)*mem.PageSize)
		if err != nil {
			t.Fatalf("page %d unmapped: %v", i, err)
		}
		if home == victim || home == target {
			t.Fatalf("page %d still routed to departed blade %d", i, home)
		}
	}
	// Pages only materialize at a target at cutover (after the TCAM
	// rewrite commits), so the target's death mid-copy loses nothing:
	// the drain retried onto the added blade and every page survived.
	survivor := c.MemBladeCount() - 1
	if got := c.MemBlade(survivor).MaterializedPages(); got != pages {
		t.Fatalf("%d/%d pages survived the target's death, want all", got, pages)
	}
	// Contents are intact, readable through the re-homed translation.
	th0, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i += 37 {
		got, err := th0.Load(vma.Base + mem.VA(i)*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(byte(i)) {
			t.Fatalf("page %d = %#x after double departure, want %#x", i, got, byte(i))
		}
	}
	// The rack still serves the vma end to end; reads and writes complete.
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store(vma.Base+8, 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := th.Load(vma.Base + 8); got != 9 {
		t.Fatalf("post-recovery store lost: %d", got)
	}
}

// TestKillWithoutSurvivorCapacityForciblyUnmaps: when no survivor can
// host a dead blade's vma, recovery must not strand it translated to
// the dead blade (every fault would hang) — it is forcibly unmapped,
// with its owner's rule, and later accesses are refused at the switch's
// protection check.
func TestKillWithoutSurvivorCapacityForciblyUnmaps(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	cfg.MemoryBladeCapacity = 1 << 22 // 4 MB per blade
	cfg.CachePagesPerBlade = 64
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Exec("app")
	// Two 4 MB vmas fill both blades completely.
	v0, err := p.Mmap(1<<22, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := p.Mmap(1<<22, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	alloc := c.Controller().Allocator()
	home0, _ := alloc.Translate(v0.Base)
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store(v1.Base+8, 11); err != nil {
		t.Fatal(err)
	}

	krep, err := killNow(c.Rack, home0)
	if err != nil {
		t.Fatal(err)
	}
	if krep.VMAsLost != 1 {
		t.Fatalf("VMAsLost = %d, want 1: %+v", krep.VMAsLost, krep)
	}
	if !alloc.BladeRetired(home0) {
		t.Fatal("dead blade not retired")
	}
	// The owner's rule went with the vma, so an access from a blade that
	// never cached the page is refused at the protection check, no wedge.
	if err := c.Controller().Protection().Check(p.PID(), v0.Base, mem.PermReadWrite); !errors.Is(err, ctrlplane.ErrPermission) {
		t.Fatalf("owner's rule over the forcibly-unmapped vma: Check = %v, want ErrPermission", err)
	}
	if err := th.Touch(v0.Base, false); !errors.Is(err, ctrlplane.ErrPermission) {
		t.Fatalf("access to forcibly-unmapped vma = %v, want ErrPermission", err)
	}
	// The survivor's vma is intact.
	if got, err := th.Load(v1.Base + 8); err != nil || got != 11 {
		t.Fatalf("survivor vma: %d, %v", got, err)
	}
}

// TestAbortedDrainRestoresAvailability: a drain that cannot proceed (no
// survivor) must not leave the healthy victim excluded from placement.
func TestAbortedDrainRestoresAvailability(t *testing.T) {
	c := newTestCluster(t, 1, 1) // single blade: nothing to drain onto
	p := c.Exec("app")
	if _, err := p.Mmap(1<<20, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := drainNow(c.Rack, 0); err == nil {
		t.Fatal("drain with no survivor succeeded")
	}
	alloc := c.Controller().Allocator()
	if !alloc.BladeAvailable(0) {
		t.Fatal("aborted drain left the blade unavailable")
	}
	// The rack still places new allocations on it.
	if _, err := p.Mmap(1<<20, mem.PermReadWrite); err != nil {
		t.Fatalf("post-abort allocation failed: %v", err)
	}
}

// TestMunmapDuringDrainSkipsVMA: an application freeing a vma while the
// drain is migrating it must not abort the drain — the freed vma simply
// leaves the work list and the remaining vmas still move.
func TestMunmapDuringDrainSkipsVMA(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 256
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	for steps := 0; !drained; steps++ {
		if !c.Engine().Step() || steps > 20_000_000 {
			t.Fatal("drain wedged after concurrent munmap")
		}
	}
	if derr != nil {
		t.Fatalf("drain aborted by concurrent munmap: %v", derr)
	}
	if drep.Allocations != 1 {
		t.Fatalf("drain relocated %d vmas, want 1 (the survivor)", drep.Allocations)
	}
	alloc := c.Controller().Allocator()
	if !alloc.BladeRetired(0) {
		t.Fatal("victim not retired")
	}
	if n := c.MemBlade(0).MaterializedPages(); n != 0 {
		t.Fatalf("victim still holds %d pages", n)
	}
	// The surviving vma's data moved intact.
	checkPages(t, th, b.Base, pages, 1)
}
