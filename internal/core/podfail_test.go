package core

// Pod-scale failure injection: liveness of repeated kills (a dead or
// retired blade is an explicit error, never a panic or a wedge), drain
// of a borrowed blade, and the genuinely cross-rack failure — a
// lender's blade dying while the borrower holds pages on it.

import (
	"strings"
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// drainNow, killNow and failoverNow register a membership event on c at
// the current instant, so it starts inline, and drive the pod until it
// completes.
func drainNow(c *Rack, victim ctrlplane.BladeID) (rep DrainReport, err error) {
	c.await(func(done func()) {
		mustRegister(c.pod.DrainMemBladeAt(c.idx, victim, c.Now(), func(r DrainReport, e error) {
			rep, err = r, e
			done()
		}))
	})
	return rep, err
}

func killNow(c *Rack, victim ctrlplane.BladeID) (rep KillReport, err error) {
	c.await(func(done func()) {
		mustRegister(c.pod.KillMemBladeAt(c.idx, victim, c.Now(), func(r KillReport, e error) {
			rep, err = r, e
			done()
		}))
	})
	return rep, err
}

func failoverNow(c *Rack) (rep SwitchFailoverReport) {
	c.await(func(done func()) {
		mustRegister(c.pod.KillSwitchAt(c.idx, c.Now(), func(r SwitchFailoverReport, _ error) {
			rep = r
			done()
		}))
	})
	return rep
}

// mustRegister panics on a registration error; an event at the current
// instant on its own rack has none.
func mustRegister(err error) {
	if err != nil {
		panic(err)
	}
}

// TestKillMemBladeLiveness: killing a blade that is unknown, already
// dead, or retired returns an explicit error instead of panicking or
// re-running recovery over a corpse.
func TestKillMemBladeLiveness(t *testing.T) {
	c := newTestCluster(t, 1, 3)
	p := c.Exec("app")
	if _, err := p.Mmap(1<<20, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}

	if _, err := killNow(c.Rack, 0); err != nil {
		t.Fatalf("first kill: %v", err)
	}
	if _, err := killNow(c.Rack, 0); err == nil || !strings.Contains(err.Error(), "already dead") {
		t.Fatalf("second kill of blade 0: err = %v, want already-dead error", err)
	}
	if _, err := killNow(c.Rack, 99); err == nil || !strings.Contains(err.Error(), "no memory blade") {
		t.Fatalf("kill of unknown blade: err = %v, want no-such-blade error", err)
	}

	// A drained (retired but healthy) blade is equally unkillable.
	if _, err := drainNow(c.Rack, 1); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := killNow(c.Rack, 1); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("kill of retired blade: err = %v, want retired error", err)
	}

	// The rack still works end to end on the survivor.
	vma, err := p.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store(vma.Base+8, 5); err != nil {
		t.Fatal(err)
	}
}

// borrowedBladeID returns the id of the rack's (single) live borrowed
// blade, or fails the test.
func borrowedBladeID(t *testing.T, r *Rack) ctrlplane.BladeID {
	t.Helper()
	alloc := r.Controller().Allocator()
	for id := 0; id < r.MemBladeCount(); id++ {
		bid := ctrlplane.BladeID(id)
		if r.remoteBlade(bid) && !alloc.BladeRetired(bid) {
			return bid
		}
	}
	t.Fatal("rack holds no live borrowed blade")
	return 0
}

// TestDrainBorrowedBladeMovesDataAndReleasesLease: draining a borrowed
// blade is a supported retirement path — the cross-rack-aware copy
// moves every page back to local memory, the TCAM rewrites are local to
// the borrower, and finishing the drain releases the lease.
func TestDrainBorrowedBladeMovesDataAndReleasesLease(t *testing.T) {
	pod := newTestPod(t, PromotionConfig{Disable: true})
	r0 := pod.Rack(0)
	p := r0.Exec("borrower")

	filler, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	work, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r0.BorrowedBlades() != 1 {
		t.Fatalf("borrowed=%d, want 1", r0.BorrowedBlades())
	}
	victim := borrowedBladeID(t, r0)

	const pages = 24
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, th, work.Base, pages)
	failoverNow(r0) // flush dirty pages down to the borrowed blade
	if r0.MemBlade(int(victim)).MaterializedPages() == 0 {
		t.Fatal("setup: borrowed blade holds no pages")
	}

	// Free local capacity so the drain has somewhere to move the pages.
	if err := p.Munmap(filler.Base); err != nil {
		t.Fatal(err)
	}
	drep, err := drainNow(r0, victim)
	if err != nil {
		t.Fatalf("drain of borrowed blade: %v", err)
	}
	if drep.PagesMoved == 0 || drep.Blackout() <= 0 {
		t.Fatalf("implausible drain report: %+v", drep)
	}
	if r0.BorrowedBlades() != 0 || pod.Leases() != 0 {
		t.Fatalf("lease not released: borrowed=%d leases=%d", r0.BorrowedBlades(), pod.Leases())
	}
	alloc := r0.Controller().Allocator()
	if !alloc.BladeRetired(victim) {
		t.Fatal("drained borrowed blade not retired")
	}
	for i := 0; i < pages; i++ {
		home, err := alloc.Translate(work.Base + mem.VA(i)*mem.PageSize)
		if err != nil {
			t.Fatalf("translate page %d: %v", i, err)
		}
		if r0.remoteBlade(home) {
			t.Fatalf("page %d still homed on a remote blade after drain", i)
		}
	}
	// Data survived the move home.
	checkPages(t, th, work.Base, pages, 1)
}

// TestCrossRackDrainDirections drains in the two directions no other
// run takes — every other cross-rack copy goes from a borrowed blade to
// a local one — on two workers, so the copy's legs run on both racks'
// shards: a local blade onto a borrowed one (the source leg starts on
// the coordinator, the ack returns from the lender), and a borrowed
// blade onto another lent by the same rack (both legs on the lender).
// Every value must read back, and the lease that receives the data is
// kept.
func TestCrossRackDrainDirections(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup maps the borrower's vmas and returns the drain victim and
		// the vma whose values move with it.
		setup func(t *testing.T, r0 *Rack, p *Process) (victim ctrlplane.BladeID, data mem.VA)
		pages int
	}{
		{
			name: "local onto borrowed",
			setup: func(t *testing.T, r0 *Rack, p *Process) (ctrlplane.BladeID, mem.VA) {
				// work and filler fill the 1024-page local blade, so spill
				// borrows; with filler gone, work fits beside spill.
				work := mustMmap(t, p, 512)
				filler := mustMmap(t, p, 512)
				mustMmap(t, p, 256) // spill
				if err := p.Munmap(filler.Base); err != nil {
					t.Fatal(err)
				}
				return 0, work.Base
			},
			pages: 300,
		},
		{
			name: "borrowed onto borrowed",
			setup: func(t *testing.T, r0 *Rack, p *Process) (ctrlplane.BladeID, mem.VA) {
				mustMmap(t, p, 1024) // fills the local blade
				work := mustMmap(t, p, 512)
				victim := borrowedBladeID(t, r0)
				// A vma too big for the first lease's free half borrows a
				// second blade from the same lender; unmapped, it leaves
				// that blade empty and leased.
				big := mustMmap(t, p, 1024)
				if err := p.Munmap(big.Base); err != nil {
					t.Fatal(err)
				}
				return victim, work.Base
			},
			pages: 200,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pod, err := NewPod(PodConfig{
				Racks:     []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024)},
				Promotion: PromotionConfig{Disable: true},
				Workers:   2,
			})
			if err != nil {
				t.Fatal(err)
			}
			r0 := pod.Rack(0)
			p := r0.Exec("borrower")
			victim, data := tc.setup(t, r0, p)
			th, err := p.SpawnThread(0)
			if err != nil {
				t.Fatal(err)
			}
			fillPages(t, th, data, tc.pages)
			drep, err := drainNow(r0, victim)
			if err != nil {
				t.Fatalf("drain of blade %d: %v", victim, err)
			}
			if drep.PagesMoved < tc.pages {
				t.Fatalf("drain moved %d pages, want at least %d", drep.PagesMoved, tc.pages)
			}
			alloc := r0.Controller().Allocator()
			if !alloc.BladeRetired(victim) {
				t.Fatalf("drained blade %d not retired", victim)
			}
			home, err := alloc.Translate(data)
			if err != nil {
				t.Fatal(err)
			}
			if !r0.remoteBlade(home) || home == victim {
				t.Fatalf("data homed on blade %d after the drain, want a borrowed blade other than %d", home, victim)
			}
			if pod.Leases() != 1 || r0.BorrowedBlades() != 1 {
				t.Fatalf("leases=%d borrowed=%d, want 1/1", pod.Leases(), r0.BorrowedBlades())
			}
			checkPages(t, th, data, tc.pages, 1)
		})
	}
}

// mustMmap maps a read-write vma of the given number of pages.
func mustMmap(t *testing.T, p *Process, pages uint64) mem.VMA {
	t.Helper()
	vma, err := p.Mmap(pages*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	return vma
}

// TestPodKillBorrowedBladeRecovers is the cross-rack failure the pod
// injector exists for: the physical device lives in the lender, the
// pages belong to the borrower. The kill blackens the lender's fabric
// port and wipes the device; after the detection delay the borrower
// re-homes the vma locally (its contents read zero — the pages died
// with the blade), the lease is retired, and untouched local data is
// intact.
func TestPodKillBorrowedBladeRecovers(t *testing.T) {
	pod := newTestPod(t, PromotionConfig{Disable: true})
	r0 := pod.Rack(0)
	p := r0.Exec("borrower")

	// Exact power-of-two areas fill the 1024-page local blade (the
	// allocator's TCAM ranges round to pow2): 256 + 512 + 256 = 1024,
	// so the working vma must borrow.
	keep, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	filler, err := p.Mmap(512*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	work, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r0.BorrowedBlades() != 1 {
		t.Fatalf("borrowed=%d, want 1", r0.BorrowedBlades())
	}
	victim := borrowedBladeID(t, r0)
	ownNode := r0.mem[int(victim)].node

	const pages = 16
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	fillPages(t, th, keep.Base, pages)
	fillPages(t, th, work.Base, pages)
	failoverNow(r0) // flush dirty pages down to the blades
	if r0.MemBlade(int(victim)).MaterializedPages() == 0 {
		t.Fatal("setup: borrowed blade holds no pages")
	}
	// Free local capacity so recovery can re-home the borrowed vma.
	if err := p.Munmap(filler.Base); err != nil {
		t.Fatal(err)
	}

	var krep KillReport
	var kerr error
	done := false
	at := pod.Now().Add(20 * sim.Microsecond)
	if err := pod.KillMemBladeAt(0, victim, at, func(r KillReport, e error) {
		krep, kerr, done = r, e, true
	}); err != nil {
		t.Fatal(err)
	}
	pod.AdvanceTime(2 * sim.Millisecond)
	if !done {
		t.Fatal("kill recovery never completed")
	}
	if kerr != nil {
		t.Fatalf("kill: %v", kerr)
	}
	if krep.PagesLost == 0 || krep.Allocations == 0 || krep.VMAsLost != 0 {
		t.Fatalf("implausible kill report: %+v", krep)
	}
	if krep.Blackout() < r0.Config().Migration.DetectionDelay {
		t.Fatalf("blackout %v shorter than detection delay", krep.Blackout())
	}
	// The lender's fabric port for the dead device is black.
	if !pod.Rack(1).fab.NodeDead(ownNode) {
		t.Fatal("lender fabric port not marked dead")
	}
	// The lease is retired, not returned.
	if r0.BorrowedBlades() != 0 || pod.Leases() != 0 {
		t.Fatalf("lease not retired: borrowed=%d leases=%d", r0.BorrowedBlades(), pod.Leases())
	}
	alloc := r0.Controller().Allocator()
	if !alloc.BladeRetired(victim) {
		t.Fatal("dead borrowed blade not retired")
	}
	// The borrowed vma re-homed locally and its contents died.
	for i := 0; i < pages; i++ {
		home, err := alloc.Translate(work.Base + mem.VA(i)*mem.PageSize)
		if err != nil {
			t.Fatalf("translate page %d: %v", i, err)
		}
		if r0.remoteBlade(home) {
			t.Fatalf("page %d still homed remotely after kill", i)
		}
	}
	checkPages(t, th, work.Base, pages, 0)
	// Untouched local data survived; the vma serves new writes.
	checkPages(t, th, keep.Base, pages, 1)
	if err := th.Store(work.Base+8, 42); err != nil {
		t.Fatal(err)
	}
	if got, _ := th.Load(work.Base + 8); got != 42 {
		t.Fatalf("post-recovery store lost: %d", got)
	}
}

// TestInlineKillOfBorrowedBlade: a kill registered at the current
// instant starts before the call returns. The injector blackens the
// borrowed victim's port in the lender's fabric and the borrower loses
// the contents at once; recovery then runs as borrower events and
// retires the lease.
func TestInlineKillOfBorrowedBlade(t *testing.T) {
	pod := newTestPod(t, PromotionConfig{Disable: true})
	r0 := pod.Rack(0)
	p := r0.Exec("borrower")
	if _, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	victim := borrowedBladeID(t, r0)
	node := r0.mem[int(victim)].node

	var kerr error
	done := false
	if err := pod.KillMemBladeAt(0, victim, pod.Now(), func(_ KillReport, e error) { kerr, done = e, true }); err != nil {
		t.Fatal(err)
	}
	if !pod.Rack(1).fab.NodeDead(node) || !r0.mem[int(victim)].dead || r0.fab.NodeDead(node) {
		t.Fatalf("inline kill: lender port dead %v, borrower saw the death %v, borrower fabric touched %v",
			pod.Rack(1).fab.NodeDead(node), r0.mem[int(victim)].dead, r0.fab.NodeDead(node))
	}
	pod.AdvanceTime(2 * sim.Millisecond)
	if !done || kerr != nil {
		t.Fatalf("recovery done %v, err %v", done, kerr)
	}
	if pod.Leases() != 0 {
		t.Fatalf("lease not retired: %d leases", pod.Leases())
	}
}

// TestPodFaultValidation: fault registration rejects unknown racks and
// times in the past, and a fault on a bogus blade reports its error
// through the completion callback without disturbing the pod.
func TestPodFaultValidation(t *testing.T) {
	pod := newTestPod(t, PromotionConfig{Disable: true})
	nop := func(KillReport, error) {}
	if err := pod.KillMemBladeAt(5, 0, pod.Now().Add(time1us), nop); err == nil {
		t.Error("kill on unknown rack accepted")
	}
	if err := pod.KillMemBladeAt(-1, 0, pod.Now().Add(time1us), nop); err == nil {
		t.Error("kill on negative rack accepted")
	}
	pod.AdvanceTime(10 * sim.Microsecond)
	if err := pod.KillMemBladeAt(0, 0, 0, nop); err == nil {
		t.Error("kill in the past accepted")
	}

	var kerr error
	fired := false
	at := pod.Now().Add(5 * sim.Microsecond)
	if err := pod.KillMemBladeAt(0, 77, at, func(_ KillReport, e error) { kerr, fired = e, true }); err != nil {
		t.Fatal(err)
	}
	pod.AdvanceTime(50 * sim.Microsecond)
	if !fired {
		t.Fatal("invalid-blade kill never reported")
	}
	if kerr == nil || !strings.Contains(kerr.Error(), "no memory blade") {
		t.Fatalf("invalid-blade kill err = %v", kerr)
	}
}

const time1us = sim.Microsecond

// TestConcurrentBorrowedRetirements: two memory-poor racks lose their
// borrowed blades at the same instant — killed, or drained — while the
// pod executes windows on two workers. Retiring a lease is rack-local
// work: no rack event may write pod state, so the run is race-free (run
// it under -race) and every lease is gone afterwards.
func TestConcurrentBorrowedRetirements(t *testing.T) {
	for _, mode := range []string{"kill", "drain"} {
		t.Run(mode, func(t *testing.T) {
			pod, err := NewPod(PodConfig{
				Racks: []Config{
					podRackConfig(2, 1, 1024),
					podRackConfig(2, 1, 1024),
					podRackConfig(2, 3, 1024),
					podRackConfig(2, 3, 1024),
				},
				Promotion: PromotionConfig{Disable: true},
				Workers:   2,
			})
			if err != nil {
				t.Fatal(err)
			}
			var victims [2]ctrlplane.BladeID
			for i := range victims {
				r := pod.Rack(i)
				p := r.Exec("borrower")
				filler, err := p.Mmap(900*mem.PageSize, mem.PermReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Mmap(400*mem.PageSize, mem.PermReadWrite); err != nil {
					t.Fatal(err)
				}
				if r.BorrowedBlades() != 1 {
					t.Fatalf("setup: rack %d borrowed %d blades, want 1", i, r.BorrowedBlades())
				}
				victims[i] = borrowedBladeID(t, r)
				if mode == "drain" {
					// A drain needs local room for the displaced vma.
					if err := p.Munmap(filler.Base); err != nil {
						t.Fatal(err)
					}
				}
			}
			if pod.Leases() != 2 {
				t.Fatalf("setup: %d leases, want 2", pod.Leases())
			}

			at := pod.Now().Add(20 * sim.Microsecond)
			for i, victim := range victims {
				var err error
				if mode == "kill" {
					err = pod.KillMemBladeAt(i, victim, at, func(_ KillReport, e error) {
						if e != nil {
							t.Errorf("rack %d kill: %v", i, e)
						}
					})
				} else {
					err = pod.DrainMemBladeAt(i, victim, at, func(_ DrainReport, e error) {
						if e != nil {
							t.Errorf("rack %d drain: %v", i, e)
						}
					})
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			pod.AdvanceTime(2 * sim.Millisecond)

			if pod.Leases() != 0 {
				t.Errorf("Leases() = %d after both borrowed blades departed, want 0", pod.Leases())
			}
			for i, victim := range victims {
				r := pod.Rack(i)
				if !r.Controller().Allocator().BladeRetired(victim) {
					t.Errorf("rack %d: departed blade %d not retired", i, victim)
				}
				if r.BorrowedBlades() != 0 {
					t.Errorf("rack %d still counts %d borrowed blades", i, r.BorrowedBlades())
				}
			}
			col := pod.Collector()
			if k, r := col.Counter(stats.CtrBladeKills), col.Counter(stats.CtrBladeRecoveries); k != r {
				t.Errorf("blade_kills = %d, blade_recoveries = %d", k, r)
			}
		})
	}
}

// TestOverlappingSwitchFailoversJoin: a switch that is already failing
// over cannot die again. A second KillSwitchAt inside the first one's
// blackout joins the failover in flight — one sweep, one kill counted —
// and both callbacks fire with the same report. (Two sweeps interleaved
// would lift each other's freeze and swap the ASIC under live regions.)
func TestOverlappingSwitchFailoversJoin(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	p := c.Exec("app")
	const pages = 256
	vma, err := p.Mmap(pages*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	stride(t, p, 0, 4000, []mem.VMA{vma}, pages)
	stride(t, p, 1, 4000, []mem.VMA{vma}, pages)

	var reps []SwitchFailoverReport
	for _, d := range []sim.Duration{100 * sim.Microsecond, 120 * sim.Microsecond} {
		if err := c.Pod().KillSwitchAt(0, c.Now().Add(d), func(r SwitchFailoverReport, e error) {
			if e != nil {
				t.Errorf("failover: %v", e)
			}
			reps = append(reps, r)
		}); err != nil {
			t.Fatal(err)
		}
	}
	c.RunThreads()
	if len(reps) != 2 {
		t.Fatalf("%d failover callbacks fired, want 2", len(reps))
	}
	if reps[0] != reps[1] {
		t.Errorf("overlapping failovers reported different outages:\n%+v\n%+v", reps[0], reps[1])
	}
	if reps[0].RegionsReset == 0 || reps[0].Blackout() <= 20*sim.Microsecond {
		t.Fatalf("the second failover did not land inside the first: %+v", reps[0])
	}
	col := c.Collector()
	if k, r := col.Counter(stats.CtrBladeKills), col.Counter(stats.CtrBladeRecoveries); k != 1 || r != 1 {
		t.Errorf("blade_kills = %d, blade_recoveries = %d, want 1 and 1", k, r)
	}
}

// TestKillDuringBorrowedFlushCompletes: a kill that lands while a
// drain's flush is in flight to the same borrowed blade must not wedge
// the drain. The compute blade's flush writeback reaches the lender
// after the blade's port went black; it must still complete (counted as
// a lost write), so the reset ACKs, the range thaws and the drain
// reports. The offsets scan the whole flush window in 250 ns steps.
func TestKillDuringBorrowedFlushCompletes(t *testing.T) {
	var wedged []sim.Duration
	for d := sim.Duration(0); d <= 40*sim.Microsecond; d += 250 * sim.Nanosecond {
		pod := newTestPod(t, PromotionConfig{Disable: true})
		r0 := pod.Rack(0)
		p := r0.Exec("borrower")
		filler, err := p.Mmap(1024*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		work, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		victim := borrowedBladeID(t, r0)
		th, err := p.SpawnThread(0)
		if err != nil {
			t.Fatal(err)
		}
		fillPages(t, th, work.Base, 24)
		if err := p.Munmap(filler.Base); err != nil {
			t.Fatal(err)
		}
		drained, killed := false, false
		at := pod.Now().Add(20 * sim.Microsecond)
		if err := pod.DrainMemBladeAt(0, victim, at, func(DrainReport, error) { drained = true }); err != nil {
			t.Fatal(err)
		}
		if err := pod.KillMemBladeAt(0, victim, at.Add(d), func(KillReport, error) { killed = true }); err != nil {
			t.Fatal(err)
		}
		pod.AdvanceTime(20 * sim.Millisecond)
		if !drained || !killed || r0.Directory().FrozenRanges() != 0 {
			wedged = append(wedged, d)
		}
	}
	if len(wedged) != 0 {
		t.Fatalf("%d kill offsets wedged the drain (report missing or range frozen): %v", len(wedged), wedged)
	}
}

// TestKillOfLentBladeIsRackLocal: a lender that kills the id it lent
// away, in the same instant as the borrower kills the blade, is told the
// id is retired at any worker count. The lender must not read the
// blade's own state: its store belongs to the borrower's shard, which
// may run its kill first, after, or at the same time.
func TestKillOfLentBladeIsRackLocal(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pod, err := NewPod(PodConfig{
			Racks:     []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 2, 1024)},
			Promotion: PromotionConfig{Disable: true},
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		r0, r1 := pod.Rack(0), pod.Rack(1)
		p := r0.Exec("borrower")
		if _, err := p.Mmap(900*mem.PageSize, mem.PermReadWrite); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Mmap(400*mem.PageSize, mem.PermReadWrite); err != nil {
			t.Fatal(err)
		}
		borrowed := borrowedBladeID(t, r0)
		lent := -1
		for id := 0; id < r1.MemBladeCount(); id++ {
			if r1.MemBlade(id) == r0.MemBlade(int(borrowed)) {
				lent = id
			}
		}
		if lent < 0 {
			t.Fatal("setup: lender holds no entry for the lent blade")
		}
		var lenderErr error
		at := pod.Now().Add(20 * sim.Microsecond)
		if err := pod.KillMemBladeAt(1, ctrlplane.BladeID(lent), at, func(_ KillReport, e error) { lenderErr = e }); err != nil {
			t.Fatal(err)
		}
		if err := pod.KillMemBladeAt(0, borrowed, at, func(_ KillReport, e error) {
			if e != nil {
				t.Errorf("workers=%d: borrower kill: %v", workers, e)
			}
		}); err != nil {
			t.Fatal(err)
		}
		pod.AdvanceTime(2 * sim.Millisecond)
		if lenderErr == nil || !strings.Contains(lenderErr.Error(), "retired") {
			t.Errorf("workers=%d: lender kill of its lent id: err = %v, want retired error", workers, lenderErr)
		}
	}
}
