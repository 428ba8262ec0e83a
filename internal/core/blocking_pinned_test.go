package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
)

// blockingRun drives a 2-rack pod through a script of blocking calls made
// from the test goroutine — an Mmap that borrows, stores and loads on the
// borrowed area, a drain of the lease, a switch failover on the lender —
// and ends on a short closed-loop run. It returns the run's finish time,
// each engine's executed-event count and dispatch hash, and the merged
// counter snapshot.
func blockingRun(t *testing.T, workers int) (sim.Time, []uint64, []uint64, map[string]uint64) {
	t.Helper()
	pod, err := NewPod(PodConfig{
		Racks:     []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024)},
		Promotion: PromotionConfig{Disable: true},
		Workers:   workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pod.Racks(); i++ {
		pod.Rack(i).Engine().EnableDispatchHash()
	}
	r0 := pod.Rack(0)
	p := r0.Exec("blocking")
	filler, err := p.Mmap(900*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 400
	vma, err := p.Mmap(pages*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if r0.BorrowedBlades() != 1 {
		t.Fatalf("setup: rack 0 borrowed %d blades, want 1", r0.BorrowedBlades())
	}
	victim := borrowedBladeID(t, r0)
	// The drain needs local room for the displaced vma.
	if err := p.Munmap(filler.Base); err != nil {
		t.Fatal(err)
	}

	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1021, "blocking-pin")
	addr := func(i int) mem.VA { return vma.Base + mem.VA(i*mem.PageSize+i%8*8) }
	const stores = 300
	for i := 0; i < stores; i++ {
		if err := th.Store(addr(i), uint64(i)*7+1); err != nil {
			t.Fatal(err)
		}
		if rng.Bool(0.5) {
			j := rng.Intn(i + 1)
			if v, err := th.Load(addr(j)); err != nil || v != uint64(j)*7+1 {
				t.Fatalf("load %d = %d, %v; want %d", j, v, err, uint64(j)*7+1)
			}
		}
	}

	if _, err := r0.DrainMemBlade(victim); err != nil {
		t.Fatalf("drain of the lease: %v", err)
	}
	if pod.Leases() != 0 {
		t.Fatalf("Leases() = %d after the drain, want 0", pod.Leases())
	}
	// The failover on rack 1 has regions to reset: its own process
	// touches a local area first.
	lp := pod.Rack(1).Exec("local")
	local, err := lp.Mmap(128*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	lth, err := lp.SpawnThread(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := lth.Store(local.Base+mem.VA(i*mem.PageSize), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if rep := pod.Rack(1).KillSwitch(); rep.RegionsReset == 0 || rep.Blackout() <= 0 {
		t.Fatalf("implausible failover report: %+v", rep)
	}
	for i := 0; i < stores; i += 37 {
		if v, err := th.Load(addr(i)); err != nil || v != uint64(i)*7+1 {
			t.Fatalf("after the drain, load %d = %d, %v; want %d", i, v, err, uint64(i)*7+1)
		}
	}

	for ri, area := range []struct {
		p   *Process
		vma mem.VMA
	}{{p, vma}, {lp, local}} {
		n := area.vma.Len / mem.PageSize
		for b := 0; b < 2; b++ {
			th, err := area.p.SpawnThread(b)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(uint64(ri*2+b), "blocking-pin-threads")
			left := 400
			th.Start(func() (mem.VA, bool, bool) {
				if left == 0 {
					return 0, false, false
				}
				left--
				return area.vma.Base + mem.VA(rng.Uint64n(n)*mem.PageSize), rng.Bool(0.3), true
			}, nil)
		}
	}
	end := pod.RunThreads()

	execs := make([]uint64, pod.Racks())
	hashes := make([]uint64, pod.Racks())
	for i := range execs {
		execs[i] = pod.Rack(i).Engine().Executed
		hashes[i] = pod.Rack(i).Engine().DispatchHash()
	}
	return end, execs, hashes, pod.Collector().Snapshot()
}

// snapHash hashes a counter snapshot in key order.
func snapHash(snap map[string]uint64) uint64 {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, snap[k])
	}
	return h.Sum64()
}

// TestBlockingWaitsAnyWorkers: blocking calls made from outside the
// simulation drive the pod like any other run, so the script of
// blockingRun must give the same simulation at every worker count — the
// same finish time, per-engine event counts and dispatch sequences, and
// merged counters. The Workers-1 constants pin the script itself.
func TestBlockingWaitsAnyWorkers(t *testing.T) {
	end1, exec1, hash1, snap1 := blockingRun(t, 1)
	got := fmt.Sprintf("%d / %v / %016x %016x / %016x", int64(end1), exec1, hash1[0], hash1[1], snapHash(snap1))
	const want = "15046219 / [13298 11889] / 8f9a48075c15d02a f229d128d1d1da3b / f0b7a11686080904"
	if got != want {
		t.Errorf("workers=1: end / executed / dispatch hashes / counters = %s, want %s", got, want)
	}
	for _, workers := range []int{2, 4} {
		end, exec, hash, snap := blockingRun(t, workers)
		if end != end1 {
			t.Errorf("workers=%d: end %v, serial %v", workers, end, end1)
		}
		for i := range exec {
			if exec[i] != exec1[i] || hash[i] != hash1[i] {
				t.Errorf("workers=%d rack %d: executed/hash %d/%#x, serial %d/%#x",
					workers, i, exec[i], hash[i], exec1[i], hash1[i])
			}
		}
		if len(snap) != len(snap1) {
			t.Errorf("workers=%d: counter sets differ: %d vs %d", workers, len(snap), len(snap1))
		}
		for k, v := range snap1 {
			if snap[k] != v {
				t.Errorf("workers=%d: counter %q = %d, serial %d", workers, k, snap[k], v)
			}
		}
	}
}
