package core

// Steady-state allocation budget regression tests (the hot-path contract
// DESIGN.md documents): a cache hit allocates nothing, and a full
// blocking-fault round trip through fabric, directory, invalidation and
// fault machinery allocates nothing either once the pools are warm (the
// directory's per-request `pending` record is pooled as of PR 4).

import (
	"testing"

	"mind/internal/computeblade"
	"mind/internal/mem"
)

// allocCluster builds a small warm rack for allocation measurements.
func allocCluster(t *testing.T) (*Cluster, *Process, mem.VMA) {
	t.Helper()
	cfg := DefaultConfig(2, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 1024
	cfg.DisableSplitting = true // no epoch series appends mid-measurement
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Exec("allocs")
	vma, err := p.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	return c, p, vma
}

// TestAllocsCacheHit pins the cache-hit access path at zero allocations.
func TestAllocsCacheHit(t *testing.T) {
	c, p, vma := allocCluster(t)
	blade := c.Blade(0)
	// Fault the page in once.
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Touch(vma.Base, true); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if !blade.TryHit(vma.Base, false) {
			t.Fatal("expected cache hit")
		}
	}); avg != 0 {
		t.Errorf("cache-hit access allocates %v/op, want 0", avg)
	}
}

// TestAllocsBlockingFault pins the steady-state remote-fault round trip.
// Two blades write-ping-pong one page, so every access is an M->M
// transition: fault entry, request through the switch, an invalidation
// multicast to the old owner (flush + ACK), the memory fetch, and the
// PTE install. Everything on the path — events, faults, pendings,
// invalidation jobs, ACK contexts, fabric jobs — is pooled, so the
// budget is zero.
func TestAllocsBlockingFault(t *testing.T) {
	c, p, vma := allocCluster(t)
	var done bool
	cb := func(computeblade.AccessResult) { done = true }
	turn := 0
	roundTrip := func() {
		done = false
		b := c.Blade(turn % 2)
		turn++
		if hit := b.Access(p.PID(), vma.Base, true, cb); hit {
			t.Fatal("expected a miss (ownership should have moved)")
		}
		for !done {
			if !c.Engine().Step() {
				t.Fatal("engine drained before fault completed")
			}
		}
	}
	// Warm every pool (fault objects, pendings, events, inv jobs, ack
	// contexts, fabric jobs) and the region's sharer bitmap.
	for i := 0; i < 32; i++ {
		roundTrip()
	}
	// Zero budget: with the directory pending pooled (PR 4), a steady
	// M->M ownership ping-pong allocates nothing at all.
	const budget = 0.0
	if avg := testing.AllocsPerRun(500, roundTrip); avg > budget {
		t.Errorf("blocking fault round trip allocates %v/op, budget %v", avg, budget)
	}
}
