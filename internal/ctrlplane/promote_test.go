package ctrlplane

import (
	"testing"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

func promoAllocator(t *testing.T, bladeCaps []uint64) *Allocator {
	t.Helper()
	a := NewAllocator(switchasic.New(switchasic.DefaultConfig()))
	for _, cap := range bladeCaps {
		if _, err := a.AddBlade(cap); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestLendableBlade(t *testing.T) {
	a := promoAllocator(t, []uint64{1 << 20, 1 << 20, 1 << 20})
	// Highest empty available blade wins.
	id, ok := a.LendableBlade(1<<16, nil)
	if !ok || id != 2 {
		t.Fatalf("LendableBlade = %d, %v; want 2, true", id, ok)
	}
	// A blade with allocations is not lendable; with blade 2 loaded the
	// next candidate down is picked.
	if _, err := a.Alloc(1, 1<<12, mem.PermReadWrite); err != nil {
		t.Fatal(err) // lands on blade 0: every blade is empty, ties go to the lowest id
	}
	if err := a.SetBladeAvailable(2, false); err != nil {
		t.Fatal(err)
	}
	id, ok = a.LendableBlade(1<<16, nil)
	if !ok || id != 1 {
		t.Fatalf("LendableBlade with 2 unavailable = %d, %v; want 1, true", id, ok)
	}
	// Lending must never strand the rack: with one available blade left,
	// nothing is lendable.
	if err := a.SetBladeAvailable(1, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.LendableBlade(1<<12, nil); ok {
		t.Fatal("lent the last available blade")
	}
	// Oversized requests are refused.
	if err := a.SetBladeAvailable(1, true); err != nil {
		t.Fatal(err)
	}
	if err := a.SetBladeAvailable(2, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.LendableBlade(1<<21, nil); ok {
		t.Fatal("lent a blade smaller than the reservation")
	}
}

func TestPlanPromotions(t *testing.T) {
	// Blades 0-1 local, 2-3 "remote". Two vmas on blade 2, one on 3.
	a := promoAllocator(t, []uint64{1 << 20, 1 << 20, 1 << 20, 1 << 20})
	isRemote := func(id BladeID) bool { return id >= 2 }
	remoteVMA := func(blade BladeID, size uint64) mem.VA { return allocOn(t, a, blade, size).Base }
	v2a := remoteVMA(2, 1<<14)
	v2b := remoteVMA(2, 1<<14)
	v3 := remoteVMA(3, 1<<14)

	heat := map[BladeID]uint64{2: 10, 3: 50}
	pol := PromotionPolicy{Threshold: 8}
	plan := a.PlanPromotions(isRemote, func(id BladeID) uint64 { return heat[id] }, pol)
	if len(plan) != 3 {
		t.Fatalf("plan has %d steps, want 3: %+v", len(plan), plan)
	}
	// Hottest blade (3) first, then blade 2's vmas in ascending base.
	if plan[0].Base != v3 || plan[0].From != 3 {
		t.Errorf("step 0 = %+v, want blade 3's vma %#x", plan[0], uint64(v3))
	}
	lo, hi := v2a, v2b
	if hi < lo {
		lo, hi = hi, lo
	}
	if plan[1].Base != lo || plan[2].Base != hi {
		t.Errorf("blade 2 steps out of base order: %+v", plan[1:])
	}
	for _, st := range plan {
		if isRemote(st.To) {
			t.Errorf("promotion target %d is remote", st.To)
		}
	}

	// An unavailable (draining/failed) source blade is owned by its
	// recovery flow: no promotions may be planned off it.
	if err := a.SetBladeAvailable(3, false); err != nil {
		t.Fatal(err)
	}
	draining := a.PlanPromotions(isRemote, func(id BladeID) uint64 { return heat[id] }, pol)
	for _, st := range draining {
		if st.From == 3 {
			t.Fatalf("planned promotion off draining blade 3: %+v", st)
		}
	}
	if err := a.SetBladeAvailable(3, true); err != nil {
		t.Fatal(err)
	}

	// Below threshold: nothing planned.
	cold := a.PlanPromotions(isRemote, func(BladeID) uint64 { return 3 }, pol)
	if len(cold) != 0 {
		t.Errorf("cold plan not empty: %+v", cold)
	}
	// Budget caps the plan.
	capped := a.PlanPromotions(isRemote, func(id BladeID) uint64 { return heat[id] },
		PromotionPolicy{Threshold: 8, MaxVMAs: 1})
	if len(capped) != 1 || capped[0].Base != v3 {
		t.Errorf("capped plan = %+v, want just blade 3's vma", capped)
	}
}

// TestPlanPromotionsNoFitAllocs pins that a vma with no local fit costs
// the planner nothing: it is skipped without an error being built, so
// doubling the skipped vmas adds at most the work list's one more
// doubling (AllocationsOn appends), not an error per vma.
func TestPlanPromotionsNoFitAllocs(t *testing.T) {
	allocs := func(vmas int) float64 {
		// Blade 0 is local and smaller than any vma on remote blade 1.
		a := promoAllocator(t, []uint64{1 << 14, 1 << 22})
		_ = a.SetBladeAvailable(0, false)
		for range vmas {
			if _, err := a.Alloc(1, 1<<15, mem.PermReadWrite); err != nil {
				t.Fatal(err)
			}
		}
		_ = a.SetBladeAvailable(0, true)
		isRemote := func(id BladeID) bool { return id == 1 }
		return testing.AllocsPerRun(50, func() {
			if plan := a.PlanPromotions(isRemote, func(BladeID) uint64 { return 1 }, PromotionPolicy{}); len(plan) != 0 {
				t.Fatalf("planned %+v, but nothing fits", plan)
			}
		})
	}
	if few, many := allocs(16), allocs(32); many > few+1 {
		t.Errorf("PlanPromotions allocates %v with 16 unfit vmas, %v with 32: want at most one more", few, many)
	}
}

// TestAddressStripeBoundsAddBlade pins the pod aliasing guard: an
// allocator confined to a stripe refuses blade partitions that would
// spill past its end into a neighbouring rack's stripe.
func TestAddressStripeBoundsAddBlade(t *testing.T) {
	a := NewAllocator(switchasic.New(switchasic.DefaultConfig()))
	a.SetAddressStripe(1<<40, 1<<22)
	if _, err := a.AddBlade(1 << 21); err != nil {
		t.Fatalf("first blade inside the stripe: %v", err)
	}
	if _, err := a.AddBlade(1 << 21); err != nil {
		t.Fatalf("second blade exactly filling the stripe: %v", err)
	}
	if _, err := a.AddBlade(1 << 12); err == nil {
		t.Fatal("blade past the stripe end was accepted (aliasing hazard)")
	}
}

// TestLendableBladeEligiblePredicate: an ineligible candidate (e.g. a
// blade the rack itself borrowed) is skipped in favour of the next one.
func TestLendableBladeEligiblePredicate(t *testing.T) {
	a := promoAllocator(t, []uint64{1 << 20, 1 << 20, 1 << 20})
	id, ok := a.LendableBlade(1<<16, func(id BladeID) bool { return id != 2 })
	if !ok || id != 1 {
		t.Fatalf("LendableBlade with 2 ineligible = %d, %v; want 1, true", id, ok)
	}
	if _, ok := a.LendableBlade(1<<16, func(BladeID) bool { return false }); ok {
		t.Fatal("all-ineligible predicate still lent a blade")
	}
}
