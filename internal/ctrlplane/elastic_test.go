package ctrlplane

import (
	"errors"
	"testing"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

func TestSetBladeAvailableExcludesFromPlacement(t *testing.T) {
	a, _ := newAlloc(t, 2, 1<<30)
	if err := a.SetBladeAvailable(1, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v, err := a.Alloc(1, 1<<20, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if _, blade, _ := a.Lookup(v.Base); blade != 0 {
			t.Fatalf("allocation %d placed on unavailable blade %d", i, blade)
		}
	}
	if a.AvailableBlades() != 1 {
		t.Fatalf("AvailableBlades = %d, want 1", a.AvailableBlades())
	}
	if err := a.SetBladeAvailable(7, false); !errors.Is(err, ErrNoSuchBlade) {
		t.Fatalf("unknown blade: err = %v", err)
	}
}

func TestPlanDrainDeterministicAndBalanced(t *testing.T) {
	a, _ := newAlloc(t, 3, 1<<30)
	// Six vmas on blade 0.
	var bases []mem.VA
	for i := 0; i < 6; i++ {
		bases = append(bases, allocOn(t, a, 0, 4<<20).Base)
	}
	if err := a.SetBladeAvailable(0, false); err != nil {
		t.Fatal(err)
	}
	steps, err := a.PlanDrain(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 6 {
		t.Fatalf("plan has %d steps, want 6", len(steps))
	}
	// Steps are ordered by base, and load balances across blades 1 and 2.
	toCount := map[BladeID]int{}
	for i, s := range steps {
		if s.Base != bases[i] {
			t.Fatalf("step %d migrates %#x, want %#x (base order)", i, uint64(s.Base), uint64(bases[i]))
		}
		if s.From != 0 {
			t.Fatalf("step %d From = %d", i, s.From)
		}
		if s.To == 0 {
			t.Fatalf("step %d targets the victim", i)
		}
		toCount[s.To]++
	}
	if toCount[1] != 3 || toCount[2] != 3 {
		t.Fatalf("unbalanced plan: %v", toCount)
	}
	// Planning twice yields the identical plan (deterministic).
	steps2, err := a.PlanDrain(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range steps {
		if steps[i] != steps2[i] {
			t.Fatalf("plan not deterministic at step %d: %v vs %v", i, steps[i], steps2[i])
		}
	}
}

func TestPlanDrainRequiresUnavailableVictim(t *testing.T) {
	a, _ := newAlloc(t, 2, 1<<30)
	if _, err := a.PlanDrain(0); err == nil {
		t.Fatal("plan for still-available victim accepted")
	}
}

func TestPlanDrainFailsWithoutSurvivorCapacity(t *testing.T) {
	a, _ := newAlloc(t, 2, 1<<22)
	// Fill both blades completely.
	for i := 0; i < 2; i++ {
		if _, err := a.Alloc(1, 1<<22, mem.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetBladeAvailable(0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PlanDrain(0); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("overcommitted drain err = %v, want ErrNoMemory", err)
	}
}

func TestRetireBladeWithdrawsPartitionRule(t *testing.T) {
	a, asic := newAlloc(t, 2, 1<<26)
	v, err := a.Alloc(1, 1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RetireBlade(0); !errors.Is(err, ErrBladeBusy) {
		t.Fatalf("retire of loaded blade err = %v, want ErrBladeBusy", err)
	}
	if err := a.SetBladeAvailable(0, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(v.Base, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.RetireBlade(0); err != nil {
		t.Fatal(err)
	}
	if !a.BladeRetired(0) || a.BladeAvailable(0) {
		t.Fatal("blade 0 not retired/unavailable")
	}
	// The migrated vma still translates — to the survivor.
	if got, err := a.Translate(v.Base); err != nil || got != 1 {
		t.Fatalf("Translate = %d, %v; want 1", got, err)
	}
	// Free addresses in the retired partition resolve to nothing.
	part := mem.VA(1) << 32 // blade 0's partition starts at the 4 GB base
	if _, err := a.Translate(part + 1<<25); err == nil {
		t.Fatal("free address in retired partition still translates")
	}
	// Migrating anything back to a retired blade is rejected.
	if err := a.Migrate(v.Base, 0); err == nil {
		t.Fatal("migration to retired blade accepted")
	}
	// Retirement is idempotent.
	if err := a.RetireBlade(0); err != nil {
		t.Fatal(err)
	}
	// Its rule really left the TCAM: exactly one partition rule plus the
	// migrated vma's outliers remain.
	want := 1 + len(mem.SplitPow2(v.Base, 1<<20))
	if asic.Translation.Len() != want {
		t.Fatalf("translation rules = %d, want %d", asic.Translation.Len(), want)
	}
	// And re-enabling placement on it is refused.
	if err := a.SetBladeAvailable(0, true); err == nil {
		t.Fatal("retired blade re-enabled")
	}
}

func TestRetiredBladeExcludedFromFailoverClone(t *testing.T) {
	a, asic := newAlloc(t, 2, 1<<26)
	if err := a.SetBladeAvailable(0, false); err != nil {
		t.Fatal(err)
	}
	if err := a.RetireBlade(0); err != nil {
		t.Fatal(err)
	}
	clone := asic.CloneState()
	if clone.Translation.Len() != asic.Translation.Len() {
		t.Fatalf("clone has %d rules, original %d", clone.Translation.Len(), asic.Translation.Len())
	}
	if _, err := clone.Translation.Lookup(switchasic.WildcardPDID, uint64(mem.VA(1)<<32)); err == nil {
		t.Fatal("retired partition rule survived failover clone")
	}
}

func TestMigrateRollsBackOnInstallFailure(t *testing.T) {
	a, asic := newAlloc(t, 2, 1<<26)
	v, err := a.Alloc(1, 3*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	ranges := mem.SplitPow2(v.Base, 4*mem.PageSize) // reserved rounds to 4 pages
	// Pre-install a conflicting duplicate rule matching the outlier the
	// migration will try to install, so the insert fails mid-Migrate.
	conflict := switchasic.Entry{
		PDID: switchasic.WildcardPDID,
		Base: uint64(ranges[0].Base), Size: ranges[0].Size,
		Value: 99,
	}
	if err := asic.Translation.Insert(conflict); err != nil {
		t.Fatal(err)
	}
	rulesBefore := asic.Translation.Len()

	err = a.Migrate(v.Base, 1)
	if err == nil {
		t.Fatal("migration with conflicting rule succeeded")
	}
	if errors.Is(err, ErrBladeUnavailable) {
		t.Fatalf("install failure misclassified as transient: %v", err)
	}
	// Rollback: no partial outliers remain, accounting unchanged.
	if asic.Translation.Len() != rulesBefore {
		t.Fatalf("rules = %d after failed migrate, want %d", asic.Translation.Len(), rulesBefore)
	}
	if _, blade, err := a.Lookup(v.Base); err != nil || blade != 0 {
		t.Fatalf("allocation accounting moved: blade %d, %v", blade, err)
	}
	loads := a.BladeLoad()
	if loads[1] != 0 {
		t.Fatalf("target blade charged %v bytes for failed migration", loads[1])
	}
	// The conflicting rule decides translation (it was there first); after
	// removing it, the vma routes to its home partition again.
	if err := asic.Translation.Delete(conflict.PDID, conflict.Base, conflict.Size); err != nil {
		t.Fatal(err)
	}
	if home, err := a.Translate(v.Base); err != nil || home != 0 {
		t.Fatalf("Translate = %d, %v; want home blade 0", home, err)
	}
	// And Migrate targeting an unavailable blade reports the transient
	// sentinel.
	if err := a.SetBladeAvailable(1, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(v.Base, 1); !errors.Is(err, ErrBladeUnavailable) {
		t.Fatalf("unavailable target err = %v, want ErrBladeUnavailable", err)
	}
}

func TestAllocRespectsMigratedInLoad(t *testing.T) {
	a, _ := newAlloc(t, 2, 1<<22)                  // 4 MB per blade
	v, err := a.Alloc(1, 1<<22, mem.PermReadWrite) // fills blade 0
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetBladeAvailable(0, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(v.Base, 1); err != nil { // blade 1 now physically full
		t.Fatal(err)
	}
	if err := a.SetBladeAvailable(0, true); err != nil {
		t.Fatal(err)
	}
	// Blade 1's own partition free list is untouched, but its physical
	// capacity is consumed by the migrated-in vma: placement must refuse
	// it rather than over-commit.
	if _, err := a.Alloc(1, 1<<20, mem.PermReadWrite); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("allocation over-committed a physically full blade: %v", err)
	}
	// Freeing the migrated vma releases blade 1's capacity again.
	if err := a.Free(v.Base); err != nil {
		t.Fatal(err)
	}
	w, err := a.Alloc(1, 1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, blade, _ := a.Lookup(w.Base); blade != 0 && blade != 1 {
		t.Fatalf("allocation on unexpected blade %d", blade)
	}
}
