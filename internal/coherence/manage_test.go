package coherence

import (
	"errors"
	"testing"

	"mind/internal/bitset"
	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
)

// sharerSet builds a sharer bitmap from blade IDs.
func sharerSet(ids ...int) bitset.Set {
	var s bitset.Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// newTestDirectory builds a directory with stub deps for pure
// region-management tests (no protocol traffic).
func newTestDirectory(t *testing.T, slotCap int, initial, top uint64) (*Directory, *switchasic.ASIC) {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig())
	asic := switchasic.New(switchasic.Config{SlotCapacity: slotCap})
	asic.SetGroup(ctrlplane.InvalidationGroup, nil)
	d := NewDirectory(Config{InitialRegionSize: initial, TopLevelSize: top}, Deps{
		Engine:    eng,
		Fabric:    fab,
		ASIC:      asic,
		Collector: stats.NewCollector(),
		Translate: func(mem.VA) (ctrlplane.BladeID, error) { return 0, nil },
		Protect:   func(mem.PDID, mem.VA, mem.Perm) error { return nil },
		BladeNode: func(i int) fabric.NodeID { return fabric.NodeID(i) },
		MemFetch:  memFetchVia(eng, fab, 1000),
	})
	return d, asic
}

func TestLookupOrCreateInitialSize(t *testing.T) {
	d, asic := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, err := d.lookupOrCreate(0x5000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 16<<10 {
		t.Errorf("size = %d, want 16K", r.Size)
	}
	if r.Base != 0x4000 {
		t.Errorf("base = %#x, want 16K-aligned 0x4000", uint64(r.Base))
	}
	if asic.Directory.InUse() != 1 {
		t.Errorf("slots = %d", asic.Directory.InUse())
	}
	// Same address again: no new entry.
	r2, _ := d.lookupOrCreate(0x7fff)
	if r2 != r {
		t.Error("second lookup created a duplicate")
	}
	if d.RegionCount() != 1 {
		t.Errorf("regions = %d", d.RegionCount())
	}
}

func TestSplitRegionInheritsState(t *testing.T) {
	d, asic := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	r.state = Shared
	r.sharers = sharerSet(1, 3)
	if err := d.SplitRegion(r.Base); err != nil {
		t.Fatal(err)
	}
	if d.RegionCount() != 2 || asic.Directory.InUse() != 2 {
		t.Fatalf("regions=%d slots=%d", d.RegionCount(), asic.Directory.InUse())
	}
	lo, _ := d.Lookup(0x4000)
	hi, _ := d.Lookup(0x6000)
	if lo.Size != 8<<10 || hi.Size != 8<<10 {
		t.Errorf("sizes = %d/%d", lo.Size, hi.Size)
	}
	if hi.state != Shared || !hi.sharers.Has(1) || !hi.sharers.Has(3) {
		t.Error("sibling did not inherit state/sharers")
	}
	// Sharer sets must be independent after the split.
	hi.sharers.Remove(1)
	if !lo.sharers.Has(1) {
		t.Error("sharer sets aliased across split")
	}
}

func TestSplitRegionAtPageSizeFails(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 4096, 2<<20)
	r, _ := d.lookupOrCreate(0x1000)
	if err := d.SplitRegion(r.Base); err == nil {
		t.Error("splitting a 4K region should fail")
	}
}

func TestSplitUnknownRegion(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	if err := d.SplitRegion(0x9000); !errors.Is(err, ErrNoRegion) {
		t.Errorf("err = %v", err)
	}
}

func TestMergeBuddies(t *testing.T) {
	d, asic := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	if err := d.SplitRegion(r.Base); err != nil {
		t.Fatal(err)
	}
	if err := d.MergeRegion(0x4000); err != nil {
		t.Fatal(err)
	}
	if d.RegionCount() != 1 || asic.Directory.InUse() != 1 {
		t.Errorf("regions=%d slots=%d after merge", d.RegionCount(), asic.Directory.InUse())
	}
	m, _ := d.Lookup(0x4000)
	if m.Size != 16<<10 {
		t.Errorf("merged size = %d", m.Size)
	}
}

func TestMergeNormalizesToLowerHalf(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	_ = d.SplitRegion(r.Base)
	// Invoke on the upper half; it should still merge the pair.
	if err := d.MergeRegion(0x6000); err != nil {
		t.Fatal(err)
	}
	if d.RegionCount() != 1 {
		t.Error("merge via upper half failed")
	}
}

func TestMergeExpandsIntoEmptySpace(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000) // [0x4000, 0x8000), buddy is [0, 0x4000)
	if err := d.MergeRegion(r.Base); err != nil {
		t.Fatal(err)
	}
	m, err := d.Lookup(0x1000) // now inside [0, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != 32<<10 || m.Base != 0 {
		t.Fatalf("expanded region = %v", m)
	}
	// Upward expansion too: buddy of [0, 0x8000) is [0x8000, 0x10000).
	if err := d.MergeRegion(m.Base); err != nil {
		t.Fatal(err)
	}
	m2, _ := d.Lookup(0x9000)
	if m2 == nil || m2.Size != 64<<10 {
		t.Fatalf("upward expansion = %v", m2)
	}
	if d.RegionCount() != 1 {
		t.Errorf("regions = %d", d.RegionCount())
	}
}

func TestMergeBeyondTopLevelFails(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 2<<20, 2<<20)
	r, _ := d.lookupOrCreate(0)
	if err := d.MergeRegion(r.Base); err == nil {
		t.Error("merge beyond top-level should fail")
	}
}

func TestMergeIncompatibleOwners(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	_ = d.SplitRegion(r.Base)
	lo, _ := d.Lookup(0x4000)
	hi, _ := d.Lookup(0x6000)
	lo.state, lo.owner, lo.sharers = Modified, 1, sharerSet(1)
	hi.state, hi.owner, hi.sharers = Modified, 2, sharerSet(2)
	if err := d.MergeRegion(0x4000); !errors.Is(err, ErrCannotMerge) {
		t.Errorf("err = %v, want ErrCannotMerge", err)
	}
	// Same owner merges fine.
	hi.owner = 1
	hi.sharers = sharerSet(1)
	if err := d.MergeRegion(0x4000); err != nil {
		t.Errorf("same-owner merge failed: %v", err)
	}
	m, _ := d.Lookup(0x4000)
	if m.State() != Modified || m.Owner() != 1 {
		t.Errorf("merged state = %v owner=%d", m.State(), m.Owner())
	}
}

func TestMergeModifiedWithShared(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	_ = d.SplitRegion(r.Base)
	lo, _ := d.Lookup(0x4000)
	hi, _ := d.Lookup(0x6000)
	// M merged with S is fine only when the S copies belong to the owner.
	lo.state, lo.owner, lo.sharers = Modified, 1, sharerSet(1)
	hi.state, hi.sharers = Shared, sharerSet(1)
	if err := d.MergeRegion(0x4000); err != nil {
		t.Fatalf("M+S(owner-only) merge failed: %v", err)
	}
	// Rebuild with a foreign sharer: must refuse.
	m, _ := d.Lookup(0x4000)
	_ = d.SplitRegion(m.Base)
	lo, _ = d.Lookup(0x4000)
	hi, _ = d.Lookup(0x6000)
	lo.state, lo.owner, lo.sharers = Modified, 1, sharerSet(1)
	hi.state, hi.sharers = Shared, sharerSet(2)
	if err := d.MergeRegion(0x4000); !errors.Is(err, ErrCannotMerge) {
		t.Errorf("M+S(foreign) merge: %v", err)
	}
}

func TestEmergencyMergeOnSlotExhaustion(t *testing.T) {
	// Two slots only: creating a third region must coarsen a cold pair.
	d, asic := newTestDirectory(t, 2, 16<<10, 2<<20)
	r1, err := d.lookupOrCreate(0x0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SplitRegion(r1.Base); err != nil {
		t.Fatal(err)
	}
	if asic.Directory.Free() != 0 {
		t.Fatal("expected full slots")
	}
	// New region in a different block: triggers emergency merge of the
	// two cold buddies.
	r2, err := d.lookupOrCreate(4 << 20)
	if err != nil {
		t.Fatalf("creation under pressure failed: %v", err)
	}
	if r2 == nil || d.RegionCount() != 2 {
		t.Errorf("regions = %d", d.RegionCount())
	}
}

func TestRemoveRegion(t *testing.T) {
	d, asic := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	if err := d.RemoveRegion(r.Base); err != nil {
		t.Fatal(err)
	}
	if d.RegionCount() != 0 || asic.Directory.InUse() != 0 {
		t.Error("remove leaked")
	}
	if err := d.RemoveRegion(r.Base); !errors.Is(err, ErrNoRegion) {
		t.Errorf("double remove: %v", err)
	}
}

func TestEpochStatsAndReset(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	r.falseInvals = 7
	st := d.EpochStats(nil)
	if len(st) != 1 || st[0].FalseInvals != 7 {
		t.Fatalf("stats = %+v", st)
	}
	d.ResetEpochCounters()
	if d.EpochStats(nil)[0].FalseInvals != 0 {
		t.Error("reset failed")
	}
}

// TestEpochTickWarmAllocs: an epoch in which nothing splits or merges —
// the common one, run per rack every epoch of a pod — allocates nothing
// once the splitter's snapshot buffers have grown to the region count.
func TestEpochTickWarmAllocs(t *testing.T) {
	d, _ := newTestDirectory(t, 0, 16<<10, 2<<20)
	for i := 0; i < 200; i++ {
		if _, err := d.lookupOrCreate(mem.VA(i) * 16 << 10); err != nil {
			t.Fatal(err)
		}
	}
	// Traffic without false invalidations: nothing to split, and every
	// buddy pair too hot to merge.
	heat := func() {
		d.rt.forEach(func(r *Region) { r.invalsEpoch = 1 << 20 })
	}
	s := ctrlplane.NewSplitter(ctrlplane.DefaultSplitterConfig(), d)
	heat()
	s.RunEpoch()
	if avg := testing.AllocsPerRun(20, func() {
		heat()
		if splits, merges := s.RunEpoch(); splits+merges != 0 {
			t.Fatalf("epoch did %d splits and %d merges, want a quiet one", splits, merges)
		}
	}); avg != 0 {
		t.Errorf("a quiet epoch over 200 regions allocates %v times, want 0", avg)
	}
}

func TestRegionStringAndStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state strings")
	}
	if State(9).String() == "" {
		t.Error("unknown state should format")
	}
	r := &Region{Base: 0x1000, Size: 4096, state: Shared, sharers: sharerSet(1)}
	if r.String() == "" || len(r.Sharers()) != 1 || !r.Contains(0x1fff) || r.Contains(0x2000) {
		t.Error("region accessors")
	}
	if r.Range().Size != 4096 {
		t.Error("range")
	}
}

func TestSmallerInitialRegionWhenOverlapping(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	_ = d.SplitRegion(r.Base) // [0x4000,0x6000) and [0x6000,0x8000)
	_ = d.SplitRegion(0x4000) // [0x4000,0x5000) and [0x5000,0x6000)
	if err := d.RemoveRegion(0x5000); err != nil {
		t.Fatal(err)
	}
	// Creating for 0x5000 must produce a 4K region (16K/8K would overlap
	// the surviving [0x4000,0x5000) region).
	nr, err := d.lookupOrCreate(0x5800)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Size != 4096 || nr.Base != 0x5000 {
		t.Errorf("region = %v", nr)
	}
}
