package coherence

import (
	"errors"
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
)

// sharerSet builds a sharer bitmap from blade IDs.
func sharerSet(ids ...int) bladeSet {
	var s bladeSet
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
	hi.sharers &^= sharerSet(1)
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

// TestMergeOwnerTopBit: an owner at blade 63 merges with a buddy whose
// only sharer is 63, and not once blade 0 shares the buddy too.
func TestMergeOwnerTopBit(t *testing.T) {
	lo := &Region{state: Modified, owner: 63, sharers: sharerSet(63)}
	hi := &Region{state: Shared, sharers: sharerSet(63)}
	if st, owner, err := mergeStates(lo, hi); err != nil || st != Modified || owner != 63 {
		t.Errorf("owner 63 beside sharer {63}: %v, %d, %v; want M, 63", st, owner, err)
	}
	if st, owner, err := mergeStates(hi, lo); err != nil || st != Modified || owner != 63 {
		t.Errorf("sharer {63} beside owner 63: %v, %d, %v; want M, 63", st, owner, err)
	}
	hi.sharers.Add(0)
	if _, _, err := mergeStates(lo, hi); !errors.Is(err, ErrCannotMerge) {
		t.Errorf("owner 63 beside sharers {0, 63}: %v, want ErrCannotMerge", err)
	}
	if _, _, err := mergeStates(hi, lo); !errors.Is(err, ErrCannotMerge) {
		t.Errorf("sharers {0, 63} beside owner 63: %v, want ErrCannotMerge", err)
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

// TestRegionChurnReusesEntries splits 64 regions down to pages and
// merges them back, and removes and recreates a quarter of them, for 50
// rounds: every Region object the directory ever used must be live at
// the peak, so the churn costs no more than the live entries' slabs.
func TestRegionChurnReusesEntries(t *testing.T) {
	const regions, size = 64, 16 << 10
	d, asic := newTestDirectory(t, 1000, size, 2<<20)
	used := map[*Region]bool{}
	peak := 0
	observe := func() {
		d.rt.forEach(func(r *Region) { used[r] = true })
		peak = max(peak, d.RegionCount())
	}
	for i := 0; i < regions; i++ {
		if _, err := d.lookupOrCreate(mem.VA(i * size)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		for _, base := range d.AllRegionBases() {
			if err := d.SplitRegion(base); err != nil {
				t.Fatal(err)
			}
		}
		for _, base := range d.AllRegionBases() {
			if err := d.SplitRegion(base); err != nil {
				t.Fatal(err)
			}
		}
		observe()
		for _, half := range []uint64{mem.PageSize, 2 * mem.PageSize} {
			for _, base := range d.AllRegionBases() {
				if uint64(base)%(2*half) == 0 {
					if err := d.MergeRegion(base); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := round % 4; i < regions; i += 4 {
			if err := d.RemoveRegion(mem.VA(i * size)); err != nil {
				t.Fatal(err)
			}
		}
		for i := round % 4; i < regions; i += 4 {
			if _, err := d.lookupOrCreate(mem.VA(i * size)); err != nil {
				t.Fatal(err)
			}
		}
		observe()
	}
	if d.RegionCount() != regions || asic.Directory.InUse() != regions || peak != 4*regions {
		t.Fatalf("%d regions in %d slots, peak %d", d.RegionCount(), asic.Directory.InUse(), peak)
	}
	if len(used) > peak {
		t.Fatalf("%d Region objects used for at most %d live entries", len(used), peak)
	}
}

// TestRegionChurnAllocatesNothing: entries whose sharers are blades 0
// and 63 and whose waiter queues have held requests split and merge back
// round after round. Once the first round has filled the free list, a
// round allocates nothing: the sharer set is a word in the entry, and a
// recycled entry keeps its waiter queue, empty. An entry recreated after
// a reset starts with no sharers and no waiters.
func TestRegionChurnAllocatesNothing(t *testing.T) {
	const regions, size = 8, 16 << 10
	h := newProtoHarness(t, MaxBlades, 0)
	d := h.dir
	bases := make([]mem.VA, regions)
	var halves []mem.VA
	for i := range bases {
		bases[i] = mem.VA(0x1000000 + i*size)
		h.request(t, 0, bases[i], mem.PermRead)
		if err := d.SplitRegion(bases[i]); err != nil {
			t.Fatal(err)
		}
		halves = append(halves, bases[i], bases[i]+size/2)
	}
	// On every half, blade 1's write invalidates blades 0 and 63, blade 0
	// holds its ACK, and blade 2's read queues behind the write.
	for _, va := range halves {
		h.request(t, 63, va, mem.PermRead)
	}
	h.blades[0].holdAcks = true
	for _, va := range halves {
		h.dir.RequestPage(1, 1, va, mem.PermReadWrite, func(Completion) {})
		h.dir.RequestPage(2, 1, va, mem.PermRead, func(Completion) {})
	}
	h.eng.Run()
	for _, va := range halves {
		if r, _ := d.Lookup(va); r.nwait != 1 {
			t.Fatalf("region %v has %d waiters, want 1", r, r.nwait)
		}
	}
	h.blades[0].holdAcks = false
	h.blades[0].releaseAcks()
	h.eng.Run()

	share := func() {
		d.rt.forEach(func(r *Region) { r.state, r.sharers = Shared, sharerSet(0, 63) })
	}
	round := func() {
		for _, base := range bases {
			if err := d.MergeRegion(base); err != nil {
				t.Fatal(err)
			}
		}
		for _, base := range bases {
			if err := d.SplitRegion(base); err != nil {
				t.Fatal(err)
			}
		}
	}
	share()
	round()
	queues := 0
	d.rt.forEach(func(r *Region) {
		if r.nwait != 0 || (r.waiters != nil && r.waiters.Len() != 0) {
			t.Fatalf("region %v kept waiters (count %d, queue %v)", r, r.nwait, r.waiters)
		}
		if r.waiters != nil {
			queues++
		}
		if got := r.Sharers(); len(got) != 2 || got[0] != 0 || got[1] != 63 {
			t.Fatalf("region %v sharers %v, want [0 63]", r, got)
		}
	})
	if queues != len(halves) {
		t.Fatalf("%d of %d entries kept a waiter queue", queues, len(halves))
	}
	// A reset entry is recycled; the entry it becomes next is fresh.
	for _, va := range halves[:2] {
		done := false
		d.ResetRegion(va, func() { done = true })
		h.eng.Run()
		if !done {
			t.Fatalf("reset of %#x never completed", uint64(va))
		}
	}
	r, err := d.lookupOrCreate(bases[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.sharers != 0 || r.nwait != 0 || r.state != Invalid || r.waiters == nil || r.waiters.Len() != 0 {
		t.Fatalf("recreated region %v: sharers %v, %d waiters, queue %v", r, r.Sharers(), r.nwait, r.waiters)
	}
	if err := d.SplitRegion(bases[0]); err != nil {
		t.Fatal(err)
	}
	share()
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Errorf("a split/merge round over %d entries allocates %v times, want 0", len(halves), avg)
	}
}

// epochStats collects what EachRegion visits.
func epochStats(d *Directory) []ctrlplane.RegionStat {
	var st []ctrlplane.RegionStat
	d.EachRegion(func(r ctrlplane.RegionStat) { st = append(st, r) })
	return st
}

func TestEpochStatsAndReset(t *testing.T) {
	d, _ := newTestDirectory(t, 100, 16<<10, 2<<20)
	r, _ := d.lookupOrCreate(0x4000)
	r.falseInvals = 7
	st := epochStats(d)
	if len(st) != 1 || st[0].FalseInvals != 7 {
		t.Fatalf("stats = %+v", st)
	}
	d.ResetEpochCounters()
	if epochStats(d)[0].FalseInvals != 0 {
		t.Error("reset failed")
	}
}

// TestEpochTickWarmAllocs: an epoch in which nothing splits or merges —
// the common one, run per rack every epoch of a pod — allocates nothing:
// the splitter walks the directory with visitors bound at construction
// and keeps no per-region snapshot.
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
