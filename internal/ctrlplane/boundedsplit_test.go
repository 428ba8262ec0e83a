package ctrlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mind/internal/mem"
	"mind/internal/sim"
)

// fakeDir implements RegionDirectory over a buddy decomposition of one or
// more top-level blocks, with false invalidation counts derived from a
// fixed set of "hot pages" — a stable access pattern per the paper's
// stability assumptions (§5.1). Counts obey the theorem's observations:
// O1 (splitting cannot increase the total) holds because each hot page
// lands in exactly one child, and O2 (4 KB regions count zero) is forced
// explicitly.
type fakeDir struct {
	top      uint64
	capacity int
	regions  map[mem.VA]uint64 // base -> size
	hot      map[mem.VA]uint64 // page addr -> weight
	counted  bool
	counts   map[mem.VA]uint64
}

func newFakeDir(top uint64, capacity int, blocks int) *fakeDir {
	d := &fakeDir{
		top:      top,
		capacity: capacity,
		regions:  make(map[mem.VA]uint64),
		hot:      make(map[mem.VA]uint64),
		counts:   make(map[mem.VA]uint64),
	}
	for i := 0; i < blocks; i++ {
		d.regions[mem.VA(uint64(i)*top)] = top
	}
	return d
}

func (d *fakeDir) addHot(page mem.VA, weight uint64) { d.hot[mem.PageBase(page)] = weight }

func (d *fakeDir) recount() {
	d.counts = make(map[mem.VA]uint64)
	for base, size := range d.regions {
		if size <= mem.PageSize {
			continue // O2
		}
		var f uint64
		for p, w := range d.hot {
			if p >= base && p < base+mem.VA(size) {
				f += w
			}
		}
		d.counts[base] = f
	}
	d.counted = true
}

func (d *fakeDir) EachRegion(fn func(RegionStat)) {
	for _, r := range d.epochStats() {
		fn(r)
	}
}

// epochStats lists every region with its counters, in ascending base
// order.
func (d *fakeDir) epochStats() []RegionStat {
	if !d.counted {
		d.recount()
	}
	var out []RegionStat
	for base, size := range d.regions {
		// Invalidation traffic follows the hot pages regardless of
		// region size (false invalidations vanish at 4 KB; traffic
		// does not).
		var invals uint64
		for p, w := range d.hot {
			if p >= base && p < base+mem.VA(size) {
				invals += w
			}
		}
		out = append(out, RegionStat{Base: base, Size: size, FalseInvals: d.counts[base], Invalidations: invals})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

func (d *fakeDir) SplitRegion(base mem.VA) error {
	size, ok := d.regions[base]
	if !ok {
		return errors.New("no region")
	}
	if size <= mem.PageSize {
		return errors.New("at page size")
	}
	if d.capacity > 0 && len(d.regions) >= d.capacity {
		return errors.New("slots full")
	}
	half := size / 2
	delete(d.regions, base)
	d.regions[base] = half
	d.regions[base+mem.VA(half)] = half
	d.recount()
	return nil
}

func (d *fakeDir) MergeRegion(lo mem.VA) error {
	size, ok := d.regions[lo]
	if !ok {
		return errors.New("no region")
	}
	buddy := lo ^ mem.VA(size)
	bsize, ok := d.regions[buddy]
	if !ok || bsize != size || buddy < lo || size*2 > d.top {
		return errors.New("cannot merge")
	}
	delete(d.regions, lo)
	delete(d.regions, buddy)
	d.regions[lo] = size * 2
	d.recount()
	return nil
}

func (d *fakeDir) ResetEpochCounters() { d.recount() } // pattern is stable
func (d *fakeDir) SlotsInUse() int     { return len(d.regions) }
func (d *fakeDir) SlotCapacity() int   { return d.capacity }

func TestSplitterConvergesOnHotRegion(t *testing.T) {
	const top = 2 << 20 // 2 MB
	d := newFakeDir(top, 0, 1)
	// One hot page: splitting must isolate it down to 4 KB.
	d.addHot(0x6000, 100)
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = top
	cfg.C = 10 // t = 100/10 = 10 < 100: always split the hot path
	s := NewSplitter(cfg, d)
	maxEpochs := mem.Log2(top/mem.PageSize) + 2
	for i := 0; i < maxEpochs; i++ {
		s.RunEpoch()
	}
	// The hot page's region must now be 4 KB.
	for base, size := range d.regions {
		if base <= 0x6000 && mem.VA(0x6000) < base+mem.VA(size) {
			if size != mem.PageSize {
				t.Errorf("hot region size = %d, want 4096", size)
			}
		}
	}
	// Splitting a single hot chain creates exactly log2(M/4K) new
	// regions: 512 -> 9 splits -> 10 regions.
	if len(d.regions) != mem.Log2(top/mem.PageSize)+1 {
		t.Errorf("regions = %d, want %d", len(d.regions), mem.Log2(top/mem.PageSize)+1)
	}
	if s.Splits() != uint64(mem.Log2(top/mem.PageSize)) {
		t.Errorf("splits = %d", s.Splits())
	}
}

func TestSplitterColdRegionUntouched(t *testing.T) {
	d := newFakeDir(2<<20, 0, 4)
	d.addHot(0x1000, 2) // trivial traffic, below floor threshold
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = 2 << 20
	cfg.C = 0.5 // t = 2/(0.5*4) = 1 -> floor 1; f=2 > 1 on one block only
	s := NewSplitter(cfg, d)
	s.RunEpoch()
	if len(d.regions) > 5 {
		t.Errorf("cold blocks split unnecessarily: %d regions", len(d.regions))
	}
}

// TestTheorem51Bound drives the splitting step with a fixed threshold, as
// the theorem assumes, and checks the generated sub-region count against
// S = (⌈f/t⌉ − 1)(1 + log2 M).
func TestTheorem51Bound(t *testing.T) {
	const top = 2 << 20
	f := func(seed uint32, nHot uint8, tRaw uint8) bool {
		rng := sim.NewRNG(uint64(seed), "thm51")
		d := newFakeDir(top, 0, 1)
		n := int(nHot%20) + 1
		var totalF uint64
		for i := 0; i < n; i++ {
			w := rng.Uint64n(50) + 1
			d.addHot(mem.VA(rng.Uint64n(top/mem.PageSize))<<mem.PageShift, w)
		}
		d.recount()
		for _, w := range d.counts {
			totalF += w
		}
		if totalF == 0 {
			return true
		}
		threshold := float64(tRaw%40 + 1)
		// Split every region above threshold until stable (§5.1).
		for epoch := 0; epoch < 64; epoch++ {
			split := false
			for _, r := range d.epochStats() {
				if float64(r.FalseInvals) > threshold && r.Size > mem.PageSize {
					if d.SplitRegion(r.Base) == nil {
						split = true
					}
				}
			}
			if !split {
				break
			}
		}
		bound := WorstCaseRegions(totalF, threshold, top)
		if float64(totalF) <= threshold {
			bound = 1
		}
		got := uint64(len(d.regions))
		if got > bound {
			t.Logf("f=%d t=%v regions=%d bound=%d", totalF, threshold, got, bound)
			return false
		}
		return true
	}
	seed := time.Now().UnixNano() // to replay a failure, pin the logged seed here
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestWorstCaseRegionsFunction(t *testing.T) {
	const top = 2 << 20 // log2(M) = 9
	logM := uint64(9)
	if got := WorstCaseRegions(5, 10, top); got != 1 {
		t.Errorf("f<=t should be 1, got %d", got)
	}
	// Case 2: t < f <= 2t -> k=2 -> 1*(1+logM).
	if got := WorstCaseRegions(15, 10, top); got != 1+logM {
		t.Errorf("case 2 = %d, want %d", got, 1+logM)
	}
	// Case 3: k=5 -> 4*(1+logM).
	if got := WorstCaseRegions(45, 10, top); got != 4*(1+logM) {
		t.Errorf("case 3 = %d, want %d", got, 4*(1+logM))
	}
}

func TestSplitterMergeUnderCapacityPressure(t *testing.T) {
	const top = 2 << 20
	d := newFakeDir(top, 8, 4) // 4 blocks, room for 8 regions
	// Phase 1: a very hot page in block 0 forces splits until slots run
	// out. A hot split chain has no cold buddy pairs, so occupancy pins
	// at capacity (the Figure 8 left M_A/M_C regime).
	d.addHot(0x3000, 1000)
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = top
	cfg.C = 100
	s := NewSplitter(cfg, d)
	for i := 0; i < 12; i++ {
		s.RunEpoch()
	}
	if d.SlotsInUse() > 8 {
		t.Errorf("slots = %d exceeds capacity", d.SlotsInUse())
	}
	if s.Merges() != 0 {
		t.Errorf("merges = %d; a hot chain has no cold buddies", s.Merges())
	}
	// The splitter's adaptive c must have backed off because utilization
	// pinned at the cap.
	if s.C() >= 100 {
		t.Errorf("c = %v, expected decay under pressure", s.C())
	}

	// Phase 2: the access pattern shifts to block 1. The stale fine-grain
	// regions in block 0 go cold, so the splitter merges them to free
	// slots for block 1's splits.
	delete(d.hot, mem.PageBase(0x3000))
	d.addHot(mem.VA(top)+0x3000, 1000)
	d.recount()
	for i := 0; i < 30; i++ {
		s.RunEpoch()
	}
	if s.Merges() == 0 {
		t.Error("expected merges after the pattern shifted")
	}
	if d.SlotsInUse() > 8 {
		t.Errorf("slots = %d exceeds capacity after shift", d.SlotsInUse())
	}
	// The new hot page must be tracked at a finer granularity than the
	// top-level block.
	for base, size := range d.regions {
		hot := mem.VA(top) + 0x3000
		if base <= hot && hot < base+mem.VA(size) {
			if size >= top {
				t.Errorf("new hot region never split: size=%d", size)
			}
		}
	}
}

func TestSplitterAdaptiveCGrowsWithHeadroom(t *testing.T) {
	d := newFakeDir(2<<20, 1000, 1)
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = 2 << 20
	cfg.C = 1
	s := NewSplitter(cfg, d)
	s.RunEpoch()
	if s.C() <= 1 {
		t.Errorf("c = %v, expected growth with low utilization", s.C())
	}
	// Clamped at maxC.
	for i := 0; i < 30; i++ {
		s.RunEpoch()
	}
	if s.C() > maxC {
		t.Errorf("c = %v exceeds maxC", s.C())
	}
}

func TestSplitterThresholdFloor(t *testing.T) {
	s := NewSplitter(DefaultSplitterConfig(), newFakeDir(2<<20, 0, 1))
	if got := s.Threshold(nil); got != 1 {
		t.Errorf("empty threshold = %v", got)
	}
	statsList := []RegionStat{{Base: 0, Size: 2 << 20, FalseInvals: 0}}
	if got := s.Threshold(statsList); got != 1 {
		t.Errorf("zero-traffic threshold = %v", got)
	}
}

func TestSplitterThresholdEq1(t *testing.T) {
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = 2 << 20
	cfg.C = 2
	s := NewSplitter(cfg, newFakeDir(2<<20, 0, 1))
	// Two blocks, counts 30 and 10: t = 40/(2*2) = 10.
	statsList := []RegionStat{
		{Base: 0, Size: 2 << 20, FalseInvals: 30},
		{Base: 2 << 20, Size: 2 << 20, FalseInvals: 10},
	}
	if got := s.Threshold(statsList); got != 10 {
		t.Errorf("threshold = %v, want 10", got)
	}
	// Sub-regions of the same block count once toward N.
	statsList = []RegionStat{
		{Base: 0, Size: 1 << 20, FalseInvals: 30},
		{Base: 1 << 20, Size: 1 << 20, FalseInvals: 10},
	}
	if got := s.Threshold(statsList); got != 20 {
		t.Errorf("threshold = %v, want 20 (N=1)", got)
	}
}

func TestFakeDirMergeValidation(t *testing.T) {
	d := newFakeDir(2<<20, 0, 1)
	if err := d.MergeRegion(0); err == nil {
		t.Error("merging a top-level block should fail")
	}
	if err := d.SplitRegion(0); err != nil {
		t.Fatal(err)
	}
	if err := d.MergeRegion(0); err != nil {
		t.Errorf("buddy merge failed: %v", err)
	}
	if len(d.regions) != 1 || d.regions[0] != 2<<20 {
		t.Error("merge did not restore the block")
	}
}

func TestSplitterStatsAccessors(t *testing.T) {
	d := newFakeDir(2<<20, 0, 1)
	d.addHot(0x0000, 50)
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = 2 << 20
	cfg.C = 50
	s := NewSplitter(cfg, d)
	s.RunEpoch()
	if s.Epochs() != 1 {
		t.Errorf("epochs = %d", s.Epochs())
	}
	if s.Splits() == 0 {
		t.Error("expected at least one split")
	}
}

// Regression guard: splitting must preserve exact coverage of the block.
func TestFakeDirCoverage(t *testing.T) {
	d := newFakeDir(2<<20, 0, 1)
	d.addHot(0x5000, 100)
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = 2 << 20
	cfg.C = 10
	s := NewSplitter(cfg, d)
	for i := 0; i < 12; i++ {
		s.RunEpoch()
	}
	var total uint64
	for _, size := range d.regions {
		total += size
	}
	if total != 2<<20 {
		t.Errorf("coverage = %d, want %d", total, 2<<20)
	}
}

func ExampleWorstCaseRegions() {
	// A 2 MB region (512 pages) with 45 false invalidations and threshold
	// 10 can generate at most (⌈45/10⌉-1)·(1+log2(512)) = 4·10 sub-regions.
	fmt.Println(WorstCaseRegions(45, 10, 2<<20))
	// Output: 40
}

// TestSplitterScratchFollowsCandidates: an epoch's retained scratch is
// its split candidates and cold pairs, not a copy of the directory. On
// 10 000 top-level regions with 3 hot ones, the three are the only
// candidates; append rounds the candidate slice up to 4.
func TestSplitterScratchFollowsCandidates(t *testing.T) {
	const top = 2 << 20
	d := newFakeDir(top, 0, 10_000)
	for _, b := range []int{17, 4_000, 9_999} {
		d.addHot(mem.VA(b*top)+0x3000, 100)
	}
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = top
	s := NewSplitter(cfg, d)
	if splits, merges := s.RunEpoch(); splits != 3 || merges != 0 {
		t.Fatalf("epoch did %d splits and %d merges, want 3 and 0", splits, merges)
	}
	if len(s.stats) != 3 || cap(s.stats) > 4 {
		t.Errorf("candidate scratch holds %d of capacity %d, want 3 of at most 4", len(s.stats), cap(s.stats))
	}
	if cap(s.pairs) != 0 {
		t.Errorf("pair scratch has capacity %d with no cold buddies", cap(s.pairs))
	}
}

// mergeLog records every MergeRegion call a splitter makes.
type mergeLog struct {
	*fakeDir
	merges []mem.VA
}

func (d *mergeLog) MergeRegion(lo mem.VA) error {
	d.merges = append(d.merges, lo)
	return d.fakeDir.MergeRegion(lo)
}

// TestSplitterPairsStartFresh: the merge pass pairs regions met in one
// walk only. A directory gains and loses regions between epochs, so the
// last region of one epoch's walk may sit just below the first of the
// next; with no traffic, pairing them would queue a merge of a region
// that is gone.
func TestSplitterPairsStartFresh(t *testing.T) {
	const top = 2 << 20
	d := &mergeLog{fakeDir: newFakeDir(top, 0, 0)}
	d.regions[0] = top / 2 // a lower half whose buddy is not live
	cfg := DefaultSplitterConfig()
	cfg.TopLevelSize = top
	s := NewSplitter(cfg, d)
	s.RunEpoch()
	// The lower half goes and its buddy arrives.
	delete(d.regions, 0)
	d.regions[top/2] = top / 2
	d.recount()
	s.RunEpoch()
	if len(d.merges) != 0 {
		t.Errorf("merge calls %#x with no live buddy pair", d.merges)
	}
}
