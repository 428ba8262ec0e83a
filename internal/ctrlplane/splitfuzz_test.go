package ctrlplane

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
)

// refSplitter is the snapshot form of Bounded Splitting that RunEpoch
// replaced: it copies every live region into a slice, computes t over it,
// sorts the whole slice hottest-first for the split phase, and takes a
// second snapshot for the merge phase. FuzzSplitterEpoch holds the
// streaming RunEpoch to it.
type refSplitter struct {
	cfg SplitterConfig
	dir RegionDirectory
	c   float64
}

func snapshot(dir RegionDirectory) []RegionStat {
	var out []RegionStat
	dir.EachRegion(func(r RegionStat) { out = append(out, r) })
	return out
}

func (s *refSplitter) runEpoch() (splits, merges int) {
	stats := snapshot(s.dir)
	t := (&Splitter{cfg: s.cfg, c: s.c}).Threshold(stats)

	cap := s.dir.SlotCapacity()
	util := func() float64 {
		if cap <= 0 {
			return 0
		}
		return float64(s.dir.SlotsInUse()) / float64(cap)
	}
	slices.SortFunc(stats, func(a, b RegionStat) int {
		if a.FalseInvals != b.FalseInvals {
			return cmp.Compare(b.FalseInvals, a.FalseInvals)
		}
		return cmp.Compare(a.Base, b.Base)
	})
	for _, r := range stats {
		if float64(r.FalseInvals) <= t || r.Size <= mem.PageSize {
			continue
		}
		if util() >= utilizationCap {
			break
		}
		if s.dir.SplitRegion(r.Base) == nil {
			splits++
		}
	}
	merges = s.mergeCold(t)
	if cap > 0 {
		if util() >= utilizationCap {
			s.c /= 2
		} else {
			s.c *= 2
		}
		s.c = min(max(s.c, minC), maxC)
	}
	s.dir.ResetEpochCounters()
	return splits, merges
}

func (s *refSplitter) mergeCold(t float64) int {
	stats := snapshot(s.dir)
	var pairs []buddyPair
	for i := 0; i+1 < len(stats); i++ {
		r, b := stats[i], stats[i+1]
		if r.Size >= s.cfg.TopLevelSize || r.Base&mem.VA(r.Size) != 0 ||
			b.Base != r.Base+mem.VA(r.Size) || b.Size != r.Size {
			continue
		}
		heat := r.FalseInvals + b.FalseInvals + r.Invalidations + b.Invalidations
		if float64(heat) < t/2 {
			pairs = append(pairs, buddyPair{lo: r.Base, heat: heat})
		}
	}
	slices.SortFunc(pairs, func(a, b buddyPair) int {
		if a.heat != b.heat {
			return cmp.Compare(a.heat, b.heat)
		}
		return cmp.Compare(a.lo, b.lo)
	})
	merged := 0
	for _, p := range pairs {
		if s.dir.MergeRegion(p.lo) == nil {
			merged++
		}
	}
	return merged
}

// drawnDir is a RegionDirectory whose counters are a hash of (seed,
// epoch, base, size), so two copies built from one draw report the same
// traffic for the same region set, and which logs every split and merge
// call with its outcome.
type drawnDir struct {
	seed, epoch uint64
	top         uint64
	capacity    int
	regions     map[mem.VA]uint64 // base -> size
	calls       []dirCall
}

type dirCall struct {
	merge bool
	base  mem.VA
	ok    bool
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// counters draws a region's epoch traffic: half the regions are silent
// (the merge phase's material), the rest see small counts, a hot false
// invalidation count or invalidations only.
func (d *drawnDir) counters(base mem.VA, size uint64) (falseInvals, invals uint64) {
	h := mix(d.seed ^ mix(d.epoch^mix(uint64(base)^mix(size))))
	switch h % 8 {
	case 0, 1, 2, 3:
		return 0, 0
	case 4, 5:
		return (h >> 8) % 4, (h >> 16) % 4
	case 6:
		return (h >> 8) % 200, (h >> 16) % 8
	default:
		return 0, (h >> 8) % 50
	}
}

func (d *drawnDir) EachRegion(fn func(RegionStat)) {
	bases := make([]mem.VA, 0, len(d.regions))
	for b := range d.regions {
		bases = append(bases, b)
	}
	slices.Sort(bases)
	for _, b := range bases {
		size := d.regions[b]
		f, inv := d.counters(b, size)
		fn(RegionStat{Base: b, Size: size, FalseInvals: f, Invalidations: inv})
	}
}

func (d *drawnDir) SplitRegion(base mem.VA) error {
	err := func() error {
		size, ok := d.regions[base]
		switch {
		case !ok:
			return errors.New("no region")
		case size <= mem.PageSize:
			return errors.New("at page size")
		case d.capacity > 0 && len(d.regions) >= d.capacity:
			return errors.New("slots full")
		}
		d.regions[base] = size / 2
		d.regions[base+mem.VA(size/2)] = size / 2
		return nil
	}()
	d.calls = append(d.calls, dirCall{base: base, ok: err == nil})
	return err
}

func (d *drawnDir) MergeRegion(lo mem.VA) error {
	err := func() error {
		size, ok := d.regions[lo]
		if !ok {
			return errors.New("no region")
		}
		buddy := lo ^ mem.VA(size)
		if bsize, ok := d.regions[buddy]; !ok || bsize != size || buddy < lo || size*2 > d.top {
			return errors.New("cannot merge")
		}
		delete(d.regions, buddy)
		d.regions[lo] = size * 2
		return nil
	}()
	d.calls = append(d.calls, dirCall{merge: true, base: lo, ok: err == nil})
	return err
}

func (d *drawnDir) ResetEpochCounters() { d.epoch++ }
func (d *drawnDir) SlotsInUse() int     { return len(d.regions) }
func (d *drawnDir) SlotCapacity() int   { return d.capacity }

// drawDirs draws one directory twice: 1–24 top-level blocks of 16 pages
// at drawn gaps (so Eq. 1's block count N differs from the region
// count), each cut into a random buddy decomposition, under a slot cap
// that is unlimited, below, at or above the drawn region count.
func drawDirs(seed uint64) (a, b *drawnDir) {
	const top = 16 * mem.PageSize
	rng := sim.NewRNG(seed, "splitfuzz")
	regions := make(map[mem.VA]uint64)
	var cut func(base mem.VA, size uint64, p float64)
	cut = func(base mem.VA, size uint64, p float64) {
		if size > mem.PageSize && rng.Bool(p) {
			cut(base, size/2, p*0.8)
			cut(base+mem.VA(size/2), size/2, p*0.8)
			return
		}
		regions[base] = size
	}
	blocks, p := 1+rng.Intn(24), rng.Float64()
	var at uint64
	for i := 0; i < blocks; i++ {
		at += rng.Uint64n(3)
		cut(mem.VA(at*top), top, p)
		at++
	}
	capacity := 0
	if rng.Bool(0.75) {
		capacity = max(1, len(regions)-8+rng.Intn(48))
	}
	for _, d := range []**drawnDir{&a, &b} {
		*d = &drawnDir{seed: seed, top: top, capacity: capacity, regions: make(map[mem.VA]uint64, len(regions))}
		for base, size := range regions {
			(*d).regions[base] = size
		}
	}
	return a, b
}

// FuzzSplitterEpoch holds the streaming RunEpoch to the snapshot
// reference: over a drawn directory of up to a few hundred regions, with
// drawn counters, slot cap and initial c, each of several epochs must
// make the same SplitRegion/MergeRegion calls in the same order with the
// same outcomes, return the same counts and leave the same c.
func FuzzSplitterEpoch(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed*3))
	}
	f.Fuzz(func(t *testing.T, seed uint64, c0 uint8) {
		got, want := drawDirs(seed)
		cfg := DefaultSplitterConfig()
		cfg.TopLevelSize = got.top
		cfg.C = float64(c0%64+1) / 4
		s := NewSplitter(cfg, got)
		ref := &refSplitter{cfg: cfg, dir: want, c: s.C()}
		for epoch := 0; epoch < 6; epoch++ {
			splits, merges := s.RunEpoch()
			rsplits, rmerges := ref.runEpoch()
			if !slices.Equal(got.calls, want.calls) {
				t.Fatalf("epoch %d: calls\n%v\nreference\n%v", epoch, got.calls, want.calls)
			}
			if splits != rsplits || merges != rmerges {
				t.Fatalf("epoch %d: %d splits, %d merges; reference %d, %d", epoch, splits, merges, rsplits, rmerges)
			}
			if s.C() != ref.c {
				t.Fatalf("epoch %d: c = %v, reference %v", epoch, s.C(), ref.c)
			}
		}
	})
}
