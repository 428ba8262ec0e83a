package ctrlplane

import (
	"cmp"
	"slices"

	"mind/internal/mem"
)

// RegionStat is the per-region traffic summary the control plane reads
// from the data plane each epoch: the region's identity and its false
// invalidation count for the current epoch (§5.1).
type RegionStat struct {
	Base        mem.VA
	Size        uint64
	FalseInvals uint64
	// Invalidations counts all invalidation deliveries for the region
	// this epoch (false or not) — the merge policy uses it to avoid
	// re-coarsening regions that are hot but falsely-clean only because
	// they already reached the 4 KB floor (O2).
	Invalidations uint64
}

// RegionDirectory is the view of the cache directory the Bounded
// Splitting algorithm manipulates. The coherence package implements it.
type RegionDirectory interface {
	// EpochStats appends one entry per live directory region (regions
	// are disjoint), in ascending base order, with this epoch's false
	// invalidation count, and returns the extended slice.
	EpochStats(buf []RegionStat) []RegionStat
	// SplitRegion splits the region based at base into two halves,
	// allocating one extra directory slot. It fails if the region is at
	// the 4 KB minimum or no slot is free.
	SplitRegion(base mem.VA) error
	// MergeRegion merges the region based at base with its buddy,
	// releasing one slot. It fails if the buddy is not present at the
	// same size or the merged region would exceed the top-level size.
	MergeRegion(base mem.VA) error
	// ResetEpochCounters zeroes all false-invalidation counters.
	ResetEpochCounters()
	// SlotsInUse and SlotCapacity expose SRAM occupancy (capacity 0 =
	// unlimited).
	SlotsInUse() int
	SlotCapacity() int
}

// SplitterConfig parameterizes the Bounded Splitting algorithm (§5).
type SplitterConfig struct {
	// Epoch is the epoch length; the paper's default is 100 ms (§7).
	Epoch int64 // nanoseconds
	// TopLevelSize is M·PageSize: the maximum region size; splits never
	// merge beyond it. Default 2 MB.
	TopLevelSize uint64
	// C is the initial fairness constant c in t = Σf / (c·N) (Eq. 1).
	C float64
}

const (
	// utilizationCap is the SRAM occupancy above which the controller
	// stops splitting and halves c; the paper keeps utilization below
	// 95% (§5.2).
	utilizationCap = 0.95
	// minC and maxC clamp the adaptive adjustment of c.
	minC, maxC = 0.25, 1024
)

// DefaultSplitterConfig returns the paper's defaults.
func DefaultSplitterConfig() SplitterConfig {
	return SplitterConfig{
		Epoch:        100 * 1e6, // 100 ms
		TopLevelSize: 2 << 20,
		C:            4,
	}
}

// Splitter runs the Bounded Splitting algorithm: each epoch it splits
// regions whose false invalidation count exceeds the threshold t (down to
// the 4 KB floor), merges cold buddies under capacity pressure, and
// adapts c to keep SRAM utilization under the cap (§5).
type Splitter struct {
	cfg SplitterConfig
	dir RegionDirectory

	c      float64
	epochs uint64
	splits uint64
	merges uint64

	// stats and pairs are RunEpoch's scratch, kept across epochs so a
	// tick that changes nothing allocates nothing.
	stats []RegionStat
	pairs []buddyPair
}

// buddyPair is a merge candidate: two same-size buddies, named by the
// lower base, and their combined traffic this epoch.
type buddyPair struct {
	lo   mem.VA
	heat uint64
}

// NewSplitter creates a splitter over dir.
func NewSplitter(cfg SplitterConfig, dir RegionDirectory) *Splitter {
	if cfg.C <= 0 {
		cfg.C = 1
	}
	return &Splitter{cfg: cfg, dir: dir, c: cfg.C}
}

// C returns the current adaptive fairness constant.
func (s *Splitter) C() float64 { return s.c }

// Epochs, Splits and Merges return cumulative operation counts.
func (s *Splitter) Epochs() uint64 { return s.epochs }

// Splits returns the cumulative number of region splits performed.
func (s *Splitter) Splits() uint64 { return s.splits }

// Merges returns the cumulative number of region merges performed.
func (s *Splitter) Merges() uint64 { return s.merges }

// Threshold computes t = Σf / (c·N) over the current epoch's stats
// (Eq. 1, statsList in ascending base order as EpochStats returns it),
// with N the number of top-level-size blocks spanned by live regions. A
// floor of 1 keeps zero-traffic epochs from splitting everything.
func (s *Splitter) Threshold(statsList []RegionStat) float64 {
	if len(statsList) == 0 {
		return 1
	}
	var sum, n float64
	var last mem.VA
	for i, r := range statsList {
		sum += float64(r.FalseInvals)
		// Ascending bases make each block's regions consecutive.
		if block := mem.AlignDown(r.Base, s.cfg.TopLevelSize); i == 0 || block != last {
			n++
			last = block
		}
	}
	t := sum / (s.c * n)
	if t < 1 {
		t = 1
	}
	return t
}

// RunEpoch executes one epoch of the algorithm and returns the number of
// splits and merges performed.
func (s *Splitter) RunEpoch() (splits, merges int) {
	s.epochs++
	s.stats = s.dir.EpochStats(s.stats[:0])
	t := s.Threshold(s.stats)

	cap := s.dir.SlotCapacity()
	util := func() float64 {
		if cap <= 0 {
			return 0
		}
		return float64(s.dir.SlotsInUse()) / float64(cap)
	}

	// Split phase: any region with count > t splits once this epoch
	// (repeated splitting across epochs converges in <= log2 M epochs,
	// §5.1). Hottest first so capacity pressure cuts off the cold tail.
	slices.SortFunc(s.stats, func(a, b RegionStat) int {
		if a.FalseInvals != b.FalseInvals {
			return cmp.Compare(b.FalseInvals, a.FalseInvals)
		}
		return cmp.Compare(a.Base, b.Base)
	})
	for _, r := range s.stats {
		if float64(r.FalseInvals) <= t || r.Size <= mem.PageSize {
			continue
		}
		if util() >= utilizationCap {
			break
		}
		if err := s.dir.SplitRegion(r.Base); err == nil {
			splits++
			s.splits++
		}
	}

	// Merge phase: coalesce cold buddy pairs (combined count below t/2).
	// This runs every epoch, not only under capacity pressure — regions
	// that see no false invalidations gain nothing from fine granularity,
	// and proactive consolidation is what keeps low-contention workloads
	// (TF/GC) far below the capacity limit in Figure 8 (left). The t/2
	// hysteresis (split above t, merge below t/2) damps oscillation.
	merges += s.mergeCold(t)

	// Adapt c (§5.2): too full -> coarser regions (smaller c -> larger
	// t); any headroom -> allow finer tracking (larger c), increasing
	// storage utilization without hitting capacity.
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

// mergeCold merges buddy pairs whose combined false-invalidation count is
// below t/2, coldest first.
func (s *Splitter) mergeCold(t float64) int {
	// A fresh snapshot: the split phase changed the region set and
	// reordered the last one.
	s.stats = s.dir.EpochStats(s.stats[:0])
	s.pairs = s.pairs[:0]
	for i := 0; i+1 < len(s.stats); i++ {
		// Live regions are disjoint and the snapshot ascends, so the
		// buddy of a lower half, if live at the same size, is the next
		// entry; each pair is met once, at its lower half.
		r, b := s.stats[i], s.stats[i+1]
		if r.Size >= s.cfg.TopLevelSize || r.Base&mem.VA(r.Size) != 0 ||
			b.Base != r.Base+mem.VA(r.Size) || b.Size != r.Size {
			continue
		}
		heat := r.FalseInvals + b.FalseInvals + r.Invalidations + b.Invalidations
		if float64(heat) < t/2 {
			s.pairs = append(s.pairs, buddyPair{lo: r.Base, heat: heat})
		}
	}
	slices.SortFunc(s.pairs, func(a, b buddyPair) int {
		if a.heat != b.heat {
			return cmp.Compare(a.heat, b.heat)
		}
		return cmp.Compare(a.lo, b.lo)
	})
	merged := 0
	for _, p := range s.pairs {
		if err := s.dir.MergeRegion(p.lo); err == nil {
			merged++
			s.merges++
		}
	}
	return merged
}

// WorstCaseRegions returns the Theorem 5.1 bound on the number of
// sub-regions an M-sized region with false invalidation count f can
// generate: (⌈f/t⌉ − 1)·(1 + log2 M) for f > t, and 1 otherwise.
func WorstCaseRegions(f uint64, t float64, topLevelSize uint64) uint64 {
	if float64(f) <= t {
		return 1
	}
	k := uint64((float64(f) + t - 1) / t) // ⌈f/t⌉
	logM := uint64(mem.Log2(topLevelSize / mem.PageSize))
	return (k - 1) * (1 + logM)
}
