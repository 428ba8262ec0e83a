package experiments

import (
	"fmt"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	prun "mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
	"mind/internal/workloads"
)

// Fig8Left reproduces Figure 8 (left): directory entries in use over
// normalized runtime, per workload, on 8 blades x 10 threads with a
// capacity-limited directory. TF/GC stay below the limit; M_A/M_C pin at
// it.
func Fig8Left(s Scale) (map[string]*Figure, error) {
	const blades = 8
	kws := kwAll(s.WorkloadScale)
	threads := blades * 10
	ops := opsPerThread(s, threads)

	// Pass 1 (parallel across workloads): measure each workload's
	// runtime at the scale epoch. Pass 2 re-runs with a per-workload
	// epoch sized so the run spans ~40 epochs (the paper's minutes-long
	// runs cover thousands of 100 ms epochs; short scaled runs need a
	// proportional epoch to show the same split/merge dynamics).
	var sizing []prun.Spec
	for _, kw := range kws {
		cache := cachePagesFor(s, kw.w.Footprint)
		sizing = append(sizing, workRunSpec(s.tunedMind(blades, cache, core.TSO), kw,
			threads, blades, ops, s.seed()))
	}
	sized, err := s.do(sizing)
	if err != nil {
		return nil, err
	}

	var rerun []prun.Spec
	for i, kw := range kws {
		cache := cachePagesFor(s, kw.w.Footprint)
		end := sized[i].(runResult).End
		epoch := sim.Duration(int64(end) / 40)
		if epoch < 100*sim.Microsecond {
			epoch = 100 * sim.Microsecond
		}
		rerun = append(rerun, workRunSpec(s.epochMind(blades, cache, core.TSO, epoch), kw,
			threads, blades, ops, s.seed()))
	}
	res, err := s.do(rerun)
	if err != nil {
		return nil, err
	}

	out := make(map[string]*Figure)
	for i, kw := range kws {
		fig := &Figure{
			ID:     "8-left/" + kw.w.Name,
			Title:  fmt.Sprintf("Directory entries over time, %s (capacity %d)", kw.w.Name, s.DirSlots),
			XLabel: "normalized runtime",
			YLabel: "#used directory entries",
		}
		x, y := res[i].(runResult).DirX, res[i].(runResult).DirY
		// Thin to at most 20 samples for the table.
		step := len(x)/20 + 1
		for j := 0; j < len(x); j += step {
			fig.add(kw.w.Name, x[j], y[j])
		}
		if len(x) > 0 {
			fig.add(kw.w.Name, x[len(x)-1], y[len(y)-1])
		}
		out[kw.w.Name] = fig
	}
	return out, nil
}

// fig8AllocTraces maps workload names to their vma-count models: the
// number of distinct areas typical of each application class (§7.2
// reports vma counts well under 1-2k for datacenter applications).
var fig8AllocTraces = map[string]int{"TF": 48, "GC": 28, "MA&C": 64}

// fig8Workloads enumerates the Figure 8 allocation studies in canonical
// order (the serial code iterated a Go map, leaving series order to
// chance run to run).
var fig8Workloads = []string{"TF", "GC", "MA&C"}

// fig8Footprint returns the named study's workload footprint.
func fig8Footprint(name string, scale int) uint64 {
	switch name {
	case "TF":
		return workloads.TF(scale).Footprint
	case "GC":
		return workloads.GC(scale).Footprint
	default:
		return workloads.MemcachedA(scale).Footprint
	}
}

// fig8FootprintFactor scales workload footprints up to the paper's
// multi-GB datasets for the allocation-only Figure 8 experiments — the
// rule-count and load-balance contrasts (1 GB pages vs MIND) only appear
// at realistic dataset sizes, and these runs allocate without executing
// accesses, so they are cheap at any size.
const fig8FootprintFactor = 64

// fig8Controller builds a control plane with large (4 GB) blade
// partitions for the paper-scale footprints.
func fig8Controller(blades int) (*ctrlplane.Controller, error) {
	ctl := ctrlplane.NewController(switchasic.DefaultConfig(), 8)
	for b := 0; b < blades; b++ {
		if _, err := ctl.Allocator().AddBlade(1 << 32); err != nil {
			return nil, err
		}
	}
	return ctl, nil
}

// allocResult carries both metrics of one Figure 8 allocation run, so
// the center (rule-count) and right (fairness) panels share each run
// through the cache.
type allocResult struct {
	MindRules, Rules2MB, Rules1GB int
	MindFair, Fair2MB, Fair1GB    float64
}

// allocSpec replays the named workload's allocation trace against the
// MIND control plane and against 2 MB / 1 GB page-granularity placement.
func allocSpec(name string, footprint uint64, vmaCount, blades int) prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("fig8alloc", name, footprint, vmaCount, blades),
		Run: func() (any, error) {
			trace := allocationTrace(footprint, vmaCount, 1234)
			ctl, err := fig8Controller(blades)
			if err != nil {
				return nil, err
			}
			proc := ctl.Exec(name)
			for _, sz := range trace {
				if _, err := ctl.Mmap(proc.PID, sz, mem.PermReadWrite); err != nil {
					return nil, err
				}
			}
			res := allocResult{
				MindRules: ctl.ASIC().Rules(),
				MindFair:  stats.JainFairness(ctl.Allocator().BladeLoad()),
			}
			for _, pg := range []struct {
				size  uint64
				rules *int
				fair  *float64
			}{
				{2 << 20, &res.Rules2MB, &res.Fair2MB},
				{1 << 30, &res.Rules1GB, &res.Fair1GB},
			} {
				pa, err := ctrlplane.NewPagedAllocator(pg.size, blades)
				if err != nil {
					return nil, err
				}
				for _, sz := range trace {
					pa.Alloc(sz)
				}
				*pg.rules = pa.Rules()
				*pg.fair = stats.JainFairness(pa.BladeLoad())
			}
			return res, nil
		},
	}
}

// fig8Point identifies one allocation run in merge order.
type fig8Point struct {
	name   string
	blades int
}

// fig8Specs enumerates the allocation runs both Figure 8 panels consume.
func fig8Specs(s Scale) ([]prun.Spec, []fig8Point) {
	var specs []prun.Spec
	var pts []fig8Point
	for _, name := range fig8Workloads {
		fp := fig8Footprint(name, s.WorkloadScale) * fig8FootprintFactor
		for _, blades := range []int{1, 2, 4, 8} {
			specs = append(specs, allocSpec(name, fp, fig8AllocTraces[name], blades))
			pts = append(pts, fig8Point{name, blades})
		}
	}
	return specs, pts
}

// Fig8Center reproduces Figure 8 (center): the number of match-action
// rules for address translation + protection, as memory blades scale,
// for MIND vs page-granularity translation at 2 MB and 1 GB pages.
func Fig8Center(s Scale) (*Figure, error) {
	fig := &Figure{
		ID:     "8-center",
		Title:  "Match-action rules for translation + protection",
		XLabel: "memory blades",
		YLabel: "#rules",
	}
	specs, pts := fig8Specs(s)
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		r := res[i].(allocResult)
		fig.add("MIND/"+pt.name, float64(pt.blades), float64(r.MindRules))
		fig.add("2MB/"+pt.name, float64(pt.blades), float64(r.Rules2MB))
		fig.add("1GB/"+pt.name, float64(pt.blades), float64(r.Rules1GB))
	}
	return fig, nil
}

// Fig8Right reproduces Figure 8 (right): Jain's fairness index of
// per-memory-blade allocated bytes for MIND vs 2 MB and 1 GB page
// placement. The underlying allocation runs are shared with Fig8Center
// through the cache.
func Fig8Right(s Scale) (*Figure, error) {
	fig := &Figure{
		ID:     "8-right",
		Title:  "Allocation load balance (Jain's fairness index)",
		XLabel: "memory blades",
		YLabel: "fairness",
	}
	specs, pts := fig8Specs(s)
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		r := res[i].(allocResult)
		fig.add("MIND/"+pt.name, float64(pt.blades), r.MindFair)
		fig.add("2MB/"+pt.name, float64(pt.blades), r.Fair2MB)
		fig.add("1GB/"+pt.name, float64(pt.blades), r.Fair1GB)
	}
	return fig, nil
}

// regionMind is the Figure 9 rack variant: unlimited directory slots (to
// isolate granularity effects from capacity), a fixed initial region
// size, and splitting optionally disabled.
func regionMind(cachePages int, initial uint64, split bool, epoch sim.Duration) sysDesc {
	return mindDesc(8, 8, cachePages, core.TSO, func(c *core.Config) {
		c.ASIC.SlotCapacity = 0
		c.InitialRegionSize = initial
		if initial > c.TopLevelRegionSize {
			c.TopLevelRegionSize = initial
		}
		c.DisableSplitting = !split
		c.SplitterEpoch = epoch
	}, prun.KeyOf("slots", 0, "init", initial, "split", split, "epoch", int64(epoch)))
}

// fig9Spec executes TF or GC on 8 blades with the given region
// configuration; the merged runResult carries (FalseInv, PeakDir).
func fig9Spec(s Scale, kw keyedWorkload, initial uint64, split bool, epoch sim.Duration) prun.Spec {
	const blades = 8
	threads := blades * 10
	return workRunSpec(regionMind(cachePagesFor(s, kw.w.Footprint), initial, split, epoch), kw,
		threads, blades, opsPerThread(s, threads), s.seed())
}

// fig9Workloads returns the two Figure 9 workloads with their keys.
func fig9Workloads(s Scale) []keyedWorkload {
	return []keyedWorkload{
		kwOne(workloads.TF(s.WorkloadScale), s.WorkloadScale),
		kwOne(workloads.GC(s.WorkloadScale), s.WorkloadScale),
	}
}

// Fig9Left reproduces Figure 9 (left): false invalidations and directory
// entry counts for fixed region granularities (2MB..16KB) versus Bounded
// Splitting (BS), on TF and GC. False invalidations are normalized by the
// 2 MB value, as in the paper.
func Fig9Left(s Scale) (map[string]*Figure, error) {
	sizes := []struct {
		label string
		size  uint64
	}{{"2MB", 2 << 20}, {"1MB", 1 << 20}, {"256KB", 256 << 10}, {"64KB", 64 << 10}, {"16KB", 16 << 10}}
	type point struct {
		wName string
		idx   int // 0..len(sizes)-1 fixed granularity, len(sizes) = BS
	}
	var pts []point
	var specs []prun.Spec
	for _, kw := range fig9Workloads(s) {
		for i, sz := range sizes {
			specs = append(specs, fig9Spec(s, kw, sz.size, false, s.Epoch))
			pts = append(pts, point{kw.w.Name, i})
		}
		specs = append(specs, fig9Spec(s, kw, 16<<10, true, s.Epoch))
		pts = append(pts, point{kw.w.Name, len(sizes)})
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}

	out := make(map[string]*Figure)
	base := map[string]float64{}
	for i, pt := range pts {
		fig := out[pt.wName]
		if fig == nil {
			fig = &Figure{
				ID:     "9-left/" + pt.wName,
				Title:  fmt.Sprintf("Region granularity tradeoff, %s", pt.wName),
				XLabel: "config index (0=2MB .. 4=16KB, 5=BS)",
				YLabel: "normalized false invals / entries",
			}
			out[pt.wName] = fig
		}
		r := res[i].(runResult)
		if pt.idx == 0 {
			base[pt.wName] = float64(r.FalseInv)
			if base[pt.wName] == 0 {
				base[pt.wName] = 1
			}
		}
		fig.add("false-invals", float64(pt.idx), float64(r.FalseInv)/base[pt.wName])
		fig.add("dir-entries", float64(pt.idx), float64(r.PeakDir))
	}
	return out, nil
}

// Fig9Right reproduces Figure 9 (right): sensitivity of Bounded Splitting
// to epoch length (1/10/100 ms equivalents at simulation scale) and to
// the initial region size (2MB..16KB). False invalidation counts are
// normalized as in the paper (largest epoch, 2 MB initial size). The
// largest-epoch run and the 16 KB initial-size run are the same runs as
// Figure 9 (left)'s Bounded Splitting point, shared through the cache.
func Fig9Right(s Scale) (map[string]*Figure, error) {
	epochs := []sim.Duration{s.Epoch / 100, s.Epoch / 10, s.Epoch}
	for i, ep := range epochs {
		if ep < 50*sim.Microsecond {
			epochs[i] = 50 * sim.Microsecond
		}
	}
	sizes := []uint64{2 << 20, 1 << 20, 256 << 10, 64 << 10, 16 << 10}

	type point struct {
		wName string
		sweep string // "epoch" or "size"
		idx   int
	}
	var pts []point
	var specs []prun.Spec
	for _, kw := range fig9Workloads(s) {
		for i, ep := range epochs {
			specs = append(specs, fig9Spec(s, kw, 16<<10, true, ep))
			pts = append(pts, point{kw.w.Name, "epoch", i})
		}
		for i, sz := range sizes {
			specs = append(specs, fig9Spec(s, kw, sz, true, s.Epoch))
			pts = append(pts, point{kw.w.Name, "size", i})
		}
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}

	out := make(map[string]*Figure)
	sizeBase := map[string]float64{}
	for i, pt := range pts {
		fig := out[pt.wName]
		if fig == nil {
			fig = &Figure{
				ID:     "9-right/" + pt.wName,
				Title:  fmt.Sprintf("Bounded Splitting sensitivity, %s", pt.wName),
				XLabel: "sweep index",
				YLabel: "normalized false invalidations",
			}
			out[pt.wName] = fig
		}
		fi := float64(res[i].(runResult).FalseInv)
		switch pt.sweep {
		case "epoch":
			// Added raw; normalized by the largest-epoch value below.
			fig.add("epoch-sweep", float64(pt.idx), fi)
		case "size":
			if pt.idx == 0 {
				sizeBase[pt.wName] = fi
				if sizeBase[pt.wName] == 0 {
					sizeBase[pt.wName] = 1
				}
			}
			fig.add("initial-size-sweep", float64(pt.idx), fi/sizeBase[pt.wName])
		}
	}
	// Normalize each epoch sweep by its largest-epoch (last) value.
	for _, fig := range out {
		for i := range fig.Series {
			if fig.Series[i].Label != "epoch-sweep" {
				continue
			}
			ys := fig.Series[i].Y
			base := ys[len(ys)-1]
			if base == 0 {
				base = 1
			}
			for j := range ys {
				ys[j] /= base
			}
		}
	}
	return out, nil
}
