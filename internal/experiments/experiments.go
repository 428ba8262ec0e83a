// Package experiments regenerates every figure of the paper's evaluation
// (§7, Figures 5-9). Each Fig* function runs the corresponding experiment
// on the simulated rack and returns a Figure whose series mirror the
// paper's plot: same x-axis points, same compared systems. Absolute
// numbers come from the calibrated simulator; the shapes (who wins, by
// roughly what factor, where crossovers fall) are the reproduction
// target — EXPERIMENTS.md records paper-vs-measured for each panel.
//
// Every data point is an independent deterministic simulation run, so
// panels enumerate their points as declarative runner.Specs and fan them
// out across a worker pool (internal/runner). Results merge back in spec
// order, which makes the output bit-identical to serial execution
// regardless of worker count, and a process-wide content-addressed cache
// computes points repeated across panels only once.
package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"mind/internal/core"
	"mind/internal/fastswap"
	"mind/internal/gam"
	"mind/internal/mem"
	prun "mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/workloads"
)

// Scale shrinks the experiments so they regenerate in seconds. The paper
// runs minutes-long jobs over ~2 GB footprints; Quick and Full keep the
// cache at 25% of the footprint (§7) and scale directory capacity with
// the footprint so capacity-pressure effects (Figure 8 left) reproduce.
type Scale struct {
	// WorkloadScale multiplies workload footprints.
	WorkloadScale int
	// TotalOps is the fixed job size split across threads.
	TotalOps int
	// CacheFraction sizes each blade's cache as a fraction of footprint.
	CacheFraction float64
	// DirSlots is the directory SRAM capacity used for runs where
	// capacity pressure matters (scaled stand-in for the paper's 30k).
	DirSlots int
	// Epoch is the Bounded Splitting epoch for workload runs.
	Epoch sim.Duration
	// Workers selects the runner pool width for this scale's panels:
	// n > 0 fixes the worker count, 0 uses one worker per CPU, and
	// n < 0 executes runs inline serially — the reference mode the
	// determinism goldens compare the pool against.
	Workers int
	// PodWorkers selects the multi-rack pod executor's worker count for
	// the pod panels (0 or 1: serial). Never part of a run's cache key:
	// every worker count produces bit-identical simulations, which the
	// determinism goldens enforce.
	PodWorkers int
	// RootSeed, when nonzero, overrides the default scale-derived run
	// seed with sim.DeriveSeed(RootSeed, "experiments"), so one root
	// seed pins every random stream of every run.
	RootSeed uint64
	// cache, when set, replaces the shared package cache (tests use a
	// fresh cache per execution to compare runs honestly).
	cache *prun.Cache
}

// Quick is the test/bench scale (tens of seconds per panel).
var Quick = Scale{WorkloadScale: 1, TotalOps: 240_000, CacheFraction: 0.25, DirSlots: 450, Epoch: 2 * sim.Millisecond}

// Full is the figure-regeneration scale used by cmd/figures.
var Full = Scale{WorkloadScale: 2, TotalOps: 1_200_000, CacheFraction: 0.25, DirSlots: 1500, Epoch: 5 * sim.Millisecond}

// Tiny is for unit tests that only check qualitative shape.
var Tiny = Scale{WorkloadScale: 1, TotalOps: 80_000, CacheFraction: 0.25, DirSlots: 250, Epoch: 1 * sim.Millisecond}

// seed returns the deterministic run seed for a scale.
func (s Scale) seed() uint64 {
	if s.RootSeed != 0 {
		return sim.DeriveSeed(s.RootSeed, "experiments")
	}
	return uint64(s.WorkloadScale)*1000 + uint64(s.TotalOps%997)
}

// runCache memoizes finished runs by spec key for the life of the
// process, so points repeated across panels — Figure 7 center and right
// share their sharing-ratio-1 runs, Figure 8 center and right share
// their allocation runs, Figure 9's two panels share Bounded-Splitting
// runs, and Figure 8 (left) reuses Figure 6's 8-blade runs — are
// computed once.
var runCache = prun.NewCache()

// ResetCache drops every memoized run result. Benchmarks reset between
// iterations so timings measure real runs, not cache lookups.
func ResetCache() { runCache.Reset() }

// CacheStats reports run-cache hits and misses since the last reset.
func CacheStats() (hits, misses uint64) { return runCache.Stats() }

// do fans specs out across the scale's worker pool and returns results
// in spec order.
func (s Scale) do(specs []prun.Spec) ([]any, error) {
	c := s.cache
	if c == nil {
		c = runCache
	}
	return prun.Do(specs, prun.Options{Workers: s.Workers, Cache: c})
}

// Series is one labelled line of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is one panel of the paper's evaluation.
type Figure struct {
	ID     string // e.g. "5-left"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

func (f *Figure) add(label string, x, y float64) {
	for i := range f.Series {
		if f.Series[i].Label == label {
			f.Series[i].X = append(f.Series[i].X, x)
			f.Series[i].Y = append(f.Series[i].Y, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Label: label, X: []float64{x}, Y: []float64{y}})
}

// Get returns the y value of series label at x.
func (f *Figure) Get(label string, x float64) (float64, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		if y, ok := figLookup(s, x); ok {
			return y, true
		}
	}
	return 0, false
}

// String renders the figure as an aligned text table: one row per x
// value, one column per series — the rows the paper's plots encode.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	fmt.Fprintf(&b, "%-18s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Label)
	}
	fmt.Fprintf(&b, "    (%s)\n", f.YLabel)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-18.4g", x)
		for _, s := range f.Series {
			if y, ok := figLookup(s, x); ok {
				fmt.Fprintf(&b, "%16.4g", y)
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func figLookup(s Series, x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// system abstracts the three compared systems for workload-driven runs.
type system interface {
	Alloc(length uint64) (mem.VA, error)
	Spawn(blade int, gen core.AccessGen) error
	Run() sim.Time
	Collector() *stats.Collector
}

// mindRunner adapts core.Cluster to the system interface.
type mindRunner struct {
	c *core.Cluster
	p *core.Process
}

// newMind builds a MIND rack for an experiment. mutate (optional) adjusts
// the config before construction.
func newMind(computeBlades, memBlades, cachePages int, consistency core.Consistency, mutate func(*core.Config)) (*mindRunner, error) {
	cfg := core.DefaultConfig(computeBlades, memBlades)
	cfg.MemoryBladeCapacity = 1 << 30
	cfg.CachePagesPerBlade = cachePages
	cfg.Consistency = consistency
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &mindRunner{c: c, p: c.Exec("bench")}, nil
}

func (r *mindRunner) Alloc(length uint64) (mem.VA, error) {
	vma, err := r.p.Mmap(length, mem.PermReadWrite)
	if err != nil {
		return 0, err
	}
	return vma.Base, nil
}

func (r *mindRunner) Spawn(blade int, gen core.AccessGen) error {
	th, err := r.p.SpawnThread(blade)
	if err != nil {
		return err
	}
	th.Start(gen, nil)
	return nil
}

func (r *mindRunner) Run() sim.Time               { return r.c.RunThreads() }
func (r *mindRunner) Collector() *stats.Collector { return r.c.Collector() }

// sysDesc pairs a system constructor with the canonical key of its full
// configuration, for content-addressed run specs. Two descs with equal
// keys must construct identical systems, so the key covers every config
// field the constructor sets.
type sysDesc struct {
	key  string
	make func() (system, error)
}

// mindDesc describes a MIND rack variant. mutate must be a pure function
// of the values encoded in mutateKey.
func mindDesc(computeBlades, memBlades, cachePages int, cons core.Consistency, mutate func(*core.Config), mutateKey string) sysDesc {
	return sysDesc{
		key: prun.KeyOf("mind", computeBlades, memBlades, cachePages, cons, mutateKey),
		make: func() (system, error) {
			return newMind(computeBlades, memBlades, cachePages, cons, mutate)
		},
	}
}

// tunedMind is the common workload-run variant: the scale's directory
// capacity and Bounded-Splitting epoch applied to an 8-memory-blade rack.
func (s Scale) tunedMind(computeBlades, cachePages int, cons core.Consistency) sysDesc {
	return s.epochMind(computeBlades, cachePages, cons, s.Epoch)
}

// epochMind is tunedMind with an explicit splitting epoch (Figure 8 left
// derives a per-workload epoch from a sizing pass).
func (s Scale) epochMind(computeBlades, cachePages int, cons core.Consistency, epoch sim.Duration) sysDesc {
	return mindDesc(computeBlades, 8, cachePages, cons, func(c *core.Config) {
		c.ASIC.SlotCapacity = s.DirSlots
		c.SplitterEpoch = epoch
	}, prun.KeyOf("slots", s.DirSlots, "epoch", int64(epoch)))
}

func fastswapDesc(memBlades, cachePages int) sysDesc {
	return sysDesc{
		key: prun.KeyOf("fastswap", memBlades, cachePages),
		make: func() (system, error) {
			return fastswap.New(fastswap.DefaultConfig(memBlades, cachePages)), nil
		},
	}
}

func gamDesc(computeBlades, memBlades, cachePages int) sysDesc {
	return sysDesc{
		key: prun.KeyOf("gam", computeBlades, memBlades, cachePages),
		make: func() (system, error) {
			return gam.New(gam.DefaultConfig(computeBlades, memBlades, cachePages)), nil
		},
	}
}

// keyedWorkload pairs a workload with the canonical key of everything
// that parameterized its construction — Workload.Name alone does not
// encode NativeKVS's read ratio or Uniform's working-set mix.
type keyedWorkload struct {
	w   workloads.Workload
	key string
}

func kwAll(scale int) []keyedWorkload {
	ws := workloads.All(scale)
	out := make([]keyedWorkload, len(ws))
	for i, w := range ws {
		out[i] = keyedWorkload{w, prun.KeyOf(w.Name, scale)}
	}
	return out
}

func kwOne(w workloads.Workload, scale int) keyedWorkload {
	return keyedWorkload{w, prun.KeyOf(w.Name, scale)}
}

func kwKVS(readRatio float64, scale int) keyedWorkload {
	return keyedWorkload{workloads.NativeKVS(readRatio, scale), prun.KeyOf("NativeKVS", readRatio, scale)}
}

func kwUniform(workingSetPages uint64, readRatio, sharingRatio float64) keyedWorkload {
	return keyedWorkload{workloads.Uniform(workingSetPages, readRatio, sharingRatio),
		prun.KeyOf("Uniform", workingSetPages, readRatio, sharingRatio)}
}

// runWorkload executes one workload to completion on a system and returns
// the finish time (used by counter-based experiments like Figure 6).
func runWorkload(r system, w workloads.Workload, threads, blades, ops int, seed uint64) (sim.Time, error) {
	base, err := r.Alloc(w.Footprint)
	if err != nil {
		return 0, err
	}
	p := workloads.Params{Threads: threads, Blades: blades, OpsPerThread: ops, Seed: seed}
	for t := 0; t < threads; t++ {
		if err := r.Spawn(t%blades, w.Gen(base, t, p)); err != nil {
			return 0, err
		}
	}
	return r.Run(), nil
}

// runResult carries every metric any panel extracts from one workload
// run, so panels that share a run share one cache entry.
type runResult struct {
	End      sim.Time
	Accesses uint64
	// Per-access protocol rates (Figure 6).
	RemotePA, InvalsPA, FlushedPA float64
	FalseInv                      uint64
	// MIND only: directory entry high-water mark (Figure 9).
	PeakDir int
	// Per-remote-access latency means in microseconds (Figure 7 right).
	LatPgFaultUS, LatNetworkUS, LatInvQueueUS, LatInvTLBUS float64
	// MIND only: normalized directory-entries series (Figure 8 left).
	DirX, DirY []float64
}

// workRunSpec is the canonical spec for "run this workload to completion
// on this system" — the unit nearly every panel fans out.
func workRunSpec(sys sysDesc, kw keyedWorkload, threads, blades, ops int, seed uint64) prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("workrun", sys.key, kw.key, threads, blades, ops, seed),
		Run: func() (any, error) {
			r, err := sys.make()
			if err != nil {
				return nil, err
			}
			end, err := runWorkload(r, kw.w, threads, blades, ops, seed)
			if err != nil {
				return nil, err
			}
			col := r.Collector()
			remote := col.Counter(stats.CtrRemoteAccesses)
			res := runResult{
				End:           end,
				Accesses:      col.Counter(stats.CtrAccesses),
				RemotePA:      col.PerAccess(stats.CtrRemoteAccesses),
				InvalsPA:      col.PerAccess(stats.CtrInvalidations),
				FlushedPA:     col.PerAccess(stats.CtrFlushedPages),
				FalseInv:      col.Counter(stats.CtrFalseInvals),
				LatPgFaultUS:  col.MeanLatency(stats.LatPgFault, remote).Micros(),
				LatNetworkUS:  col.MeanLatency(stats.LatNetwork, remote).Micros(),
				LatInvQueueUS: col.MeanLatency(stats.LatInvQueue, remote).Micros(),
				LatInvTLBUS:   col.MeanLatency(stats.LatInvTLB, remote).Micros(),
			}
			if mr, ok := r.(*mindRunner); ok {
				res.PeakDir = mr.c.Controller().ASIC().Directory.Peak()
				res.DirX, res.DirY = col.Series("directory_entries").Normalized()
			}
			return res, nil
		},
	}
}

// steadySpecs is the §7-methodology pair behind one steady-state data
// point: the same deterministic job at ops and 2*ops per thread. steadyOf
// merges the pair — the end-time difference cancels the cold-start
// (compulsory-miss) phase that the paper's minutes-long runs amortize.
func steadySpecs(sys sysDesc, kw keyedWorkload, threads, blades, ops int, seed uint64) [2]prun.Spec {
	return [2]prun.Spec{
		workRunSpec(sys, kw, threads, blades, ops, seed),
		workRunSpec(sys, kw, threads, blades, 2*ops, seed),
	}
}

// steadyOf converts a steadySpecs result pair into the steady-state
// runtime.
func steadyOf(r1, r2 any) sim.Duration {
	t1 := r1.(runResult).End
	t2 := r2.(runResult).End
	dt := t2.Sub(t1)
	if dt <= 0 {
		dt = t2.Sub(0)
	}
	return dt
}

// cachePagesFor sizes the per-blade cache at the scale's fraction of the
// footprint, with a floor to keep tiny runs sane.
func cachePagesFor(s Scale, footprint uint64) int {
	p := int(float64(footprint/mem.PageSize) * s.CacheFraction)
	if p < 64 {
		p = 64
	}
	return p
}

// materialize writes a recognisable word into every page of the vma at
// base, on the page's home blade, so drains and promotions move real
// bytes and kills lose them, instead of never-written zero pages.
func materialize(r *core.Rack, base mem.VA, pages uint64) error {
	alloc := r.Controller().Allocator()
	buf := make([]byte, mem.PageSize)
	for pg := uint64(0); pg < pages; pg++ {
		va := base + mem.VA(pg*mem.PageSize)
		home, err := alloc.Translate(va)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf, pg+1)
		r.MemBlade(int(home)).WritePage(va, buf)
	}
	return nil
}

// opsPerThread splits the fixed job across threads.
func opsPerThread(s Scale, threads int) int {
	o := s.TotalOps / threads
	if o < 1 {
		o = 1
	}
	return o
}

// allocationTrace models a workload's vma mix for Figure 8: real
// applications create tens of vmas of mixed sizes (§7.2, [71,72]); the
// trace splits the footprint into vmaCount areas with a deterministic
// size mix.
func allocationTrace(footprint uint64, vmaCount int, seed uint64) []uint64 {
	rng := sim.NewRNG(seed, "alloc-trace")
	out := make([]uint64, 0, vmaCount)
	remaining := footprint
	capSz := mem.NextPow2(footprint / 16) // no single vma dominates placement
	if capSz < mem.PageSize {
		capSz = mem.PageSize
	}
	// The first vmaCount-1 areas take a log-uniform size mix (stacks,
	// code, small mmaps); the bulk data that remains is carved into
	// cap-sized arenas, the way glibc grows a large heap as multiple
	// arena mmaps.
	for i := 0; i < vmaCount-1 && remaining > capSz; i++ {
		span := mem.Log2(capSz / mem.PageSize)
		sz := uint64(mem.PageSize) << uint(rng.Intn(span+1))
		if sz > remaining {
			sz = remaining
		}
		out = append(out, sz)
		remaining -= sz
	}
	for remaining > 0 {
		sz := capSz
		if sz > remaining {
			sz = remaining
		}
		out = append(out, sz)
		remaining -= sz
	}
	return out
}
