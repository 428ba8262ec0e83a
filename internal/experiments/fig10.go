package experiments

import (
	"fmt"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	prun "mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/workloads"
)

// Fig10 is the elasticity panel — beyond the paper's evaluation, it
// measures the headline property of §1 end to end: a fixed job's
// throughput timeline while the memory tier changes underneath it. At
// 20% of the baseline runtime a memory blade hot-joins; at 45% one of
// the original blades drains (its resident pages migrate live, batched
// and throttled so the job keeps running); at 70% the other original
// blade is killed outright and the control plane re-homes its vmas after
// the detection delay. MIND rides through all three events; GAM — whose
// memory placement is fixed at startup — runs the same job with no
// events, the static baseline.

// fig10Buckets is the timeline resolution over the baseline runtime;
// sampling continues up to 3x baseline to cover blackout stretch.
const fig10Buckets = 40

// fig10Chunks splits the dataset into this many vmas, so placement
// spreads them across the initial blades and a drain relocates one chunk
// at a time — the rest of the dataset keeps serving while each chunk is
// frozen.
const fig10Chunks = 16

// fig10Result is everything the panel and its shape assertions consume
// from one timeline run.
type fig10Result struct {
	X, Y  []float64 // bucket start (ms) -> MOPS in bucket
	EndMS float64   // job completion

	// MIND-only event outcomes (zero-valued for GAM).
	AddAtMS, DrainAtMS, KillAtMS float64
	DrainPagesMoved              int
	DrainAllocations             int
	DrainBlackoutMS              float64
	KillBlackoutMS               float64
	VictimLeftover               int    // pages left on the drained blade (must be 0)
	MigrationStalls              uint64 // foreground requests bounced off frozen areas
}

// fig10Params fixes one Fig10 configuration; every spec derives from it.
type fig10Params struct {
	s         Scale
	kw        keyedWorkload
	threads   int
	blades    int
	memBlades int
	cache     int
	ops       int
	seed      uint64
}

func fig10Config(s Scale) fig10Params {
	const blades = 4
	workingSet := uint64(8192 * s.WorkloadScale)
	threads := blades * 2
	return fig10Params{
		s:         s,
		kw:        kwUniform(workingSet, 0.5, 0.5),
		threads:   threads,
		blades:    blades,
		memBlades: 2,
		cache:     cachePagesFor(s, workingSet*mem.PageSize),
		ops:       opsPerThread(s, threads),
		seed:      s.seed(),
	}
}

func (p fig10Params) mutate(c *core.Config) {
	c.ASIC.SlotCapacity = p.s.DirSlots
	c.SplitterEpoch = p.s.Epoch
}

// baselineSpec is the uneventful reference run that fixes the timeline
// grid and the event schedule.
func (p fig10Params) baselineSpec() prun.Spec {
	sys := mindDesc(p.blades, p.memBlades, p.cache, core.TSO, p.mutate,
		prun.KeyOf("slots", p.s.DirSlots, "epoch", int64(p.s.Epoch)))
	return workRunSpec(sys, p.kw, p.threads, p.blades, p.ops, p.seed)
}

// fig10Events derives the membership-event schedule from the baseline
// runtime T.
func fig10Events(T sim.Duration) (add, drain, kill sim.Duration) {
	return T * 2 / 10, T * 45 / 100, T * 7 / 10
}

// fig10Remap turns a generator over the logical address space
// [logical, logical+footprint) into one over the chunked vmas.
func fig10Remap(g core.AccessGen, logical mem.VA, chunk uint64, bases []mem.VA) core.AccessGen {
	return func() (mem.VA, bool, bool) {
		va, w, ok := g()
		if !ok {
			return 0, false, false
		}
		off := uint64(va - logical)
		return bases[off/chunk] + mem.VA(off%chunk), w, ok
	}
}

// fig10Sampler appends per-bucket MOPS to xs/ys every bucket of virtual
// time, for at most 3x the nominal timeline (self-limiting so the
// post-job event drain terminates).
func fig10Sampler(eng *sim.Engine, counter func() uint64, bucket sim.Duration, xs, ys *[]float64) {
	maxBuckets := 3 * fig10Buckets
	n := 0
	last := uint64(0)
	lastT := eng.Now()
	var sample func()
	sample = func() {
		ops := counter()
		dt := eng.Now().Sub(lastT).Seconds()
		if dt > 0 {
			*xs = append(*xs, lastT.Sub(0).Seconds()*1e3)
			*ys = append(*ys, float64(ops-last)/dt/1e6)
		}
		last, lastT = ops, eng.Now()
		n++
		if n < maxBuckets {
			eng.Schedule(bucket, sample)
		}
	}
	eng.Schedule(bucket, sample)
}

func fig10Bucket(T sim.Duration) sim.Duration {
	bucket := sim.Duration(int64(T) / fig10Buckets)
	if bucket < 10*sim.Microsecond {
		bucket = 10 * sim.Microsecond
	}
	return bucket
}

// mindSpec runs the elastic MIND timeline: sampler plus the three
// membership events at fractions of the baseline runtime T.
func (p fig10Params) mindSpec(T sim.Duration) prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("fig10mind", p.s.DirSlots, int64(p.s.Epoch), p.kw.key, p.threads,
			p.blades, p.memBlades, p.cache, p.ops, p.seed, int64(T), fig10Chunks),
		Run: func() (any, error) {
			mr, err := newMind(p.blades, p.memBlades, p.cache, core.TSO, p.mutate)
			if err != nil {
				return nil, err
			}
			c := mr.c

			// The dataset: fig10Chunks vmas, spread across the initial
			// blades by least-loaded placement.
			logical := mem.VA(1) << 40
			chunk := p.kw.w.Footprint / fig10Chunks
			bases := make([]mem.VA, fig10Chunks)
			for i := range bases {
				vma, err := mr.p.Mmap(chunk, mem.PermReadWrite)
				if err != nil {
					return nil, err
				}
				bases[i] = vma.Base
				// Preload the dataset, so drains move real bytes.
				if err := materialize(c.Rack, vma.Base, chunk/mem.PageSize); err != nil {
					return nil, err
				}
			}
			params := workloads.Params{Threads: p.threads, Blades: p.blades, OpsPerThread: p.ops, Seed: p.seed}
			for t := 0; t < p.threads; t++ {
				th, err := mr.p.SpawnThread(t % p.blades)
				if err != nil {
					return nil, err
				}
				th.Start(fig10Remap(p.kw.w.Gen(logical, t, params), logical, chunk, bases), nil)
			}

			eng := c.Engine()
			col := c.Collector()
			var res fig10Result
			bucket := fig10Bucket(T)
			fig10Sampler(eng, func() uint64 { return col.Counter(stats.CtrAccesses) }, bucket, &res.X, &res.Y)

			addAt, drainAt, killAt := fig10Events(T)
			res.AddAtMS = addAt.Seconds() * 1e3
			res.DrainAtMS = drainAt.Seconds() * 1e3
			res.KillAtMS = killAt.Seconds() * 1e3
			var addErr, drainErr, killErr error
			var drep core.DrainReport
			var krep core.KillReport
			drainVictim, killVictim := ctrlplane.BladeID(1), ctrlplane.BladeID(0)
			eng.Schedule(addAt, func() { _, addErr = c.AddMemBlade(0) })
			now := c.Now()
			if err := c.Pod().DrainMemBladeAt(0, drainVictim, now.Add(drainAt), func(r core.DrainReport, e error) { drep, drainErr = r, e }); err != nil {
				return nil, err
			}
			if err := c.Pod().KillMemBladeAt(0, killVictim, now.Add(killAt), func(r core.KillReport, e error) { krep, killErr = r, e }); err != nil {
				return nil, err
			}

			end := c.RunThreads()
			for _, e := range []error{addErr, drainErr, killErr} {
				if e != nil {
					return nil, fmt.Errorf("fig10 membership event: %w", e)
				}
			}
			res.EndMS = end.Sub(0).Seconds() * 1e3
			res.DrainPagesMoved = drep.PagesMoved
			res.DrainAllocations = drep.Allocations
			res.DrainBlackoutMS = drep.Blackout().Seconds() * 1e3
			res.KillBlackoutMS = krep.Blackout().Seconds() * 1e3
			res.VictimLeftover = c.MemBlade(int(drainVictim)).MaterializedPages()
			res.MigrationStalls = col.Counter(stats.CtrMigrationStalls)
			return res, nil
		},
	}
}

// gamSpec runs the static GAM baseline with the same sampler grid.
func (p fig10Params) gamSpec(T sim.Duration) prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("fig10gam", p.kw.key, p.threads, p.blades, p.memBlades, p.cache,
			p.ops, p.seed, int64(T)),
		Run: func() (any, error) {
			g := gamDesc(p.blades, p.memBlades, p.cache)
			r, err := g.make()
			if err != nil {
				return nil, err
			}
			base, err := r.Alloc(p.kw.w.Footprint)
			if err != nil {
				return nil, err
			}
			params := workloads.Params{Threads: p.threads, Blades: p.blades, OpsPerThread: p.ops, Seed: p.seed}
			for t := 0; t < p.threads; t++ {
				if err := r.Spawn(t%p.blades, p.kw.w.Gen(base, t, params)); err != nil {
					return nil, err
				}
			}
			type engined interface{ Engine() *sim.Engine }
			eng := r.(engined).Engine()
			col := r.Collector()
			var res fig10Result
			fig10Sampler(eng, func() uint64 { return col.Counter(stats.CtrAccesses) }, fig10Bucket(T), &res.X, &res.Y)
			end := r.Run()
			res.EndMS = end.Sub(0).Seconds() * 1e3
			return res, nil
		},
	}
}

// Fig10 regenerates the elasticity panel: MOPS over time for MIND (with
// blade add, live drain, and blade kill at 20/45/70% of the baseline
// runtime) against static GAM.
func Fig10(s Scale) (*Figure, error) {
	p := fig10Config(s)
	baseRes, err := s.do([]prun.Spec{p.baselineSpec()})
	if err != nil {
		return nil, err
	}
	T := baseRes[0].(runResult).End.Sub(0)

	res, err := s.do([]prun.Spec{p.mindSpec(T), p.gamSpec(T)})
	if err != nil {
		return nil, err
	}
	mind := res[0].(fig10Result)
	gam := res[1].(fig10Result)

	fig := &Figure{
		ID: "10",
		Title: fmt.Sprintf("Elasticity timeline: +blade@%.2fms, drain@%.2fms, kill@%.2fms (%d pages migrated)",
			mind.AddAtMS, mind.DrainAtMS, mind.KillAtMS, mind.DrainPagesMoved),
		XLabel: "time (ms)",
		YLabel: "MOPS",
	}
	for i := range mind.X {
		if mind.X[i] > mind.EndMS {
			break
		}
		fig.add("MIND", mind.X[i], mind.Y[i])
	}
	for i := range gam.X {
		if gam.X[i] > gam.EndMS {
			break
		}
		fig.add("GAM", gam.X[i], gam.Y[i])
	}
	return fig, nil
}

// Fig10Details returns the raw MIND timeline result (cached if Fig10
// already ran) — shape tests and cmd reporting consume the event
// outcomes directly.
func Fig10Details(s Scale) (fig10Result, error) {
	p := fig10Config(s)
	baseRes, err := s.do([]prun.Spec{p.baselineSpec()})
	if err != nil {
		return fig10Result{}, err
	}
	T := baseRes[0].(runResult).End.Sub(0)
	res, err := s.do([]prun.Spec{p.mindSpec(T)})
	if err != nil {
		return fig10Result{}, err
	}
	return res[0].(fig10Result), nil
}
