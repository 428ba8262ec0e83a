package experiments

import (
	"fmt"

	"mind/internal/core"
	"mind/internal/mem"
	prun "mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/workloads"
)

// FigPod is the pod-scale panel — beyond the paper's single-rack
// evaluation: a 2-rack pod where rack 0's only memory blade is occupied,
// so its working set lands on a blade borrowed from rack 1 across the
// inter-rack interconnect (every fault routed through both switches).
// Shortly after setup the occupying filler is unmapped, freeing local
// capacity; with the hot-page promotion policy on, the first promotion
// epoch migrates the working vma home (freeze → copy across the
// interconnect → TCAM rewrite) and throughput rises to rack-local
// levels. The no-migration toggle keeps paying the interconnect for
// every fault — the gap between the two lines is the policy's win.

// figPodResult carries the timeline and the outcome metrics a run of
// one toggle produces.
type figPodResult struct {
	X, Y  []float64 // bucket start (ms) -> MOPS in bucket
	EndMS float64

	RemoteLatUS   float64 // mean network component per remote access (µs)
	RemoteRate    float64 // remote accesses per access
	PromotedVMAs  uint64
	PromotedPages uint64
	Borrows       uint64
	Returns       uint64
	CrossMsgs     uint64
}

type figPodParams struct {
	s       Scale
	kw      keyedWorkload
	threads int
	blades  int
	cache   int
	ops     int
	seed    uint64
	wsPages uint64
}

func figPodConfig(s Scale) figPodParams {
	const blades = 4
	wsPages := uint64(1024 * s.WorkloadScale)
	threads := blades * 2
	return figPodParams{
		s:       s,
		kw:      kwUniform(wsPages, 0.5, 0.5),
		threads: threads,
		blades:  blades,
		cache:   cachePagesFor(s, wsPages*mem.PageSize),
		ops:     opsPerThread(s, threads),
		seed:    s.seed(),
		wsPages: wsPages,
	}
}

// bladeCap returns the per-blade capacity: exactly one working set's
// power-of-two reservation, so the filler vma fills rack 0's single
// blade completely.
func (p figPodParams) bladeCap() uint64 {
	return mem.NextPow2(p.wsPages * mem.PageSize)
}

// spec runs the pod timeline with the promotion policy on or off. T (0
// on the baseline run) fixes the sampling grid from the no-migration
// runtime so both series share buckets.
func (p figPodParams) spec(migrate bool, T sim.Duration) prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("figpod", migrate, p.s.DirSlots, int64(p.s.Epoch), p.kw.key,
			p.threads, p.blades, p.cache, p.ops, p.seed, int64(T)),
		Run: func() (any, error) {
			capBytes := p.bladeCap()
			rcfg := func(memBlades int) core.Config {
				c := core.DefaultConfig(p.blades, memBlades)
				c.MemoryBladeCapacity = capBytes
				c.CachePagesPerBlade = p.cache
				c.ASIC.SlotCapacity = p.s.DirSlots
				c.SplitterEpoch = p.s.Epoch
				return c
			}
			// Workers is deliberately not part of the cache key: any
			// worker count produces bit-identical simulations (the
			// determinism goldens enforce it), so cached results are
			// interchangeable across -workers settings.
			pod, err := core.NewPod(core.PodConfig{
				Racks: []core.Config{rcfg(1), rcfg(3)},
				Promotion: core.PromotionConfig{
					Epoch:     p.s.Epoch,
					Threshold: 16,
					Disable:   !migrate,
				},
				Workers: p.s.PodWorkers,
			})
			if err != nil {
				return nil, err
			}
			r0 := pod.Rack(0)
			proc := r0.Exec("pod-panel")
			filler, err := proc.Mmap(capBytes, mem.PermReadWrite)
			if err != nil {
				return nil, fmt.Errorf("figpod filler: %w", err)
			}
			work, err := proc.Mmap(p.wsPages*mem.PageSize, mem.PermReadWrite)
			if err != nil {
				return nil, fmt.Errorf("figpod working set: %w", err)
			}
			if r0.BorrowedBlades() == 0 {
				return nil, fmt.Errorf("figpod: working set did not land on a borrowed blade")
			}
			// Materialize the working set on the borrowed blade, so
			// promotion moves real bytes across the interconnect.
			if err := materialize(r0, work.Base, p.wsPages); err != nil {
				return nil, err
			}
			// Local capacity frees before the run: the promotion policy
			// (when enabled) now has a target.
			if err := proc.Munmap(filler.Base); err != nil {
				return nil, err
			}

			params := workloads.Params{Threads: p.threads, Blades: p.blades, OpsPerThread: p.ops, Seed: p.seed}
			for t := 0; t < p.threads; t++ {
				th, err := proc.SpawnThread(t % p.blades)
				if err != nil {
					return nil, err
				}
				th.Start(p.kw.w.Gen(work.Base, t, params), nil)
			}

			var res figPodResult
			bucket := 50 * sim.Microsecond
			if T > 0 {
				bucket = fig10Bucket(T)
			}
			// The throughput series samples at window barriers (every
			// engine parked) instead of via a self-rescheduling engine
			// event: an engine-resident sampler would live on one rack's
			// shard and keep that engine eternally non-idle. Same series
			// math as fig10Sampler, on the barrier grid.
			maxBuckets := 3 * fig10Buckets
			n := 0
			last := uint64(0)
			var lastT sim.Time
			pod.SampleEvery(bucket, func(now sim.Time) {
				if n >= maxBuckets {
					return
				}
				n++
				ops := pod.CounterTotal(stats.CtrAccesses)
				dt := now.Sub(lastT).Seconds()
				if dt > 0 {
					res.X = append(res.X, lastT.Sub(0).Seconds()*1e3)
					res.Y = append(res.Y, float64(ops-last)/dt/1e6)
				}
				last, lastT = ops, now
			})

			end := pod.RunThreads()
			// The merged collector view must be taken after the run: it
			// is a point-in-time merge of the per-rack shards.
			col := pod.Collector()
			res.EndMS = end.Sub(0).Seconds() * 1e3
			remote := col.Counter(stats.CtrRemoteAccesses)
			res.RemoteLatUS = col.MeanLatency(stats.LatNetwork, remote).Micros()
			res.RemoteRate = col.PerAccess(stats.CtrRemoteAccesses)
			res.PromotedVMAs = col.Counter(stats.CtrPromotedVMAs)
			res.PromotedPages = col.Counter(stats.CtrPromotedPages)
			res.Borrows = col.Counter(stats.CtrBladeBorrows)
			res.Returns = col.Counter(stats.CtrBladeReturns)
			res.CrossMsgs = col.Counter(stats.CtrCrossRackMsgs)
			return res, nil
		},
	}
}

// figPodRun fixes the sampling grid with a probe pass (the
// no-migration run's own end time, like Fig10's baseline run), then
// executes both toggles on that shared grid so their series line up
// bucket for bucket and the grid covers the full slower run. The probe
// deliberately re-simulates the no-migration configuration (only the
// bucket width differs): a fixed fine grid cannot cover an unknown
// runtime, and the deterministic shared grid is worth one extra Tiny
// run — the content-addressed cache dedupes it across FigPod and
// the shape test within a process.
func figPodRun(s Scale) (on, off figPodResult, err error) {
	p := figPodConfig(s)
	probe, err := s.do([]prun.Spec{p.spec(false, 0)})
	if err != nil {
		return on, off, err
	}
	T := sim.Duration(probe[0].(figPodResult).EndMS * 1e6)
	res, err := s.do([]prun.Spec{p.spec(true, T), p.spec(false, T)})
	if err != nil {
		return on, off, err
	}
	return res[0].(figPodResult), res[1].(figPodResult), nil
}

// FigPod regenerates the pod panel: MOPS over time for the 2-rack pod
// with the hot-page promotion policy on vs off.
func FigPod(s Scale) (*Figure, error) {
	on, off, err := figPodRun(s)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "pod",
		Title: fmt.Sprintf("Pod cross-rack memory: promotion moved %d vmas/%d pages; remote fault net lat %.2fus vs %.2fus without",
			on.PromotedVMAs, on.PromotedPages, on.RemoteLatUS, off.RemoteLatUS),
		XLabel: "time (ms)",
		YLabel: "MOPS",
	}
	add := func(label string, r figPodResult) {
		for i := range r.X {
			if r.X[i] > r.EndMS {
				break
			}
			fig.add(label, r.X[i], r.Y[i])
		}
	}
	add("MIND-pod (migration)", on)
	add("MIND-pod (no migration)", off)
	return fig, nil
}
