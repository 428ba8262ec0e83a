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

// FigServePod is the sharded-serving panel — beyond the paper's
// single-rack evaluation: a fixed multi-tenant population (steady
// Poisson pairs, an MMPP burster behind a QoS token bucket, a diurnal
// tenant, and one tenant too big for any single rack's admission
// headroom) is placed by the pod-wide control plane onto pods of
// growing rack count and served open-loop by the per-rack serving
// shards inside the windowed executor. The offered load is constant,
// so as racks are added each compute blade carries less of it and the
// per-tenant p99 sojourn falls — serving capacity scales with the pod.
// The oversized tenant spans racks at every point (its per-rack rate
// and token-bucket split follow its placement shares), so the panel
// also tracks how a spanning tenant's pod-wide tail rides the same
// curve.

const (
	// figServePodRate is the steady tenants' arrival rate (req/s); the
	// other classes scale from it (burster quiet R/2 / burst 10R behind
	// a 2R contract, diurnal mean R, oversized tenant 2R).
	figServePodRate        = 150_000
	figServePodBucketDepth = 64
	// figServePodActiveUnit is each rack's admission capacity in active
	// bytes. Normal tenants charge C/8 active (C/4 footprint); the
	// oversized tenant charges 1.2C active (1.5C footprint), so it can
	// never fit whole on one rack and must span.
	figServePodActiveUnit = uint64(1) << 22
)

// figServePodRacks is the pod-size sweep. It starts at 2: the
// oversized tenant is unplaceable on a 1-rack pod by construction.
var figServePodRacks = []int{2, 3, 4}

// figServePodResult is one pod size's outcome.
type figServePodResult struct {
	SteadyP99US float64
	WideP99US   float64
	Arrivals    uint64
	Completed   uint64
	Throttled   uint64
	Dropped     uint64
	Spanned     int
	EndMS       float64
}

type figServePodParams struct {
	s       Scale
	cache   int
	horizon sim.Duration
	seed    uint64
}

func figServePodConfig(s Scale) figServePodParams {
	w := workloads.MemcachedA(s.WorkloadScale)
	// Aggregate offered load: 2 steady + MMPP mean + diurnal + wide.
	const r = float64(figServePodRate)
	mmppMean := (r/2*50e-6 + 10*r*20e-6) / 70e-6
	total := 2*r + mmppMean + r + 2*r
	horizon := sim.Duration(float64(s.TotalOps) / total * float64(sim.Second))
	return figServePodParams{s: s, cache: cachePagesFor(s, w.Footprint), horizon: horizon, seed: s.seed()}
}

// spec runs the fixed population on a pod of the given rack count.
func (p figServePodParams) spec(racks int) prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("figservepod", p.s.WorkloadScale, p.cache, int64(p.horizon), p.seed, racks),
		Run: func() (any, error) {
			w := workloads.MemcachedA(p.s.WorkloadScale)
			const bladesPerRack = 2
			pcfg := core.PodConfig{Workers: p.s.PodWorkers}
			for ri := 0; ri < racks; ri++ {
				rcfg := core.DefaultConfig(bladesPerRack, 2)
				rcfg.MemoryBladeCapacity = 1 << 30
				rcfg.CachePagesPerBlade = p.cache
				pcfg.Racks = append(pcfg.Racks, rcfg)
			}
			pod, err := core.NewPod(pcfg)
			if err != nil {
				return nil, err
			}
			C := figServePodActiveUnit
			specs := []ctrlplane.TenantSpec{
				{Name: "steady0", Footprint: C / 4, Active: C / 8, RatePerSec: figServePodRate},
				{Name: "steady1", Footprint: C / 4, Active: C / 8, RatePerSec: figServePodRate},
				{Name: "burst", Footprint: C / 4, Active: C / 8,
					RatePerSec: 2 * figServePodRate, Burst: figServePodBucketDepth},
				{Name: "diurnal", Footprint: C / 4, Active: C / 8, RatePerSec: figServePodRate},
				{Name: "wide", Footprint: C + C/2, Active: C + C/5,
					RatePerSec: 4 * figServePodRate, Burst: 2 * figServePodBucketDepth},
			}
			placements, err := ctrlplane.PlaceTenantsPod(specs, racks, bladesPerRack, C, 2)
			if err != nil {
				return nil, fmt.Errorf("figservepod placement (%d racks): %w", racks, err)
			}
			s, err := core.NewPodServing(pod, core.ServeConfig{Horizon: p.horizon, QueueCap: 1 << 16})
			if err != nil {
				return nil, err
			}
			params := workloads.Params{Threads: len(placements), Blades: bladesPerRack, Seed: p.seed}
			spanned, stream := 0, 0
			for _, pl := range placements {
				if pl.Spans() {
					spanned++
				}
				for si, share := range pl.Shares {
					tag := fmt.Sprintf("%s@r%d", pl.Spec.Name, share.Rack)
					proc := pod.Rack(share.Rack).Exec(tag)
					footprint := share.Footprint
					if footprint < mem.PageSize {
						footprint = mem.PageSize
					}
					vma, err := proc.Mmap(footprint, mem.PermReadWrite)
					if err != nil {
						return nil, fmt.Errorf("figservepod share %s mmap: %w", tag, err)
					}
					var arr core.ArrivalProcess
					var lim *ctrlplane.TokenBucket
					const r = float64(figServePodRate)
					switch pl.Spec.Name {
					case "burst":
						arr = workloads.NewMMPP(p.seed, tag, r/2*share.Share, 10*r*share.Share, 50e-6, 20e-6)
						lim = pl.Bucket(si)
					case "wide":
						arr = workloads.NewPoisson(p.seed, tag, 2*r*share.Share)
						lim = pl.Bucket(si)
					case "diurnal":
						arr = workloads.NewDiurnal(p.seed, tag, r*share.Share, 0.8, 2*sim.Millisecond)
					default:
						arr = workloads.NewPoisson(p.seed, tag, r*share.Share)
					}
					err = s.AddTenant(core.TenantWorkload{
						Name:    pl.Spec.Name,
						Proc:    proc,
						Blade:   share.Blade,
						Arrival: arr,
						NextOp:  workloads.RequestStreamIn(w, vma.Base, vma.Len, stream, params),
						Limiter: lim,
					})
					if err != nil {
						return nil, err
					}
					stream++
				}
			}
			end, err := s.Run()
			if err != nil {
				return nil, err
			}
			col := pod.Collector()
			return figServePodResult{
				SteadyP99US: float64(col.StreamHist("serve_lat[steady0]").Percentile(99)) / 1e3,
				WideP99US:   float64(col.StreamHist("serve_lat[wide]").Percentile(99)) / 1e3,
				Arrivals:    col.Counter(stats.CtrServeArrivals),
				Completed:   col.Counter(stats.CtrServeCompleted),
				Throttled:   col.Counter(stats.CtrServeThrottled),
				Dropped:     col.Counter(stats.CtrServeDropped),
				Spanned:     spanned,
				EndMS:       end.Sub(0).Seconds() * 1e3,
			}, nil
		},
	}
}

// figServePodRun executes the rack sweep.
func figServePodRun(s Scale) ([]figServePodResult, error) {
	p := figServePodConfig(s)
	var specs []prun.Spec
	for _, racks := range figServePodRacks {
		specs = append(specs, p.spec(racks))
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}
	out := make([]figServePodResult, len(res))
	for i := range res {
		out[i] = res[i].(figServePodResult)
	}
	return out, nil
}

// FigServePod regenerates the sharded-serving panel: per-tenant p99
// sojourn vs pod size at constant offered load.
func FigServePod(s Scale) (*Figure, error) {
	res, err := figServePodRun(s)
	if err != nil {
		return nil, err
	}
	first, last := res[0], res[len(res)-1]
	fig := &Figure{
		ID: "servepod",
		Title: fmt.Sprintf(
			"Sharded serving: steady p99 %.1fus on %d racks vs %.1fus on %d racks at constant offered load (spanning tenant %.1fus -> %.1fus)",
			first.SteadyP99US, figServePodRacks[0], last.SteadyP99US, figServePodRacks[len(figServePodRacks)-1],
			first.WideP99US, last.WideP99US),
		XLabel: "racks",
		YLabel: "p99 sojourn (us)",
	}
	for i, racks := range figServePodRacks {
		fig.add("steady tenant", float64(racks), res[i].SteadyP99US)
		fig.add("spanning tenant", float64(racks), res[i].WideP99US)
	}
	return fig, nil
}
