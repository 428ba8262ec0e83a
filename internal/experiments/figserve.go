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

// FigServe is the open-loop saturation-sweep panel — beyond the paper's
// closed-loop evaluation: two tenants share one compute blade, a
// compliant tenant at a fixed arrival rate and an aggressor whose
// offered load sweeps across the blade's service capacity. Because
// arrivals are scheduled as engine events independent of completions
// (open loop), per-tenant p99 sojourn time rises sharply once offered
// load crosses the knee. With QoS throttling on, the control plane's
// token buckets shed the aggressor's excess at admission, and the
// compliant tenant's p99 stays bounded while the aggressor saturates —
// the multi-tenant isolation the Maruf & Chowdhury survey names as the
// open problem.

// Compliant-tenant and aggressor traffic shape (requests/sec).
const (
	figServeCompliantRate = 50_000
	// Contracted rates the QoS token buckets enforce (depth = 64): the
	// compliant tenant arrives below its contract and is never shed;
	// the aggressor's sweep crosses its contract early.
	figServeCompliantLimit = 100_000
	figServeAggrLimit      = 200_000
	figServeBucketDepth    = 64
)

// figServeMults are the aggressor's offered-load points, as multiples
// of figServeCompliantRate: 100k .. 3.2M req/s — spanning well below
// to well past a blade's service capacity.
var figServeMults = []int{2, 4, 8, 16, 32, 64}

// figServeResult is one sweep point's outcome for one QoS toggle.
type figServeResult struct {
	CompliantP99US float64
	AggrP99US      float64
	Arrivals       uint64
	Completed      uint64
	Throttled      uint64
	Dropped        uint64
	EndMS          float64
}

type figServeParams struct {
	s       Scale
	cache   int
	horizon sim.Duration
	seed    uint64
}

func figServeConfig(s Scale) figServeParams {
	w := workloads.MemcachedA(s.WorkloadScale)
	// The horizon is sized so the heaviest sweep point generates about
	// TotalOps arrivals; lighter points see proportionally fewer.
	maxRate := float64(figServeCompliantRate) * float64(1+figServeMults[len(figServeMults)-1])
	horizon := sim.Duration(float64(s.TotalOps) / maxRate * float64(sim.Second))
	return figServeParams{s: s, cache: cachePagesFor(s, w.Footprint), horizon: horizon, seed: s.seed()}
}

// spec runs one sweep point: aggressor offered load = mult x the
// compliant rate, with or without QoS admission control.
func (p figServeParams) spec(mult int, qos bool) prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("figserve", p.s.WorkloadScale, p.cache, int64(p.horizon), p.seed, mult, qos),
		Run: func() (any, error) {
			w := workloads.MemcachedA(p.s.WorkloadScale)
			ccfg := core.DefaultConfig(1, 2)
			ccfg.MemoryBladeCapacity = 1 << 30
			ccfg.CachePagesPerBlade = p.cache
			c, err := core.NewCluster(ccfg)
			if err != nil {
				return nil, err
			}
			specs := []ctrlplane.TenantSpec{
				{Name: "compliant", Footprint: w.Footprint, Active: w.Footprint / 2,
					RatePerSec: figServeCompliantLimit, Burst: figServeBucketDepth},
				{Name: "aggressor", Footprint: w.Footprint, Active: w.Footprint / 2,
					RatePerSec: figServeAggrLimit, Burst: figServeBucketDepth},
			}
			placements, err := ctrlplane.PlaceTenantsPod(specs, 1, 1, 2*w.Footprint, 2)
			if err != nil {
				return nil, fmt.Errorf("figserve placement: %w", err)
			}
			s, err := core.NewPodServing(c.Pod(), core.ServeConfig{Horizon: p.horizon, QueueCap: 1 << 20})
			if err != nil {
				return nil, err
			}
			params := workloads.Params{Threads: len(placements), Blades: 1, Seed: p.seed}
			for i, pl := range placements {
				proc := c.Exec(pl.Spec.Name)
				vma, err := proc.Mmap(pl.Spec.Footprint, mem.PermReadWrite)
				if err != nil {
					return nil, fmt.Errorf("figserve tenant %s mmap: %w", pl.Spec.Name, err)
				}
				rate := float64(figServeCompliantRate)
				if pl.Spec.Name == "aggressor" {
					rate = float64(figServeCompliantRate) * float64(mult)
				}
				var lim *ctrlplane.TokenBucket
				if qos {
					lim = pl.Bucket(0)
				}
				err = s.AddTenant(core.TenantWorkload{
					Name:    pl.Spec.Name,
					Proc:    proc,
					Blade:   pl.Shares[0].Blade,
					Arrival: workloads.NewPoisson(p.seed, pl.Spec.Name, rate),
					NextOp:  workloads.RequestStreamIn(w, vma.Base, vma.Len, i, params),
					Limiter: lim,
				})
				if err != nil {
					return nil, err
				}
			}
			end, err := s.Run()
			if err != nil {
				return nil, err
			}
			col := c.Collector()
			return figServeResult{
				CompliantP99US: float64(col.StreamHist("serve_lat[compliant]").Percentile(99)) / 1e3,
				AggrP99US:      float64(col.StreamHist("serve_lat[aggressor]").Percentile(99)) / 1e3,
				Arrivals:       col.Counter(stats.CtrServeArrivals),
				Completed:      col.Counter(stats.CtrServeCompleted),
				Throttled:      col.Counter(stats.CtrServeThrottled),
				Dropped:        col.Counter(stats.CtrServeDropped),
				EndMS:          end.Sub(0).Seconds() * 1e3,
			}, nil
		},
	}
}

// figServeRun executes the full sweep (both QoS toggles at every
// offered-load point) and returns results indexed [point][qos].
func figServeRun(s Scale) (noQoS, withQoS []figServeResult, err error) {
	p := figServeConfig(s)
	var specs []prun.Spec
	for _, m := range figServeMults {
		specs = append(specs, p.spec(m, false), p.spec(m, true))
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(res); i += 2 {
		noQoS = append(noQoS, res[i].(figServeResult))
		withQoS = append(withQoS, res[i+1].(figServeResult))
	}
	return noQoS, withQoS, nil
}

// FigServe regenerates the serving panel: per-tenant p99 sojourn time
// vs the aggressor's offered load, with and without QoS throttling.
func FigServe(s Scale) (*Figure, error) {
	noQoS, withQoS, err := figServeRun(s)
	if err != nil {
		return nil, err
	}
	last := len(figServeMults) - 1
	fig := &Figure{
		ID: "serve",
		Title: fmt.Sprintf(
			"Open-loop serving: at %dx load, compliant p99 %.0fus without QoS vs %.0fus with (%d aggressor arrivals shed)",
			figServeMults[last], noQoS[last].CompliantP99US, withQoS[last].CompliantP99US, withQoS[last].Throttled),
		XLabel: "aggressor offered load (kreq/s)",
		YLabel: "p99 sojourn (us)",
	}
	for i, m := range figServeMults {
		x := float64(figServeCompliantRate) * float64(m) / 1e3
		fig.add("compliant (no QoS)", x, noQoS[i].CompliantP99US)
		fig.add("aggressor (no QoS)", x, noQoS[i].AggrP99US)
		fig.add("compliant (QoS)", x, withQoS[i].CompliantP99US)
		fig.add("aggressor (QoS)", x, withQoS[i].AggrP99US)
	}
	return fig, nil
}
