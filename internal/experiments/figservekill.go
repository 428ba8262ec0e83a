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

// FigServeKill is the failure panel — beyond the paper's evaluation:
// a kill storm lands in a two-rack pod that is serving open-loop
// multi-tenant traffic with the request-robustness layer armed
// (per-tenant deadlines, bounded retries with jittered backoff, and
// brownout admission shedding while a rack is in recovery blackout).
// The storm is the pod injector's full repertoire:
//
//   - a hot-added memory blade gives the memory-poor rack headroom,
//   - then the borrowed blade serving that rack's tenant dies — the
//     cross-rack case: the lender's fabric port blackens, the borrower
//     detects after the (deliberately slow) detection delay, re-homes
//     the share onto the fresh blade, and retires the lease,
//   - the other rack's switch fails over to its backup data plane,
//   - and finally one of its memory blades drains live under load.
//
// The timeline tracks per-bucket availability (completed fraction of
// terminally-settled admissions) and the degraded fraction (shed +
// timed out + failed): availability collapses through the blackout —
// brownout sheds arrivals, queued requests burn their deadlines — and
// recovers to ~1 once the re-home completes, which is the graceful-
// degradation property the robustness layer exists for.

const (
	// figServeKillBuckets is the timeline resolution over the horizon.
	figServeKillBuckets = 32
	// figServeKillRate is each tenant's arrival rate (req/s) — low
	// enough that every tenant (including the cache-missing, cross-rack
	// victim) keeps up in steady state, so degradation on the timeline
	// is the storm's doing, not chronic saturation.
	figServeKillRate = 60_000
)

// figServeKillResult is everything the panel and its shape assertions
// consume from one storm run.
type figServeKillResult struct {
	X, Avail, Degraded []float64 // bucket start (ms) -> fraction

	VictimP99US float64 // borrowed-share tenant, cumulative
	SteadyP99US float64 // failover-rack tenant, cumulative

	Arrivals, Completed, Throttled, Dropped uint64
	Shed, TimedOut, Failed, Retried         uint64
	Kills, Recoveries                       uint64

	KillBlackoutMS   float64
	SwitchBlackoutMS float64
	DrainBlackoutMS  float64
	PagesLost        int
	PagesMoved       int
	VMAsLost         int
	EndMS            float64
}

type figServeKillParams struct {
	s       Scale
	horizon sim.Duration
	seed    uint64
}

func figServeKillConfig(s Scale) figServeKillParams {
	total := 3 * float64(figServeKillRate)
	horizon := sim.Duration(float64(s.TotalOps) / total * float64(sim.Second))
	return figServeKillParams{s: s, horizon: horizon, seed: s.seed()}
}

// spec runs the storm. All failure timing derives from the horizon, so
// every scale sees the same storm shape: detection is slowed to a
// bucket's width (the blackout must be visible on the timeline grid)
// and the deadline sits well under it (queued requests genuinely burn
// out during the blackout) but well above a healthy sojourn.
func (p figServeKillParams) spec() prun.Spec {
	return prun.Spec{
		Key: prun.KeyOf("figservekill", p.s.WorkloadScale, int64(p.horizon), p.seed),
		Run: func() (any, error) {
			H := p.horizon
			detection := H / 40
			deadline := H / 200

			// Rack 0 is memory-poor (one blade), rack 1 rich (three).
			mk := func(blades int) core.Config {
				rc := core.DefaultConfig(2, blades)
				rc.MemoryBladeCapacity = 1024 * mem.PageSize
				rc.CachePagesPerBlade = 64
				rc.Migration.DetectionDelay = detection
				rc.Seed = p.seed
				return rc
			}
			// Promotion epochs are disabled: left on, the promotion
			// policy would pull the borrowed share local as soon as the
			// hot-add creates headroom and return the lease before the
			// kill lands — self-healing, but not the failure this panel
			// measures.
			pod, err := core.NewPod(core.PodConfig{
				Racks:     []core.Config{mk(1), mk(3)},
				Promotion: core.PromotionConfig{Disable: true},
				Workers:   p.s.PodWorkers,
			})
			if err != nil {
				return nil, err
			}
			s, err := core.NewPodServing(pod, core.ServeConfig{
				Horizon:      H,
				QueueCap:     1 << 16,
				Deadline:     deadline,
				MaxRetries:   2,
				RetryBackoff: deadline / 10,
				Brownout:     0.5,
				Seed:         p.seed,
			})
			if err != nil {
				return nil, err
			}

			addTenant := func(name string, rack, blade, pages int) (mem.VMA, error) {
				proc := pod.Rack(rack).Exec(name)
				vma, err := proc.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite)
				if err != nil {
					return mem.VMA{}, err
				}
				i := uint64(0)
				return vma, s.AddTenant(core.TenantWorkload{
					Name:    name,
					Proc:    proc,
					Blade:   blade,
					Arrival: workloads.NewPoisson(p.seed, "servekill/"+name, figServeKillRate),
					NextOp: func() (mem.VA, bool) {
						pg := i % uint64(pages)
						wr := i%4 == 0
						i++
						return vma.Base + mem.VA(pg*mem.PageSize), wr
					},
				})
			}

			// The filler consumes rack 0's only local blade, so the
			// victim tenant's share lands on a borrowed blade.
			if _, err := pod.Rack(0).Exec("filler").Mmap(900*mem.PageSize, mem.PermReadWrite); err != nil {
				return nil, err
			}
			victimVMA, err := addTenant("victim", 0, 0, 400)
			if err != nil {
				return nil, err
			}
			if pod.Rack(0).BorrowedBlades() == 0 {
				return nil, fmt.Errorf("figservekill: rack 0 did not borrow")
			}
			if _, err := addTenant("steady", 1, 0, 64); err != nil {
				return nil, err
			}
			bulkVMA, err := addTenant("bulk", 1, 1, 128)
			if err != nil {
				return nil, err
			}
			killVictim, err := pod.Rack(0).Controller().Allocator().Translate(victimVMA.Base)
			if err != nil {
				return nil, err
			}
			drainVictim, err := pod.Rack(1).Controller().Allocator().Translate(bulkVMA.Base)
			if err != nil {
				return nil, err
			}
			// Pre-materialize the victim and drain datasets on their
			// blades (serving writes ride the compute-blade caches), so
			// the kill loses real pages and the drain moves real bytes.
			if err := materialize(pod.Rack(0), victimVMA.Base, 400); err != nil {
				return nil, err
			}
			if err := materialize(pod.Rack(1), bulkVMA.Base, 128); err != nil {
				return nil, err
			}

			// The storm, timed off the run start: headroom arrives at
			// 20%, the borrowed blade dies at 30%, rack 1's switch fails
			// over at 50%, and a rack-1 blade drains live at 65%.
			base := pod.Now()
			var res figServeKillResult
			var addErr, killErr, switchErr, drainErr error
			var krep core.KillReport
			var drep core.DrainReport
			var srep core.SwitchFailoverReport
			r0 := pod.Rack(0)
			r0.Engine().At(base.Add(H*2/10), func() { _, addErr = r0.AddMemBlade(0) })
			err = pod.KillMemBladeAt(0, killVictim, base.Add(H*3/10), func(r core.KillReport, e error) {
				krep, killErr = r, e
			})
			if err != nil {
				return nil, err
			}
			err = pod.KillSwitchAt(1, base.Add(H*5/10), func(r core.SwitchFailoverReport, e error) {
				srep, switchErr = r, e
			})
			if err != nil {
				return nil, err
			}
			err = pod.DrainMemBladeAt(1, drainVictim, base.Add(H*65/100), func(r core.DrainReport, e error) {
				drep, drainErr = r, e
			})
			if err != nil {
				return nil, err
			}

			// Availability timeline, sampled at window barriers: the
			// completed fraction of terminally settled admissions per
			// bucket, and the degraded (shed/timed-out/failed) fraction.
			settle := func() (done, bad uint64) {
				done = pod.CounterTotal(stats.CtrServeCompleted)
				bad = pod.CounterTotal(stats.CtrServeShed) +
					pod.CounterTotal(stats.CtrServeTimedOut) +
					pod.CounterTotal(stats.CtrServeFailed) +
					pod.CounterTotal(stats.CtrServeDropped)
				return done, bad
			}
			maxBuckets := 2 * figServeKillBuckets
			n := 0
			var lastDone, lastBad uint64
			var lastT sim.Time
			pod.SampleEvery(H/figServeKillBuckets, func(now sim.Time) {
				if n >= maxBuckets {
					return
				}
				n++
				done, bad := settle()
				dDone, dBad := done-lastDone, bad-lastBad
				if dDone+dBad > 0 {
					res.X = append(res.X, lastT.Sub(0).Seconds()*1e3)
					res.Avail = append(res.Avail, float64(dDone)/float64(dDone+dBad))
					res.Degraded = append(res.Degraded, float64(dBad)/float64(dDone+dBad))
				}
				lastDone, lastBad, lastT = done, bad, now
			})

			end, err := s.Run()
			if err != nil {
				return nil, err
			}
			for _, e := range []error{addErr, killErr, switchErr, drainErr} {
				if e != nil {
					return nil, fmt.Errorf("figservekill storm event: %w", e)
				}
			}

			col := pod.Collector()
			res.VictimP99US = float64(col.StreamHist("serve_lat[victim]").Percentile(99)) / 1e3
			res.SteadyP99US = float64(col.StreamHist("serve_lat[steady]").Percentile(99)) / 1e3
			res.Arrivals = col.Counter(stats.CtrServeArrivals)
			res.Completed = col.Counter(stats.CtrServeCompleted)
			res.Throttled = col.Counter(stats.CtrServeThrottled)
			res.Dropped = col.Counter(stats.CtrServeDropped)
			res.Shed = col.Counter(stats.CtrServeShed)
			res.TimedOut = col.Counter(stats.CtrServeTimedOut)
			res.Failed = col.Counter(stats.CtrServeFailed)
			res.Retried = col.Counter(stats.CtrServeRetried)
			res.Kills = col.Counter(stats.CtrBladeKills)
			res.Recoveries = col.Counter(stats.CtrBladeRecoveries)
			res.KillBlackoutMS = krep.Blackout().Seconds() * 1e3
			res.SwitchBlackoutMS = srep.Blackout().Seconds() * 1e3
			res.DrainBlackoutMS = drep.Blackout().Seconds() * 1e3
			res.PagesLost = krep.PagesLost
			res.PagesMoved = drep.PagesMoved
			res.VMAsLost = krep.VMAsLost
			res.EndMS = end.Sub(0).Seconds() * 1e3
			return res, nil
		},
	}
}

func figServeKillRun(s Scale) (figServeKillResult, error) {
	p := figServeKillConfig(s)
	res, err := s.do([]prun.Spec{p.spec()})
	if err != nil {
		return figServeKillResult{}, err
	}
	return res[0].(figServeKillResult), nil
}

// FigServeKill regenerates the failure panel: availability and
// degraded fraction over time through the kill storm.
func FigServeKill(s Scale) (*Figure, error) {
	r, err := figServeKillRun(s)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "servekill",
		Title: fmt.Sprintf(
			"Kill storm under robust serving: blade-kill blackout %.2fms (%d pages lost), failover %.2fms, drain moved %d pages; victim p99 %.0fus, steady p99 %.0fus, %d shed / %d timed out / %d retried",
			r.KillBlackoutMS, r.PagesLost, r.SwitchBlackoutMS, r.PagesMoved,
			r.VictimP99US, r.SteadyP99US, r.Shed, r.TimedOut, r.Retried),
		XLabel: "time (ms)",
		YLabel: "fraction of settled admissions",
	}
	for i := range r.X {
		fig.add("availability", r.X[i], r.Avail[i])
		fig.add("degraded", r.X[i], r.Degraded[i])
	}
	return fig, nil
}
