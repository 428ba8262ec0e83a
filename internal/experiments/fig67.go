package experiments

import (
	"fmt"

	"mind/internal/core"
	"mind/internal/mem"
	prun "mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
)

// Fig6 reproduces Figure 6: the number of remote accesses, invalidations
// and flushed pages per memory access as compute blades scale from 1 to
// 8 (10 threads per blade), per workload.
func Fig6(s Scale) (map[string]*Figure, error) {
	type point struct {
		wName  string
		blades int
	}
	var pts []point
	var specs []prun.Spec
	for _, kw := range kwAll(s.WorkloadScale) {
		cache := cachePagesFor(s, kw.w.Footprint)
		for _, blades := range []int{1, 2, 4, 8} {
			threads := blades * 10
			specs = append(specs, workRunSpec(s.tunedMind(blades, cache, core.TSO), kw,
				threads, blades, opsPerThread(s, threads), s.seed()))
			pts = append(pts, point{kw.w.Name, blades})
		}
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}

	out := make(map[string]*Figure)
	for i, pt := range pts {
		fig := out[pt.wName]
		if fig == nil {
			fig = &Figure{
				ID:     "6/" + pt.wName,
				Title:  fmt.Sprintf("Invalidation overhead, %s", pt.wName),
				XLabel: "blades",
				YLabel: "occurrences per access",
			}
			out[pt.wName] = fig
		}
		r := res[i].(runResult)
		fig.add("remote", float64(pt.blades), r.RemotePA)
		fig.add("invalidations", float64(pt.blades), r.InvalsPA)
		fig.add("flushed", float64(pt.blades), r.FlushedPA)
	}
	return out, nil
}

// fig7Latencies is one Figure 7 (left) data column: mean microseconds per
// MSI transition at a given sharer count.
type fig7Latencies struct {
	IS, SS, SM, MS, MM float64
}

// fig7LeftSpec hand-drives the MSI transitions on a fresh rack with the
// given number of compute blades. The run takes no scale parameters, so
// its key is shared across scales.
func fig7LeftSpec(blades int) prun.Spec {
	const pagesPerCase = 32
	return prun.Spec{
		Key: prun.KeyOf("fig7left", blades, pagesPerCase),
		Run: func() (any, error) {
			mr, err := newMind(blades, 2, 4096, core.TSO, nil)
			if err != nil {
				return nil, err
			}
			c := mr.c
			vma, err := mr.p.Mmap(uint64(16*pagesPerCase*mem.PageSize), mem.PermReadWrite)
			if err != nil {
				return nil, err
			}
			var threads []*core.Thread
			for i := 0; i < blades; i++ {
				th, err := mr.p.SpawnThread(i)
				if err != nil {
					return nil, err
				}
				threads = append(threads, th)
			}
			measure := func(th *core.Thread, va mem.VA, write bool) sim.Duration {
				start := c.Now()
				if err := th.Touch(va, write); err != nil {
					panic(err)
				}
				return c.Now().Sub(start)
			}
			mean := func(vals []sim.Duration) float64 {
				var sum sim.Duration
				for _, v := range vals {
					sum += v
				}
				return sum.Micros() / float64(len(vals))
			}

			// Pages are spaced one region apart so each case sees a fresh
			// directory entry.
			region := mem.VA(16 << 10)
			page := func(caseIdx, i int) mem.VA {
				return vma.Base + mem.VA(caseIdx*pagesPerCase)*region + mem.VA(i)*region
			}

			var iS, sS, sM, mS, mM []sim.Duration
			for i := 0; i < pagesPerCase; i++ {
				// I->S: first touch (cold read).
				iS = append(iS, measure(threads[0], page(0, i), false))
				// S->S: all other blades read it; measure the last reader.
				for b := 1; b < blades-1; b++ {
					_ = measure(threads[b], page(0, i), false)
				}
				sS = append(sS, measure(threads[blades-1], page(0, i), false))
				// S->M: writer invalidates the sharers in parallel.
				sM = append(sM, measure(threads[0], page(0, i), true))
				// M->S: another blade reads the modified region (serial
				// downgrade + flush).
				mS = append(mS, measure(threads[1], page(0, i), false))
				// M->M: prepare fresh M state, then a different blade writes.
				_ = measure(threads[0], page(1, i), true)
				mM = append(mM, measure(threads[1], page(1, i), true))
			}
			return fig7Latencies{
				IS: mean(iS), SS: mean(sS), SM: mean(sM), MS: mean(mS), MM: mean(mM),
			}, nil
		},
	}
}

// Fig7Left reproduces Figure 7 (left): end-to-end latency of each MSI
// transition, including invalidation cost, with 2/4/8 compute blades
// requesting the same pages. Values are microseconds, averaged over many
// pages.
func Fig7Left(s Scale) (*Figure, error) {
	fig := &Figure{
		ID:     "7-left",
		Title:  "Latency per MSI state transition",
		XLabel: "sharers (blades)",
		YLabel: "latency (us)",
	}
	bladeCounts := []int{2, 4, 8}
	var specs []prun.Spec
	for _, blades := range bladeCounts {
		specs = append(specs, fig7LeftSpec(blades))
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}
	for i, blades := range bladeCounts {
		lat := res[i].(fig7Latencies)
		x := float64(blades)
		fig.add("I->S/M", x, lat.IS)
		fig.add("S->S", x, lat.SS)
		fig.add("S->M", x, lat.SM)
		fig.add("M->S", x, lat.MS)
		fig.add("M->M", x, lat.MM)
	}
	return fig, nil
}

// Fig7Center reproduces Figure 7 (center): 4 KB access throughput across
// 8 blades x 1 thread under uniform random access, sweeping sharing ratio
// {0, 0.25, 0.5, 0.75, 1} for read ratios {0, 0.25, 0.5, 0.75, 1}.
func Fig7Center(s Scale) (*Figure, error) {
	fig := &Figure{
		ID:     "7-center",
		Title:  "Memory throughput vs read/sharing ratio",
		XLabel: "sharing ratio",
		YLabel: "IOPS",
	}
	const blades = 8
	workingSet := uint64(8192 * s.WorkloadScale)
	// Each blade's cache is 25% of the working set, as in the paper's
	// setup (512 MB against a 400k-page working set, §7.2).
	cache := cachePagesFor(s, workingSet*mem.PageSize)
	type point struct {
		read, share  float64
		threads, ops int
	}
	var pts []point
	var specs []prun.Spec
	for _, read := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for _, share := range []float64{0, 0.25, 0.5, 0.75, 1} {
			threads := blades // 1 thread per blade (§7.2)
			ops := opsPerThread(s, threads)
			specs = append(specs, workRunSpec(s.tunedMind(blades, cache, core.TSO),
				kwUniform(workingSet, read, share), threads, blades, ops, s.seed()))
			pts = append(pts, point{read, share, threads, ops})
		}
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		end := res[i].(runResult).End
		iops := float64(pt.threads*pt.ops) / end.Sub(0).Seconds()
		fig.add(fmt.Sprintf("R=%.2f", pt.read), pt.share, iops)
	}
	return fig, nil
}

// Fig7Right reproduces Figure 7 (right): the latency breakdown (page
// fault, network, invalidation queueing, TLB shootdown) of remote
// accesses at sharing ratio 1 for read ratios {0, 0.5, 1} across 1-8
// blades. Output series are labelled "R=x/component"; values are the
// mean microseconds per remote access. The sharing-ratio-1 runs at 8
// blades are the same runs Figure 7 (center) performs, so a shared cache
// computes them once.
func Fig7Right(s Scale) (*Figure, error) {
	fig := &Figure{
		ID:     "7-right",
		Title:  "Remote access latency breakdown (sharing=1)",
		XLabel: "blades",
		YLabel: "latency (us)",
	}
	workingSet := uint64(8192 * s.WorkloadScale)
	cache := cachePagesFor(s, workingSet*mem.PageSize)
	type point struct {
		read   float64
		blades int
	}
	var pts []point
	var specs []prun.Spec
	for _, read := range []float64{0, 0.5, 1} {
		for _, blades := range []int{1, 2, 4, 8} {
			threads := blades
			specs = append(specs, workRunSpec(s.tunedMind(blades, cache, core.TSO),
				kwUniform(workingSet, read, 1.0), threads, blades, opsPerThread(s, threads), s.seed()))
			pts = append(pts, point{read, blades})
		}
	}
	res, err := s.do(specs)
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		r := res[i].(runResult)
		for _, comp := range []struct {
			name string
			mean float64
		}{
			{stats.LatPgFault, r.LatPgFaultUS},
			{stats.LatNetwork, r.LatNetworkUS},
			{stats.LatInvQueue, r.LatInvQueueUS},
			{stats.LatInvTLB, r.LatInvTLBUS},
		} {
			fig.add(fmt.Sprintf("R=%.1f/%s", pt.read, comp.name), float64(pt.blades), comp.mean)
		}
	}
	return fig, nil
}
