// Command figures regenerates the paper's evaluation figures (Figures
// 5-9 of MIND, SOSP 2021) on the simulated rack and prints each panel as
// a text table.
//
// Usage:
//
//	figures -fig all -scale quick
//	figures -fig 5c -scale full -parallel 8
//
// Panel ids are those of experiments.Panels, the one panel list
// (figures -h prints them), or "all". Panel 10 is the elasticity timeline (beyond the paper):
// throughput while a memory blade hot-joins, another drains with live
// page migration, and a third is killed mid-run. Panel "pod" is the
// pod-scale panel (beyond the paper): a 2-rack pod whose memory-poor
// rack borrows a blade across the interconnect, with the hot-page
// promotion policy toggled on vs off. Panel "serve" is the open-loop
// serving sweep (beyond the paper): per-tenant p99 sojourn time vs an
// aggressor's offered load, with and without QoS throttling. Panel
// "servepod" is the sharded-serving sweep (beyond the paper): a fixed
// tenant population placed across pods of growing rack count by the
// pod-wide control plane, per-tenant p99 vs racks at constant offered
// load — the serving shards ride the windowed pod executor, so
// -workers applies to this panel too. Panel "servekill" is the
// failure-injection timeline (beyond the paper): a kill storm — a
// borrowed-blade kill, a switch failover and a live drain — lands on a
// 2-rack pod serving open-loop traffic with per-request deadlines,
// bounded retries and brownout shedding; the panel plots availability
// and degraded fraction per time bucket through blackout and recovery.
//
// Every data point is an independent deterministic simulation run, so
// -parallel fans the runs of each panel out across a worker pool
// (default: one worker per CPU). Output is bit-identical at any worker
// count; -parallel -1 forces the reference serial execution. Points
// repeated across panels (e.g. Figure 7 center/right, Figure 8
// center/right) are computed once per process via the run cache.
// Independently, -workers sets the pod panel's windowed executor width
// (racks advancing concurrently inside one simulation); the executor's
// determinism contract makes the panel bit-identical at any setting.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"mind/internal/experiments"
)

func main() {
	ids := make([]string, len(experiments.Panels))
	for i, p := range experiments.Panels {
		ids[i] = p.ID
	}
	fig := flag.String("fig", "all", "panel to regenerate ("+strings.Join(ids, " ")+", all)")
	scaleName := flag.String("scale", "quick", "experiment scale: tiny, quick, full")
	parallel := flag.Int("parallel", 0, "runner workers: 0 = one per CPU, -1 = serial, n = n workers")
	workers := flag.Int("workers", 0, "pod executor workers for the pod panel (0 = serial; output is identical at any count)")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "tiny":
		scale = experiments.Tiny
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	scale.Workers = *parallel
	scale.PodWorkers = *workers

	ran := false
	start := time.Now()
	for _, p := range experiments.Panels {
		if *fig != "all" && *fig != p.ID {
			continue
		}
		ran = true
		panelStart := time.Now()
		figs, err := p.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "panel %s: %v\n", p.ID, err)
			os.Exit(1)
		}
		for _, k := range slices.Sorted(maps.Keys(figs)) {
			fmt.Println(figs[k])
		}
		fmt.Printf("[panel %s regenerated in %v]\n\n", p.ID, time.Since(panelStart).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown panel %q\n", *fig)
		os.Exit(2)
	}
	hits, misses := experiments.CacheStats()
	fmt.Printf("[total %v — %d runs executed, %d served from cache]\n",
		time.Since(start).Round(time.Millisecond), misses, hits)
}
