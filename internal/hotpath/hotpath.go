// Package hotpath is the macro-benchmark harness behind the BENCH_*.json
// trajectory files: fixed Figure-6-class workloads driven to completion
// while the Go allocator and the event engine are measured. Each scenario
// is pinned (shape + seed) so ns/op, allocs/op and events/sec are
// comparable across revisions.
//
// Seven scenarios are tracked, one BENCH_*.json each:
//
//   - "hotpath" (BENCH_hotpath.json): the TF access stream on an 8-blade
//     rack, one thread per blade — the per-op cost probe.
//   - "rack" (BENCH_rack.json): the same workload class at rack scale, 64
//     compute blades with 4 threads each — the scale headroom probe. Event
//     count and blade count are high enough that any per-event structure
//     that grows with either (event-queue sifts, hash lookups, sharer-set
//     walks) dominates the host-side cost.
//   - "pod" (BENCH_pod.json): the multi-rack probe — a 4-rack pod, 16
//     compute blades per rack, a GC/memcached mix, where two racks
//     exhaust their local memory blades and borrow capacity across the
//     interconnect. Every fault on the borrowing racks exercises the
//     both-switches route and the interconnect queueing, so this pins
//     the host-side cost of the pod topology layer.
//   - "podpar" (BENCH_podpar.json): the parallel-executor probe — the
//     same borrower/lender mix on a 32-rack pod, run twice in one
//     invocation: serially (1 worker) and on the worker pool. The two
//     runs must produce identical simulation outputs (the determinism
//     contract), and the recorded ParallelSpeedup pins the scaling of
//     the windowed executor.
//   - "serve" (BENCH_serve.json): the open-loop serving probe — three
//     tenants with distinct arrival processes (steady Poisson, an MMPP
//     burst aggressor held to a QoS token bucket, diurnal) sharing a
//     4-blade rack. Pins the host-side cost of arrivals, admission and
//     the streaming histograms; request conservation is the identity
//     check.
//   - "servepar" (BENCH_servepar.json): the sharded-serving probe — a
//     16-rack pod serving a mixed Poisson/MMPP/diurnal tenant population
//     placed across racks by the pod-wide control-plane policy (two
//     tenants too big for any single rack span racks), with the first
//     half of the racks memory-poor so their serving faults cross the
//     interconnect. Run twice like podpar (serial, then the worker
//     pool); any simulation-output divergence fails the run instead of
//     reporting a speedup.
//   - "servekill" (BENCH_servekill.json): the failure-injection probe —
//     a 2-rack pod serving open-loop traffic with the request-robustness
//     layer armed (deadlines, bounded retries, brownout shedding) while
//     a kill storm lands: a hot-added blade, a borrowed-blade kill, a
//     switch failover, and a live drain. Pins the host-side cost of the
//     recovery machinery under load; the request accounting (shed /
//     timed-out / retried and kills == recoveries) is the identity
//     check.
package hotpath

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/workloads"
)

// Config fixes a macro workload's shape. Use Default/Rack (or Scenario)
// for the tracked configurations; only Ops should vary (CI smoke runs use
// a small op count).
type Config struct {
	Scenario      string
	ComputeBlades int
	MemoryBlades  int
	Threads       int
	TotalOps      int
	Seed          uint64
	// Racks > 1 runs the scenario on a multi-rack pod: ComputeBlades is
	// then per rack and Threads/TotalOps are pod totals. Racks alternate
	// the GC and MA workloads, and the first half of the racks are
	// shaped with too little local memory, so they borrow blades from
	// the second half's spares over the interconnect.
	Racks int
	// Workload names the Fig-6 application mix: "TF" (high locality,
	// sparse sharing) or "GC" (PageRank: poor locality, rack-wide
	// read-write sharing). Empty means TF.
	Workload string
	// WorkloadScale multiplies the workload footprint.
	WorkloadScale int
	// CacheFrac sizes each blade's page cache as a fraction of the
	// workload footprint.
	CacheFrac float64
	// Workers is the multi-rack pod executor's worker count (0 or 1:
	// serial). Simulation outputs are identical at any worker count;
	// only host-side timings change.
	Workers int
}

// Default is the tracked per-op macro-benchmark configuration
// (BENCH_hotpath.json).
func Default() Config {
	return Config{
		Scenario:      "hotpath",
		ComputeBlades: 8,
		MemoryBlades:  2,
		Threads:       8,
		TotalOps:      160_000,
		Seed:          1021, // MIND is SOSP '21; any fixed value works
		Workload:      "TF",
		WorkloadScale: 1,
		CacheFrac:     0.25,
	}
}

// Rack is the tracked rack-scale configuration (BENCH_rack.json): 64
// compute blades, 4 threads per blade, the GC (PageRank) mix across 8
// memory blades. GC's skewed shared read-write vertex traffic keeps
// rack-wide sharer sets and invalidation multicasts on the critical path,
// so per-event queue and table costs dominate instead of cache-hit work.
func Rack() Config {
	return Config{
		Scenario:      "rack",
		ComputeBlades: 64,
		MemoryBlades:  8,
		Threads:       256,
		TotalOps:      256_000,
		Seed:          1021,
		Workload:      "GC",
		WorkloadScale: 4,
		CacheFrac:     0.25,
	}
}

// PodScenario is the tracked multi-rack configuration (BENCH_pod.json):
// a 4-rack pod, 16 compute blades and 64 threads per rack, racks
// alternating the GC (PageRank) and M_A (Memcached/YCSB-A) mixes. Racks
// 0 and 1 get a single undersized local memory blade and must borrow
// from racks 2 and 3, so half the pod's faults cross the interconnect
// and traverse two switch pipelines.
func PodScenario() Config {
	return Config{
		Scenario:      "pod",
		Racks:         4,
		ComputeBlades: 16,
		MemoryBlades:  0, // shaped per rack (see runPod)
		Threads:       256,
		TotalOps:      256_000,
		Seed:          1021,
		Workload:      "GC+MA",
		WorkloadScale: 4,
		CacheFrac:     0.25,
	}
}

// PodParScenario is the tracked parallel-executor configuration
// (BENCH_podpar.json): the pod borrower/lender mix scaled to 32 racks
// with 8 compute blades and 8 threads per rack. Run executes it twice —
// once with 1 worker, once with the configured pool — verifies the two
// simulations are identical, and records the events/sec speedup.
func PodParScenario() Config {
	return Config{
		Scenario:      "podpar",
		Racks:         32,
		ComputeBlades: 8,
		Threads:       256,
		TotalOps:      1_024_000,
		Seed:          1021,
		Workload:      "GC+MA",
		WorkloadScale: 4,
		CacheFrac:     0.25,
		Workers:       4,
	}
}

// ServeScenario is the tracked open-loop serving configuration
// (BENCH_serve.json): three tenants with distinct arrival processes —
// a steady Poisson tenant, an MMPP burst aggressor held to a QoS
// token bucket, and a diurnal tenant — sharing a 4-blade rack.
// TotalOps sets the approximate arrival budget; the horizon is derived
// from it and the tenants' aggregate mean rate, so CI smoke runs scale
// down with -ops exactly like the closed-loop scenarios.
func ServeScenario() Config {
	return Config{
		Scenario:      "serve",
		ComputeBlades: 4,
		MemoryBlades:  2,
		Threads:       3, // one serve stream per tenant
		TotalOps:      160_000,
		Seed:          1021,
		Workload:      "MA",
		WorkloadScale: 1,
		CacheFrac:     0.25,
	}
}

// ServeParScenario is the tracked sharded-serving configuration
// (BENCH_servepar.json): a 16-rack pod, 8 compute blades per rack,
// serving 26 open-loop tenants — a per-class mix of steady Poisson,
// MMPP burst (QoS-throttled), and diurnal arrival processes, plus two
// "span" tenants whose hot sets exceed any single rack's admission
// headroom and are split across racks by the pod placement policy.
// The first half of the racks are memory-poor and borrow blades, so
// serving faults exercise the interconnect. Run executes the scenario
// twice — serially, then on the worker pool — verifies the two
// simulations are bit-identical, and records the events/sec speedup.
func ServeParScenario() Config {
	return Config{
		Scenario:      "servepar",
		Racks:         16,
		ComputeBlades: 8,
		MemoryBlades:  0, // shaped per rack (see runServePod)
		Threads:       26,
		TotalOps:      1_024_000,
		Seed:          1021,
		Workload:      "MA",
		WorkloadScale: 1,
		CacheFrac:     0.25,
		Workers:       4,
	}
}

// ServeKillScenario is the tracked failure-injection configuration
// (BENCH_servekill.json): a 2-rack pod — rack 0 memory-poor, so its
// victim tenant's share sits on a borrowed blade — serving three
// open-loop Poisson tenants with per-request deadlines, bounded
// retries and brownout shedding, while the pod injector's full
// repertoire lands mid-run: a hot-added blade, the borrowed blade's
// death (cross-rack recovery), a switch failover on the other rack,
// and a live blade drain. All failure timing derives from the horizon,
// so smoke runs at lower -ops see the same storm shape.
func ServeKillScenario() Config {
	return Config{
		Scenario:      "servekill",
		Racks:         2,
		ComputeBlades: 2,
		MemoryBlades:  0, // shaped per rack (see runServeKill)
		Threads:       3, // one serve stream per tenant
		TotalOps:      480_000,
		Seed:          1021,
		Workload:      "MA",
		WorkloadScale: 1,
		CacheFrac:     0.25,
		Workers:       2,
	}
}

// Scenario returns the tracked configuration with the given name.
func Scenario(name string) (Config, error) {
	switch name {
	case "hotpath":
		return Default(), nil
	case "rack":
		return Rack(), nil
	case "pod":
		return PodScenario(), nil
	case "podpar":
		return PodParScenario(), nil
	case "serve":
		return ServeScenario(), nil
	case "servepar":
		return ServeParScenario(), nil
	case "servekill":
		return ServeKillScenario(), nil
	}
	return Config{}, fmt.Errorf("hotpath: unknown scenario %q (want hotpath, rack, pod, podpar, serve, servepar or servekill)", name)
}

// Result is one measured macro run.
type Result struct {
	// Workload identity.
	Scenario string `json:"scenario"`
	Workload string `json:"workload"`
	Blades   int    `json:"blades"`
	Threads  int    `json:"threads"`
	Ops      uint64 `json:"ops"`

	// Simulation outputs (determinism check across revisions).
	Events      uint64  `json:"events"`
	RemoteRate  float64 `json:"remote_per_access"`
	VirtualEndS float64 `json:"virtual_end_s"`

	// Pod-scenario outputs (zero elsewhere): racks in the pod,
	// cross-rack messages routed through both switches, and blades
	// borrowed across racks.
	Racks         int    `json:"racks,omitempty"`
	CrossRackMsgs uint64 `json:"cross_rack_msgs,omitempty"`
	BladeBorrows  uint64 `json:"blade_borrows,omitempty"`

	// Parallel-executor outputs (podpar scenario only): the worker
	// count of the parallel run, the serial baseline's events/sec, and
	// the parallel/serial events-per-second ratio.
	Workers          int     `json:"workers,omitempty"`
	BaseEventsPerSec float64 `json:"base_events_per_sec,omitempty"`
	ParallelSpeedup  float64 `json:"parallel_speedup,omitempty"`

	// Windowed-executor work accounting (multi-rack scenarios only):
	// windows swept, grid windows the sparse-horizon jump skipped, and
	// barriers whose cross-rack flush was elided. Deterministic — the
	// window schedule is worker-count invariant — so the parallel
	// scenarios include them in their divergence checks.
	WindowsExecuted uint64 `json:"windows_executed,omitempty"`
	WindowsSkipped  uint64 `json:"windows_skipped,omitempty"`
	FlushesElided   uint64 `json:"flushes_elided,omitempty"`

	// Serving-scenario outputs (serve family only): open-loop arrival
	// accounting and the steady (compliant) tenant's p99 sojourn time
	// — all deterministic, so they double as identity checks across
	// revisions. SpannedTenants counts tenants the pod placement split
	// across racks (servepar only).
	ServeArrivals  uint64  `json:"serve_arrivals,omitempty"`
	ServeCompleted uint64  `json:"serve_completed,omitempty"`
	ServeThrottled uint64  `json:"serve_throttled,omitempty"`
	ServeDropped   uint64  `json:"serve_dropped,omitempty"`
	ServeP99Us     float64 `json:"serve_p99_us,omitempty"`
	SpannedTenants int     `json:"spanned_tenants,omitempty"`

	// Failure-injection outputs (servekill scenario only): terminal
	// request fates from the robustness layer and the recovery
	// accounting (kills counts the blade kill and the switch failover;
	// every kill must have a matching completed recovery).
	ServeShed     uint64 `json:"serve_shed,omitempty"`
	ServeTimedOut uint64 `json:"serve_timedout,omitempty"`
	ServeRetried  uint64 `json:"serve_retried,omitempty"`
	ServeFailed   uint64 `json:"serve_failed,omitempty"`
	Kills         uint64 `json:"kills,omitempty"`
	Recoveries    uint64 `json:"recoveries,omitempty"`
	PagesLost     int    `json:"pages_lost,omitempty"`
	PagesMoved    int    `json:"pages_moved,omitempty"`

	// Host-side cost per simulated access.
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// Run executes the macro benchmark once and returns the measurement. The
// run is deterministic in its simulation outputs (Ops, Events, RemoteRate,
// VirtualEndS); only the host-side timings vary between hosts.
func Run(cfg Config) (Result, error) {
	if cfg.WorkloadScale < 1 {
		cfg.WorkloadScale = 1
	}
	if cfg.CacheFrac <= 0 {
		cfg.CacheFrac = 0.25
	}
	if cfg.Scenario == "podpar" {
		return runPodPar(cfg)
	}
	if cfg.Scenario == "serve" {
		return runServe(cfg)
	}
	if cfg.Scenario == "servepar" {
		return runServePar(cfg)
	}
	if cfg.Scenario == "servekill" {
		return runServeKill(cfg)
	}
	if cfg.Racks > 1 {
		return runPod(cfg)
	}
	var w workloads.Workload
	switch cfg.Workload {
	case "", "TF":
		w = workloads.TF(cfg.WorkloadScale)
	case "GC":
		w = workloads.GC(cfg.WorkloadScale)
	default:
		return Result{}, fmt.Errorf("hotpath: unknown workload %q", cfg.Workload)
	}
	ccfg := core.DefaultConfig(cfg.ComputeBlades, cfg.MemoryBlades)
	ccfg.MemoryBladeCapacity = 1 << 30
	ccfg.CachePagesPerBlade = int(float64(w.Footprint/mem.PageSize) * cfg.CacheFrac)
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return Result{}, err
	}
	p := c.Exec("hotpath")
	vma, err := p.Mmap(w.Footprint, mem.PermReadWrite)
	if err != nil {
		return Result{}, err
	}
	params := workloads.Params{
		Threads:      cfg.Threads,
		Blades:       cfg.ComputeBlades,
		OpsPerThread: cfg.TotalOps / cfg.Threads,
		Seed:         cfg.Seed,
	}
	threads := make([]*core.Thread, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		th, err := p.SpawnThread(t % cfg.ComputeBlades)
		if err != nil {
			return Result{}, err
		}
		threads[t] = th
	}

	// Settle the allocator before the measured window.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events0 := c.Engine().Executed
	start := time.Now()

	for t, th := range threads {
		th.Start(w.Gen(vma.Base, t, params), nil)
	}
	end := c.RunThreads()

	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	col := c.Collector()
	ops := col.Counter(stats.CtrAccesses)
	if ops == 0 {
		return Result{}, fmt.Errorf("hotpath: run performed no accesses")
	}
	events := c.Engine().Executed - events0
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	return Result{
		Scenario:     cfg.Scenario,
		Workload:     fmt.Sprintf("%s x%d blades (Fig-6 class)", w.Name, cfg.ComputeBlades),
		Blades:       cfg.ComputeBlades,
		Threads:      cfg.Threads,
		Ops:          ops,
		Events:       events,
		RemoteRate:   col.PerAccess(stats.CtrRemoteAccesses),
		VirtualEndS:  end.Sub(0).Seconds(),
		NsPerOp:      float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerOp:  float64(allocs) / float64(ops),
		BytesPerOp:   float64(bytes) / float64(ops),
		EventsPerSec: float64(events) / wall.Seconds(),
	}, nil
}

// Serve-scenario traffic shape: a steady Poisson tenant, an MMPP
// aggressor whose bursts exceed its contracted rate (so the QoS token
// bucket sheds load), and a diurnal tenant — rates in requests/sec,
// dwells in seconds.
const (
	serveSteadyRate  = 100_000
	serveQuietRate   = 50_000
	serveBurstRate   = 2_000_000
	serveQuietDwellS = 50e-6
	serveBurstDwellS = 20e-6
	serveDiurnalRate = 100_000
	serveAggrLimit   = 150_000 // aggressor's contracted rate (token bucket)
	serveAggrBurst   = 64      // token-bucket depth
)

// serveMeanRate is the tenants' aggregate mean arrival rate, used to
// derive the horizon from TotalOps.
func serveMeanRate() float64 {
	mmppMean := (serveQuietRate*serveQuietDwellS + serveBurstRate*serveBurstDwellS) /
		(serveQuietDwellS + serveBurstDwellS)
	return serveSteadyRate + mmppMean + serveDiurnalRate
}

// runServe executes the open-loop serving scenario: three tenants are
// placed onto blades by the control-plane policy, their arrival chains
// are injected into the engine, and the run drains after the horizon.
func runServe(cfg Config) (Result, error) {
	w := workloads.MemcachedA(cfg.WorkloadScale)
	ccfg := core.DefaultConfig(cfg.ComputeBlades, cfg.MemoryBlades)
	ccfg.MemoryBladeCapacity = 1 << 30
	ccfg.CachePagesPerBlade = int(float64(w.Footprint/mem.PageSize) * cfg.CacheFrac)
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return Result{}, err
	}

	// Place tenants via the overcommit-gated control-plane policy: the
	// hot sets must fit raw capacity, the reservations ride a 2x factor.
	specs := []ctrlplane.TenantSpec{
		{Name: "steady", Footprint: w.Footprint, Active: w.Footprint / 2, RatePerSec: serveSteadyRate},
		{Name: "burst", Footprint: w.Footprint, Active: w.Footprint / 2, RatePerSec: serveAggrLimit, Burst: serveAggrBurst},
		{Name: "diurnal", Footprint: w.Footprint, Active: w.Footprint / 2, RatePerSec: serveDiurnalRate},
	}
	placements, err := ctrlplane.PlaceTenants(specs, cfg.ComputeBlades, 2*w.Footprint, 2)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: serve tenant placement: %w", err)
	}

	horizon := sim.Duration(float64(cfg.TotalOps) / serveMeanRate() * float64(sim.Second))
	s, err := core.NewServing(c.Rack, core.ServeConfig{Horizon: horizon, QueueCap: 1 << 16})
	if err != nil {
		return Result{}, err
	}
	params := workloads.Params{Threads: len(placements), Blades: cfg.ComputeBlades, Seed: cfg.Seed}
	for i, pl := range placements {
		p := c.Exec(pl.Spec.Name)
		vma, err := p.Mmap(pl.Spec.Footprint, mem.PermReadWrite)
		if err != nil {
			return Result{}, fmt.Errorf("hotpath: serve tenant %s mmap: %w", pl.Spec.Name, err)
		}
		var arr core.ArrivalProcess
		var lim *ctrlplane.TokenBucket
		switch pl.Spec.Name {
		case "steady":
			arr = workloads.NewPoisson(cfg.Seed, "steady", serveSteadyRate)
		case "burst":
			arr = workloads.NewMMPP(cfg.Seed, "burst",
				serveQuietRate, serveBurstRate, serveQuietDwellS, serveBurstDwellS)
			lim = ctrlplane.NewTokenBucket(pl.Spec.RatePerSec, pl.Spec.Burst)
		case "diurnal":
			arr = workloads.NewDiurnal(cfg.Seed, "diurnal", serveDiurnalRate, 0.8, 2*sim.Millisecond)
		}
		err = s.AddTenant(core.TenantWorkload{
			Name:    pl.Spec.Name,
			Proc:    p,
			Blade:   pl.Blade,
			Arrival: arr,
			NextOp:  workloads.RequestStreamIn(w, vma.Base, vma.Len, i, params),
			Limiter: lim,
		})
		if err != nil {
			return Result{}, err
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events0 := c.Engine().Executed
	start := time.Now()

	end, err := s.Run()
	if err != nil {
		return Result{}, err
	}

	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	col := c.Collector()
	ops := col.Counter(stats.CtrAccesses)
	if ops == 0 {
		return Result{}, fmt.Errorf("hotpath: serve run performed no accesses")
	}
	events := c.Engine().Executed - events0
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	return Result{
		Scenario:       cfg.Scenario,
		Workload:       fmt.Sprintf("open-loop MA x%d tenants (serve)", len(placements)),
		Blades:         cfg.ComputeBlades,
		Threads:        len(placements),
		Ops:            ops,
		Events:         events,
		RemoteRate:     col.PerAccess(stats.CtrRemoteAccesses),
		VirtualEndS:    end.Sub(0).Seconds(),
		Racks:          1,
		ServeArrivals:  col.Counter(stats.CtrServeArrivals),
		ServeCompleted: col.Counter(stats.CtrServeCompleted),
		ServeThrottled: col.Counter(stats.CtrServeThrottled),
		ServeDropped:   col.Counter(stats.CtrServeDropped),
		ServeP99Us:     float64(col.StreamHist("serve_lat[steady]").Percentile(99)) / 1e3,
		NsPerOp:        float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerOp:    float64(allocs) / float64(ops),
		BytesPerOp:     float64(bytes) / float64(ops),
		EventsPerSec:   float64(events) / wall.Seconds(),
	}, nil
}

// Servepar traffic shape: per-class arrival rates (requests/sec) and
// the contracted QoS rates the per-share token buckets enforce. The
// MMPP class's burst mean (~321k/s) far exceeds its 150k contract, so
// throttling is exercised on every run; the span tenants are heavy
// steady tenants whose hot sets exceed a rack's admission headroom.
const (
	sparSteadyRate   = 100_000
	sparQuietRate    = 50_000
	sparBurstRate    = 1_000_000
	sparQuietDwellS  = 50e-6
	sparBurstDwellS  = 20e-6
	sparDiurnalRate  = 100_000
	sparDiurnalSwing = 0.8
	sparSpanRate     = 300_000
	sparClassLimit   = 150_000 // steady/burst/diurnal contracted rate
	sparSpanLimit    = 450_000 // span tenants' contracted rate
	sparBucketDepth  = 64
)

// sparMeanRate returns the aggregate mean arrival rate of the servepar
// tenant population, used to derive the horizon from TotalOps.
func sparMeanRate(normals, spans int) float64 {
	mmppMean := (sparQuietRate*sparQuietDwellS + sparBurstRate*sparBurstDwellS) /
		(sparQuietDwellS + sparBurstDwellS)
	perClass := float64(normals / 3)
	rem := normals % 3 // extra tenants go to the earlier classes
	steady := perClass
	mmpp := perClass
	if rem > 0 {
		steady++
	}
	if rem > 1 {
		mmpp++
	}
	return steady*sparSteadyRate + mmpp*mmppMean +
		perClass*sparDiurnalRate + float64(spans)*sparSpanRate
}

// runServePod executes the sharded-serving scenario once at the given
// worker count: tenants are placed across the pod by the control-plane
// pod policy (PlaceTenantsPod), each rack share gets its own
// deterministic per-(tenant,rack) arrival stream and its proportional
// slice of the tenant's QoS bucket, and the whole run rides the
// windowed executor.
func runServePod(cfg Config) (Result, error) {
	racks := cfg.Racks
	if racks < 2 {
		return Result{}, fmt.Errorf("hotpath: servepar needs a multi-rack pod (got %d racks)", racks)
	}
	w := workloads.MemcachedA(cfg.WorkloadScale)
	pcfg := core.PodConfig{Workers: cfg.Workers}
	for ri := 0; ri < racks; ri++ {
		rc := core.DefaultConfig(cfg.ComputeBlades, 1)
		if ri < racks/2 {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 1, podBorrowerCap
		} else {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 3, podLenderCap
		}
		rc.CachePagesPerBlade = int(float64(w.Footprint/mem.PageSize) * cfg.CacheFrac)
		pcfg.Racks = append(pcfg.Racks, rc)
	}
	pod, err := core.NewPod(pcfg)
	if err != nil {
		return Result{}, err
	}

	// Tenant population: 3 normal tenants per 2 racks, mixed across the
	// three arrival classes, plus two span tenants whose hot sets
	// (3x footprint) exceed the per-rack admission capacity (2x) and
	// must be split across racks.
	normals := racks * 3 / 2
	spans := 2
	capacityPerRack := 2 * w.Footprint
	specs := make([]ctrlplane.TenantSpec, 0, normals+spans)
	for i := 0; i < normals; i++ {
		var name string
		switch i % 3 {
		case 0:
			name = fmt.Sprintf("steady%d", i/3)
		case 1:
			name = fmt.Sprintf("burst%d", i/3)
		default:
			name = fmt.Sprintf("diurnal%d", i/3)
		}
		specs = append(specs, ctrlplane.TenantSpec{
			Name: name, Footprint: w.Footprint, Active: w.Footprint / 2,
			RatePerSec: sparClassLimit, Burst: sparBucketDepth,
		})
	}
	for i := 0; i < spans; i++ {
		specs = append(specs, ctrlplane.TenantSpec{
			Name: fmt.Sprintf("span%d", i), Footprint: 3 * w.Footprint, Active: 3 * w.Footprint,
			RatePerSec: sparSpanLimit, Burst: sparBucketDepth,
		})
	}
	placements, err := ctrlplane.PlaceTenantsPod(specs, racks, cfg.ComputeBlades, capacityPerRack, 2)
	if err != nil {
		return Result{}, fmt.Errorf("hotpath: servepar placement: %w", err)
	}
	spanned := 0
	for _, pl := range placements {
		if pl.Spans() {
			spanned++
		}
	}
	if spanned == 0 {
		return Result{}, fmt.Errorf("hotpath: servepar placed no cross-rack tenants (shape drifted)")
	}

	horizon := sim.Duration(float64(cfg.TotalOps) / sparMeanRate(normals, spans) * float64(sim.Second))
	s, err := core.NewPodServing(pod, core.ServeConfig{Horizon: horizon, QueueCap: 1 << 16})
	if err != nil {
		return Result{}, err
	}
	params := workloads.Params{Threads: len(specs), Blades: cfg.ComputeBlades, Seed: cfg.Seed}
	stream := 0
	for ti, pl := range placements {
		for si, share := range pl.Shares {
			// One process, vma and arrival chain per (tenant, rack)
			// share; the arrival RNG tag carries the rack so serial and
			// parallel execution draw identical per-shard streams.
			tag := fmt.Sprintf("%s@r%d", pl.Spec.Name, share.Rack)
			p := pod.Rack(share.Rack).Exec(tag)
			footprint := share.Footprint
			if footprint < mem.PageSize {
				footprint = mem.PageSize
			}
			vma, err := p.Mmap(footprint, mem.PermReadWrite)
			if err != nil {
				return Result{}, fmt.Errorf("hotpath: servepar share %s mmap: %w", tag, err)
			}
			var arr core.ArrivalProcess
			switch {
			case ti >= normals: // span tenants: heavy steady Poisson
				arr = workloads.NewPoisson(cfg.Seed, tag, sparSpanRate*share.Share)
			case ti%3 == 0:
				arr = workloads.NewPoisson(cfg.Seed, tag, sparSteadyRate*share.Share)
			case ti%3 == 1:
				arr = workloads.NewMMPP(cfg.Seed, tag,
					sparQuietRate*share.Share, sparBurstRate*share.Share,
					sparQuietDwellS, sparBurstDwellS)
			default:
				arr = workloads.NewDiurnal(cfg.Seed, tag,
					sparDiurnalRate*share.Share, sparDiurnalSwing, 2*sim.Millisecond)
			}
			err = s.AddTenant(core.TenantWorkload{
				Name:    pl.Spec.Name,
				Proc:    p,
				Blade:   share.Blade,
				Arrival: arr,
				NextOp:  workloads.RequestStreamIn(w, vma.Base, vma.Len, stream, params),
				Limiter: pl.Bucket(si),
			})
			if err != nil {
				return Result{}, err
			}
			stream++
		}
	}
	borrowed := 0
	for ri := 0; ri < racks; ri++ {
		borrowed += pod.Rack(ri).BorrowedBlades()
	}
	if borrowed == 0 {
		return Result{}, fmt.Errorf("hotpath: servepar borrowed no blades (shape drifted)")
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events0 := pod.ExecutedEvents()
	start := time.Now()

	end, err := s.Run()
	if err != nil {
		return Result{}, err
	}

	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	col := pod.Collector()
	ops := col.Counter(stats.CtrAccesses)
	if ops == 0 {
		return Result{}, fmt.Errorf("hotpath: servepar run performed no accesses")
	}
	events := pod.ExecutedEvents() - events0
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	wx, ws, fe := pod.WindowStats()
	return Result{
		Scenario:        cfg.Scenario,
		Workload:        fmt.Sprintf("open-loop MA x%d tenant shares over %d racks (servepar)", stream, racks),
		Blades:          racks * cfg.ComputeBlades,
		Threads:         stream,
		Ops:             ops,
		Events:          events,
		RemoteRate:      col.PerAccess(stats.CtrRemoteAccesses),
		VirtualEndS:     end.Sub(0).Seconds(),
		Racks:           racks,
		CrossRackMsgs:   col.Counter(stats.CtrCrossRackMsgs),
		BladeBorrows:    col.Counter(stats.CtrBladeBorrows),
		Workers:         cfg.Workers,
		ServeArrivals:   col.Counter(stats.CtrServeArrivals),
		ServeCompleted:  col.Counter(stats.CtrServeCompleted),
		ServeThrottled:  col.Counter(stats.CtrServeThrottled),
		ServeDropped:    col.Counter(stats.CtrServeDropped),
		ServeP99Us:      float64(col.StreamHist("serve_lat[steady0]").Percentile(99)) / 1e3,
		SpannedTenants:  spanned,
		WindowsExecuted: wx,
		WindowsSkipped:  ws,
		FlushesElided:   fe,
		NsPerOp:         float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerOp:     float64(allocs) / float64(ops),
		BytesPerOp:      float64(bytes) / float64(ops),
		EventsPerSec:    float64(events) / wall.Seconds(),
	}, nil
}

// runServePar measures the sharded serving layer under the parallel
// executor: the same pod serving simulation once with 1 worker and
// once with the configured pool, in that order. The two runs must
// agree on every simulation output — any divergence fails the run, so
// a speedup is never reported for a simulation that changed — and the
// result records the parallel run's costs plus the events/sec speedup
// over the serial baseline.
func runServePar(cfg Config) (Result, error) {
	serial := cfg
	serial.Workers = 1
	base, err := runServePod(serial)
	if err != nil {
		return Result{}, err
	}
	if cfg.Workers < 2 {
		cfg.Workers = 4
	}
	res, err := runServePod(cfg)
	if err != nil {
		return Result{}, err
	}
	if res.Ops != base.Ops || res.Events != base.Events ||
		res.VirtualEndS != base.VirtualEndS || res.RemoteRate != base.RemoteRate ||
		res.CrossRackMsgs != base.CrossRackMsgs || res.BladeBorrows != base.BladeBorrows ||
		res.ServeArrivals != base.ServeArrivals || res.ServeCompleted != base.ServeCompleted ||
		res.ServeThrottled != base.ServeThrottled || res.ServeDropped != base.ServeDropped ||
		res.ServeP99Us != base.ServeP99Us ||
		res.WindowsExecuted != base.WindowsExecuted || res.WindowsSkipped != base.WindowsSkipped ||
		res.FlushesElided != base.FlushesElided {
		return Result{}, fmt.Errorf(
			"hotpath: parallel serving run diverged from serial baseline:\n  1 worker:  ops=%d events=%d end=%v arrivals=%d completed=%d throttled=%d dropped=%d p99us=%v cross=%d borrows=%d windows=%d/%d/%d\n  %d workers: ops=%d events=%d end=%v arrivals=%d completed=%d throttled=%d dropped=%d p99us=%v cross=%d borrows=%d windows=%d/%d/%d",
			base.Ops, base.Events, base.VirtualEndS, base.ServeArrivals, base.ServeCompleted, base.ServeThrottled, base.ServeDropped, base.ServeP99Us, base.CrossRackMsgs, base.BladeBorrows, base.WindowsExecuted, base.WindowsSkipped, base.FlushesElided,
			cfg.Workers, res.Ops, res.Events, res.VirtualEndS, res.ServeArrivals, res.ServeCompleted, res.ServeThrottled, res.ServeDropped, res.ServeP99Us, res.CrossRackMsgs, res.BladeBorrows, res.WindowsExecuted, res.WindowsSkipped, res.FlushesElided)
	}
	res.Scenario = cfg.Scenario
	res.BaseEventsPerSec = base.EventsPerSec
	res.ParallelSpeedup = res.EventsPerSec / base.EventsPerSec
	return res, nil
}

// Servekill traffic shape: each tenant's Poisson rate (requests/sec) —
// low enough that every tenant, including the cache-missing cross-rack
// victim, keeps up in steady state, so degradation is the storm's
// doing, not chronic saturation.
const skRate = 60_000

// runServeKill executes the failure-injection scenario: a 2-rack pod
// under robust open-loop serving, with the full kill storm timed off
// the horizon (headroom hot-adds at 20%, the borrowed blade dies at
// 30%, rack 1's switch fails over at 50%, a rack-1 blade drains at
// 65%). Setup — including pre-materializing the victim and drain
// datasets so the kill loses real pages and the drain moves real bytes
// — happens before the measured window; the storm itself is on the
// measured path.
func runServeKill(cfg Config) (Result, error) {
	H := sim.Duration(float64(cfg.TotalOps) / (3 * skRate) * float64(sim.Second))
	// Detection is slowed so the blackout is a visible fraction of the
	// run; the deadline sits well under it (queued requests genuinely
	// burn out during the blackout) but well above a healthy sojourn.
	detection := H / 40
	deadline := H / 200
	mk := func(blades int) core.Config {
		rc := core.DefaultConfig(cfg.ComputeBlades, blades)
		rc.MemoryBladeCapacity = 1024 * mem.PageSize
		rc.CachePagesPerBlade = 64
		rc.Migration.DetectionDelay = detection
		rc.Seed = cfg.Seed
		return rc
	}
	// Promotion epochs are disabled: left on, the promotion policy would
	// pull the borrowed share local once the hot-add creates headroom
	// and return the lease before the kill lands.
	pod, err := core.NewPod(core.PodConfig{
		Racks:     []core.Config{mk(1), mk(3)},
		Promotion: core.PromotionConfig{Disable: true},
		Workers:   cfg.Workers,
	})
	if err != nil {
		return Result{}, err
	}
	s, err := core.NewPodServing(pod, core.ServeConfig{
		Horizon:      H,
		QueueCap:     1 << 16,
		Deadline:     deadline,
		MaxRetries:   2,
		RetryBackoff: deadline / 10,
		Brownout:     0.5,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return Result{}, err
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
			Arrival: workloads.NewPoisson(cfg.Seed, "servekill/"+name, skRate),
			NextOp: func() (mem.VA, bool) {
				pg := i % uint64(pages)
				wr := i%4 == 0
				i++
				return vma.Base + mem.VA(pg*mem.PageSize), wr
			},
		})
	}
	// The filler consumes rack 0's only local blade, so the victim
	// tenant's share lands on a borrowed blade.
	if _, err := pod.Rack(0).Exec("filler").Mmap(900*mem.PageSize, mem.PermReadWrite); err != nil {
		return Result{}, err
	}
	victimVMA, err := addTenant("victim", 0, 0, 400)
	if err != nil {
		return Result{}, err
	}
	if pod.Rack(0).BorrowedBlades() == 0 {
		return Result{}, fmt.Errorf("hotpath: servekill rack 0 did not borrow (shape drifted)")
	}
	if _, err := addTenant("steady", 1, 0, 64); err != nil {
		return Result{}, err
	}
	bulkVMA, err := addTenant("bulk", 1, 1, 128)
	if err != nil {
		return Result{}, err
	}
	killVictim, err := pod.Rack(0).Controller().Allocator().Translate(victimVMA.Base)
	if err != nil {
		return Result{}, err
	}
	drainVictim, err := pod.Rack(1).Controller().Allocator().Translate(bulkVMA.Base)
	if err != nil {
		return Result{}, err
	}
	materialize := func(rack int, vma mem.VMA, pages int) error {
		alloc := pod.Rack(rack).Controller().Allocator()
		buf := make([]byte, mem.PageSize)
		for i := 0; i < pages; i++ {
			va := vma.Base + mem.VA(i)*mem.PageSize
			home, err := alloc.Translate(va)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf, uint64(i+1))
			pod.Rack(rack).MemBlade(int(home)).WritePage(va, buf)
		}
		return nil
	}
	if err := materialize(0, victimVMA, 400); err != nil {
		return Result{}, err
	}
	if err := materialize(1, bulkVMA, 128); err != nil {
		return Result{}, err
	}

	base := pod.Now()
	var addErr, killErr, switchErr, drainErr error
	var krep core.KillReport
	var drep core.DrainReport
	r0 := pod.Rack(0)
	r0.Engine().At(base.Add(H*2/10), func() { _, addErr = r0.AddMemBlade(0) })
	err = pod.KillMemBladeAt(0, killVictim, base.Add(H*3/10), func(r core.KillReport, e error) {
		krep, killErr = r, e
	})
	if err != nil {
		return Result{}, err
	}
	err = pod.KillSwitchAt(1, base.Add(H*5/10), func(r core.SwitchFailoverReport, e error) {
		switchErr = e
	})
	if err != nil {
		return Result{}, err
	}
	err = pod.DrainMemBladeAt(1, drainVictim, base.Add(H*65/100), func(r core.DrainReport, e error) {
		drep, drainErr = r, e
	})
	if err != nil {
		return Result{}, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events0 := pod.ExecutedEvents()
	start := time.Now()

	end, err := s.Run()
	if err != nil {
		return Result{}, err
	}

	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	for _, e := range []error{addErr, killErr, switchErr, drainErr} {
		if e != nil {
			return Result{}, fmt.Errorf("hotpath: servekill storm event: %w", e)
		}
	}

	col := pod.Collector()
	ops := col.Counter(stats.CtrAccesses)
	if ops == 0 {
		return Result{}, fmt.Errorf("hotpath: servekill run performed no accesses")
	}
	events := pod.ExecutedEvents() - events0
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	wx, ws, fe := pod.WindowStats()
	return Result{
		Scenario:        cfg.Scenario,
		Workload:        "open-loop MA x3 tenants under kill storm (servekill)",
		Blades:          2 * cfg.ComputeBlades,
		Threads:         3,
		Ops:             ops,
		Events:          events,
		RemoteRate:      col.PerAccess(stats.CtrRemoteAccesses),
		VirtualEndS:     end.Sub(0).Seconds(),
		Racks:           2,
		CrossRackMsgs:   col.Counter(stats.CtrCrossRackMsgs),
		BladeBorrows:    col.Counter(stats.CtrBladeBorrows),
		Workers:         cfg.Workers,
		ServeArrivals:   col.Counter(stats.CtrServeArrivals),
		ServeCompleted:  col.Counter(stats.CtrServeCompleted),
		ServeThrottled:  col.Counter(stats.CtrServeThrottled),
		ServeDropped:    col.Counter(stats.CtrServeDropped),
		ServeP99Us:      float64(col.StreamHist("serve_lat[steady]").Percentile(99)) / 1e3,
		ServeShed:       col.Counter(stats.CtrServeShed),
		ServeTimedOut:   col.Counter(stats.CtrServeTimedOut),
		ServeRetried:    col.Counter(stats.CtrServeRetried),
		ServeFailed:     col.Counter(stats.CtrServeFailed),
		Kills:           col.Counter(stats.CtrBladeKills),
		Recoveries:      col.Counter(stats.CtrBladeRecoveries),
		PagesLost:       krep.PagesLost,
		PagesMoved:      drep.PagesMoved,
		WindowsExecuted: wx,
		WindowsSkipped:  ws,
		FlushesElided:   fe,
		NsPerOp:         float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerOp:     float64(allocs) / float64(ops),
		BytesPerOp:      float64(bytes) / float64(ops),
		EventsPerSec:    float64(events) / wall.Seconds(),
	}, nil
}

// podBorrowerCap and podLenderCap shape the pod scenario's memory tiers:
// borrower racks get one 32 MB blade (smaller than either workload's
// reservation), lender racks three 128 MB blades (enough for their own
// vma plus a lendable spare).
const (
	podBorrowerCap = 1 << 25
	podLenderCap   = 1 << 27
)

// runPod executes a multi-rack scenario: racks alternate the GC and MA
// workload mixes; the first half of the racks are memory-poor and
// borrow from the second half.
func runPod(cfg Config) (Result, error) {
	racks := cfg.Racks
	perRackThreads := cfg.Threads / racks
	if perRackThreads < 1 {
		return Result{}, fmt.Errorf("hotpath: %d threads cannot cover %d racks", cfg.Threads, racks)
	}
	rackWorkload := func(ri int) workloads.Workload {
		if ri%2 == 0 {
			return workloads.GC(cfg.WorkloadScale)
		}
		return workloads.MemcachedA(cfg.WorkloadScale)
	}
	pcfg := core.PodConfig{Workers: cfg.Workers}
	for ri := 0; ri < racks; ri++ {
		rc := core.DefaultConfig(cfg.ComputeBlades, 1)
		if ri < racks/2 {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 1, podBorrowerCap
		} else {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 3, podLenderCap
		}
		rc.CachePagesPerBlade = int(float64(rackWorkload(ri).Footprint/mem.PageSize) * cfg.CacheFrac)
		pcfg.Racks = append(pcfg.Racks, rc)
	}
	pod, err := core.NewPod(pcfg)
	if err != nil {
		return Result{}, err
	}

	// Set every rack up (the memory-poor racks borrow during their
	// mmaps), then start all threads on the shared engine.
	type rackRun struct {
		w    workloads.Workload
		base mem.VA
		ths  []*core.Thread
	}
	runs := make([]rackRun, racks)
	for ri := 0; ri < racks; ri++ {
		w := rackWorkload(ri)
		p := pod.Rack(ri).Exec(fmt.Sprintf("pod-r%d", ri))
		vma, err := p.Mmap(w.Footprint, mem.PermReadWrite)
		if err != nil {
			return Result{}, fmt.Errorf("rack %d mmap: %w", ri, err)
		}
		ths := make([]*core.Thread, perRackThreads)
		for k := 0; k < perRackThreads; k++ {
			th, err := p.SpawnThread(k % cfg.ComputeBlades)
			if err != nil {
				return Result{}, err
			}
			ths[k] = th
		}
		runs[ri] = rackRun{w: w, base: vma.Base, ths: ths}
	}
	for ri := 0; ri < racks/2; ri++ {
		if pod.Rack(ri).BorrowedBlades() == 0 {
			return Result{}, fmt.Errorf("hotpath: pod scenario rack %d did not borrow (shape drifted)", ri)
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events0 := pod.ExecutedEvents()
	start := time.Now()

	opsPerThread := cfg.TotalOps / cfg.Threads
	for ri, rr := range runs {
		params := workloads.Params{
			Threads:      perRackThreads,
			Blades:       cfg.ComputeBlades,
			OpsPerThread: opsPerThread,
			Seed:         cfg.Seed + uint64(ri)*1021,
		}
		for k, th := range rr.ths {
			th.Start(rr.w.Gen(rr.base, k, params), nil)
		}
	}
	end := pod.RunThreads()

	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	col := pod.Collector()
	ops := col.Counter(stats.CtrAccesses)
	if ops == 0 {
		return Result{}, fmt.Errorf("hotpath: pod run performed no accesses")
	}
	events := pod.ExecutedEvents() - events0
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	wx, ws, fe := pod.WindowStats()
	return Result{
		Scenario:        cfg.Scenario,
		Workload:        fmt.Sprintf("GC+MA x%d racks (pod mix)", racks),
		Blades:          racks * cfg.ComputeBlades,
		Threads:         cfg.Threads,
		Ops:             ops,
		Events:          events,
		RemoteRate:      col.PerAccess(stats.CtrRemoteAccesses),
		VirtualEndS:     end.Sub(0).Seconds(),
		Racks:           racks,
		CrossRackMsgs:   col.Counter(stats.CtrCrossRackMsgs),
		BladeBorrows:    col.Counter(stats.CtrBladeBorrows),
		WindowsExecuted: wx,
		WindowsSkipped:  ws,
		FlushesElided:   fe,
		NsPerOp:         float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerOp:     float64(allocs) / float64(ops),
		BytesPerOp:      float64(bytes) / float64(ops),
		EventsPerSec:    float64(events) / wall.Seconds(),
		Workers:         cfg.Workers,
	}, nil
}

// runPodPar measures the parallel executor: the same pod simulation
// once with 1 worker and once with the configured pool, in that order.
// The two runs must agree on every simulation output — this is the
// determinism contract under load, checked on every benchmark run —
// and the result records the parallel run's costs plus the speedup
// over the serial baseline.
func runPodPar(cfg Config) (Result, error) {
	serial := cfg
	serial.Workers = 1
	base, err := runPod(serial)
	if err != nil {
		return Result{}, err
	}
	if cfg.Workers < 2 {
		cfg.Workers = 4
	}
	res, err := runPod(cfg)
	if err != nil {
		return Result{}, err
	}
	if res.Ops != base.Ops || res.Events != base.Events ||
		res.VirtualEndS != base.VirtualEndS || res.RemoteRate != base.RemoteRate ||
		res.CrossRackMsgs != base.CrossRackMsgs || res.BladeBorrows != base.BladeBorrows ||
		res.WindowsExecuted != base.WindowsExecuted || res.WindowsSkipped != base.WindowsSkipped ||
		res.FlushesElided != base.FlushesElided {
		return Result{}, fmt.Errorf(
			"hotpath: parallel run diverged from serial baseline:\n  1 worker:  ops=%d events=%d end=%v remote=%v cross=%d borrows=%d windows=%d/%d/%d\n  %d workers: ops=%d events=%d end=%v remote=%v cross=%d borrows=%d windows=%d/%d/%d",
			base.Ops, base.Events, base.VirtualEndS, base.RemoteRate, base.CrossRackMsgs, base.BladeBorrows, base.WindowsExecuted, base.WindowsSkipped, base.FlushesElided,
			cfg.Workers, res.Ops, res.Events, res.VirtualEndS, res.RemoteRate, res.CrossRackMsgs, res.BladeBorrows, res.WindowsExecuted, res.WindowsSkipped, res.FlushesElided)
	}
	res.Scenario = cfg.Scenario
	res.BaseEventsPerSec = base.EventsPerSec
	res.ParallelSpeedup = res.EventsPerSec / base.EventsPerSec
	return res, nil
}
