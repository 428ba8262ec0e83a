// Command mindsim runs one workload configuration on the simulated MIND
// rack and reports runtime, throughput, per-access protocol rates and the
// remote-access latency breakdown.
//
// Examples:
//
//	mindsim -workload TF -blades 4 -threads 40
//	mindsim -workload uniform -read 0.5 -sharing 1 -blades 8 -threads 8
//	mindsim -workload MA -blades 8 -threads 80 -consistency pso
//	mindsim -workload GC -runs 8 -parallel 4
//	mindsim -workload uniform -memblades 2 -add-blade 2ms:0 -drain-blade 4ms:0:0
//	mindsim -serve -workload MA -blades 4 -ops 40000
//	mindsim -serve -racks 2 -serve-deadline 40us -serve-retries 2 \
//	    -kill-blade 1ms:0:1 -kill-switch 2ms:1
//
// With -serve, mindsim switches from closed-loop threads to the
// open-loop serving mode: three tenants (a steady Poisson stream, an
// MMPP bursty tenant behind a QoS token bucket, and a diurnally
// modulated stream) inject arrivals as engine events independent of
// completions, and the report shows per-tenant p50/p99/p999 sojourn
// times from the streaming histograms plus admission-control counters.
//
// Both modes take the same membership events, each at a virtual time
// counted from the run's start on one rack of the pod: -add-blade
// "dur:rack" hot-adds a memory blade, -drain-blade and -kill-blade
// "dur:rack:blade" live-drain or kill one (e.g. 1ms:0:1 kills rack 0's
// blade 1 one virtual millisecond in), and -kill-switch "dur:rack"
// fails the rack's switch over. Faults land barrier-ordered on the pod
// executor — the same virtual timeline at any -workers count — and the
// event reports (pages lost/moved, vmas re-homed, blackout) are printed
// after the run; in serving mode so are the degraded-mode request
// counters (shed, timed out, retried, failed) when -serve-deadline and
// -serve-retries arm the robustness layer.
//
// With -runs N > 1, mindsim executes N replicates of the configuration —
// replicate i derives its seed from the root -seed via sim.DeriveSeed,
// so the set of replicates is fixed by the root seed alone — and fans
// them out across the runner's worker pool (-parallel), reporting
// per-replicate throughput plus the mean/min/max spread. Replicate order
// in the output is deterministic regardless of worker count.
//
// A flag that only the other mode reads (-racks without -serve, -threads
// with it) is an error, not a silent no-op.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/workloads"
)

// runReport is one run's result: the detail block it prints and what
// the replicate table reads.
type runReport struct {
	detail   string
	end      sim.Time
	total    uint64
	invalsPA float64
}

func (r runReport) mops() float64 {
	return float64(r.total) / r.end.Sub(0).Seconds() / 1e6
}

// die prints a message and exits: 2 for a command-line mistake, 1 for a
// failed run.
func die(code int, msg ...any) {
	fmt.Fprintln(os.Stderr, msg...)
	os.Exit(code)
}

func main() {
	var (
		workload    = flag.String("workload", "TF", "TF, GC, MA, MC, kvs-a, kvs-c, uniform")
		blades      = flag.Int("blades", 2, "compute blades")
		memBlades   = flag.Int("memblades", 8, "memory blades")
		threads     = flag.Int("threads", 20, "total threads (spread round-robin)")
		ops         = flag.Int("ops", 20000, "accesses per thread")
		consistency = flag.String("consistency", "tso", "tso, pso, pso+")
		readRatio   = flag.Float64("read", 0.5, "read ratio (uniform workload)")
		sharing     = flag.Float64("sharing", 0.5, "sharing ratio (uniform workload)")
		scale       = flag.Int("scale", 1, "workload footprint scale")
		cacheFrac   = flag.Float64("cache", 0.25, "per-blade cache as fraction of footprint")
		dirSlots    = flag.Int("dirslots", 0, "directory slot capacity (0 = paper default 30k)")
		epoch       = flag.Duration("epoch", 0, "bounded-splitting epoch (0 = 100ms)")
		seed        = flag.Uint64("seed", 1, "root run seed")
		runs        = flag.Int("runs", 1, "replicates with seeds derived from the root seed")
		parallel    = flag.Int("parallel", 0, "runner workers: 0 = one per CPU, -1 = serial, n = n workers")

		// Open-loop serving mode (see the package comment).
		serveMode     = flag.Bool("serve", false, "open-loop serving mode: three tenants inject arrivals; prints per-tenant p50/p99/p999")
		serveHorizon  = flag.Duration("serve-horizon", 0, "serving horizon of virtual time (0 = sized so ~3*ops arrivals land)")
		serveRate     = flag.Float64("serve-rate", 100_000, "steady tenant arrival rate, req/s (bursty and diurnal tenants scale from it)")
		serveQoS      = flag.Float64("serve-qos", 150_000, "contracted req/s for the bursty tenant's token bucket (0 = no throttling)")
		serveRacks    = flag.Int("racks", 1, "serving mode: racks in the pod (tenants are placed across racks; >1 runs sharded serving)")
		serveWorkers  = flag.Int("workers", 0, "serving mode: pod executor worker count for multi-rack runs (0 or 1 = serial)")
		serveDeadline = flag.Duration("serve-deadline", 0, "serving mode: end-to-end request deadline (0 = none)")
		serveRetries  = flag.Int("serve-retries", 0, "serving mode: retries per request within its deadline")
		serveBrownout = flag.Float64("serve-brownout", 0, "serving mode: probability of shedding an arrival while its rack is recovering")

		// Membership events, in both modes (see the package comment;
		// empty disables each).
		addBlade   = flag.String("add-blade", "", "hot-add a memory blade: dur:rack")
		drainBlade = flag.String("drain-blade", "", "live-drain a memory blade: dur:rack:blade")
		killBlade  = flag.String("kill-blade", "", "kill a memory blade (failure injection): dur:rack:blade")
		killSwitch = flag.String("kill-switch", "", "switch failover: dur:rack")
	)
	flag.Parse()

	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkModeFlags(*serveMode, set); err != nil {
		die(2, err)
	}
	if *runs < 1 {
		die(2, fmt.Sprintf("-runs must be >= 1 (got %d)", *runs))
	}

	var w workloads.Workload
	if *workload == "uniform" {
		w = workloads.Uniform(uint64(8192**scale), *readRatio, *sharing)
	} else {
		var err error
		if w, err = workloads.ByName(*workload, *scale); err != nil {
			die(2, err)
		}
	}

	var cons core.Consistency
	switch *consistency {
	case "tso":
		cons = core.TSO
	case "pso":
		cons = core.PSO
	case "pso+":
		cons = core.PSOPlus
	default:
		die(2, fmt.Sprintf("unknown consistency %q", *consistency))
	}

	cachePages := int(float64(w.Footprint/mem.PageSize) * *cacheFrac)
	if cachePages < 64 {
		cachePages = 64
	}

	parse := func(name, s string, wantBlade bool) *timedFault {
		if s == "" {
			return nil
		}
		f, err := parseTimedFault(name, s, wantBlade)
		if err != nil {
			die(2, err)
		}
		return &f
	}
	faults := timedFaults{
		add:      parse("add-blade", *addBlade, false),
		drain:    parse("drain-blade", *drainBlade, true),
		kill:     parse("kill-blade", *killBlade, true),
		failover: parse("kill-switch", *killSwitch, false),
	}

	shape := rackShape{
		blades:      *blades,
		memBlades:   *memBlades,
		cachePages:  cachePages,
		consistency: cons,
		dirSlots:    *dirSlots,
		epoch:       sim.Duration(epoch.Nanoseconds()),
	}

	if *serveMode {
		if err := runServeMode(w, shape, *serveRacks, *serveWorkers, *ops, *seed,
			*serveRate, *serveQoS, sim.Duration(serveHorizon.Nanoseconds()),
			sim.Duration(serveDeadline.Nanoseconds()), *serveRetries, *serveBrownout, faults); err != nil {
			die(1, err)
		}
		return
	}

	runOnce := func(runSeed uint64) (runReport, error) {
		cfg := shape.config(runSeed)
		c, err := core.NewCluster(cfg)
		if err != nil {
			return runReport{}, err
		}
		proc := c.Exec(*workload)
		vma, err := proc.Mmap(w.Footprint, mem.PermReadWrite)
		if err != nil {
			return runReport{}, err
		}
		p := workloads.Params{Threads: *threads, Blades: *blades, OpsPerThread: *ops, Seed: runSeed}
		for t := 0; t < *threads; t++ {
			th, err := proc.SpawnThread(t % *blades)
			if err != nil {
				return runReport{}, err
			}
			th.Start(w.Gen(vma.Base, t, p), nil)
		}

		var log faultLog
		if err := faults.schedule(c.Pod(), &log); err != nil {
			return runReport{}, err
		}
		end := c.RunThreads()
		if log.err != nil {
			return runReport{}, log.err
		}

		col := c.Collector()
		total := col.Counter(stats.CtrAccesses)
		remote := col.Counter(stats.CtrRemoteAccesses)
		rep := runReport{end: end, total: total, invalsPA: col.PerAccess(stats.CtrInvalidations)}
		var b strings.Builder
		fmt.Fprintf(&b, "virtual runtime  %.3f ms\n", end.Sub(0).Seconds()*1e3)
		fmt.Fprintf(&b, "throughput       %.3f MOPS\n", rep.mops())
		fmt.Fprintf(&b, "accesses         %d (hits %.2f%%)\n", total, 100*float64(col.Counter(stats.CtrLocalHits))/float64(total))
		fmt.Fprintf(&b, "remote/access    %s\n", stats.FormatPerAccess(col.PerAccess(stats.CtrRemoteAccesses)))
		fmt.Fprintf(&b, "invals/access    %s\n", stats.FormatPerAccess(rep.invalsPA))
		fmt.Fprintf(&b, "flushed/access   %s\n", stats.FormatPerAccess(col.PerAccess(stats.CtrFlushedPages)))
		fmt.Fprintf(&b, "false invals     %d\n", col.Counter(stats.CtrFalseInvals))
		fmt.Fprintf(&b, "splits/merges    %d/%d\n", col.Counter(stats.CtrSplits), col.Counter(stats.CtrMerges))
		fmt.Fprintf(&b, "directory peak   %d entries (capacity %d)\n", c.Controller().ASIC().Directory.Peak(), cfg.ASIC.SlotCapacity)
		if remote > 0 {
			fmt.Fprintf(&b, "latency/remote   pgfault=%v network=%v inv-queue=%v inv-tlb=%v\n",
				col.MeanLatency(stats.LatPgFault, remote), col.MeanLatency(stats.LatNetwork, remote),
				col.MeanLatency(stats.LatInvQueue, remote), col.MeanLatency(stats.LatInvTLB, remote))
		}
		b.WriteString(log.String())
		if stalls, pages := col.Counter(stats.CtrMigrationStalls), col.Counter(stats.CtrMigratedPages); stalls > 0 || pages > 0 {
			fmt.Fprintf(&b, "migration        %d pages moved, %d foreground stalls\n", pages, stalls)
		}
		rep.detail = b.String()
		return rep, nil
	}

	// Replicate 0 runs the root seed itself (so -runs 1 reproduces the
	// classic single-run behavior bit for bit); later replicates derive
	// independent seeds from the root.
	seeds := make([]uint64, *runs)
	specs := make([]runner.Spec, *runs)
	for i := range specs {
		runSeed := *seed
		if i > 0 {
			runSeed = sim.DeriveSeed(*seed, fmt.Sprintf("replicate-%d", i))
		}
		seeds[i] = runSeed
		specs[i] = runner.Spec{
			Key: runner.KeyOf("mindsim", *workload, *blades, *memBlades, *threads, *ops,
				cons, *readRatio, *sharing, *scale, cachePages, *dirSlots, int64(*epoch), runSeed,
				*addBlade, *drainBlade, *killBlade, *killSwitch),
			Run: func() (any, error) { return runOnce(runSeed) },
		}
	}
	results, err := runner.Do(specs, runner.Options{Workers: *parallel})
	if err != nil {
		die(1, err)
	}

	first := results[0].(runReport)
	fmt.Printf("workload=%s blades=%d threads=%d ops/thread=%d consistency=%s\n",
		w.Name, *blades, *threads, *ops, cons)
	fmt.Printf("footprint        %d pages (%d MB), cache %d pages/blade\n",
		w.Footprint/mem.PageSize, w.Footprint>>20, cachePages)
	fmt.Print(first.detail)

	if *runs > 1 {
		fmt.Printf("\nreplicates (%d runs, root seed %d):\n", *runs, *seed)
		min, max, sum := -1.0, 0.0, 0.0
		for i, r := range results {
			rep := r.(runReport)
			m := rep.mops()
			sum += m
			if min < 0 || m < min {
				min = m
			}
			if m > max {
				max = m
			}
			fmt.Printf("  run %-3d seed=%-20d runtime=%8.3f ms  %7.3f MOPS  invals/access=%s\n",
				i, seeds[i], rep.end.Sub(0).Seconds()*1e3, m, stats.FormatPerAccess(rep.invalsPA))
		}
		mean := sum / float64(len(results))
		spreadPct := 0.0
		if mean > 0 {
			spreadPct = 100 * (max - min) / mean
		}
		fmt.Printf("  mean %.3f MOPS, min %.3f, max %.3f (spread %.1f%% of mean)\n",
			mean, min, max, spreadPct)
	}
}

// rackShape is what the flags say about one rack. Both modes build
// every rack they run from it, so a flag cannot reach one mode and not
// the other.
type rackShape struct {
	blades, memBlades int
	cachePages        int
	consistency       core.Consistency
	dirSlots          int          // 0: the paper default
	epoch             sim.Duration // 0: the default epoch
}

// config returns the rack configuration for one run seed.
func (r rackShape) config(seed uint64) core.Config {
	cfg := core.DefaultConfig(r.blades, r.memBlades)
	cfg.MemoryBladeCapacity = 1 << 32
	cfg.CachePagesPerBlade = r.cachePages
	cfg.Consistency = r.consistency
	if r.dirSlots > 0 {
		cfg.ASIC.SlotCapacity = r.dirSlots
	}
	if r.epoch > 0 {
		cfg.SplitterEpoch = r.epoch
	}
	cfg.Seed = seed
	return cfg
}

// newServePod builds the serving mode's pod: racks identical racks of
// the given shape.
func newServePod(shape rackShape, racks, workers int, seed uint64) (*core.Pod, error) {
	if racks < 1 {
		return nil, fmt.Errorf("-racks must be >= 1 (got %d)", racks)
	}
	pcfg := core.PodConfig{Workers: workers}
	for ri := 0; ri < racks; ri++ {
		pcfg.Racks = append(pcfg.Racks, shape.config(seed))
	}
	return core.NewPod(pcfg)
}

// timedFault is one membership event, parsed from "dur:rack[:blade]":
// it lands at virtual time at, counted from the run's start, on rack.
type timedFault struct {
	at    sim.Duration
	rack  int
	blade int
}

// timedFaults is a run's event schedule (nil = none).
type timedFaults struct {
	add, drain, kill, failover *timedFault
}

// faultLog holds the report line of each event that completed, and the
// first error one of them reported.
type faultLog struct {
	added, killed, drained, failedOver string
	err                                error
}

func (l *faultLog) String() string { return l.added + l.killed + l.drained + l.failedOver }

// schedule registers the events on the pod, each at its time from now.
// Registration queues a fault on its rack and the pod executor injects
// it at its exact virtual time, so the event timeline does not depend
// on the worker count. An add is rack-local and goes straight onto its
// rack's engine.
func (f timedFaults) schedule(pod *core.Pod, log *faultLog) error {
	keepErr := func(e error) {
		if e != nil && log.err == nil {
			log.err = e
		}
	}
	if t := f.add; t != nil {
		if t.rack < 0 || t.rack >= pod.Racks() {
			return fmt.Errorf("-add-blade: pod has no rack %d", t.rack)
		}
		r := pod.Rack(t.rack)
		r.Engine().At(pod.Now().Add(t.at), func() {
			id, err := r.AddMemBlade(0)
			keepErr(err)
			log.added = fmt.Sprintf("blade added      rack=%d id=%d at %v\n", t.rack, id, time.Duration(t.at))
		})
	}
	if t := f.drain; t != nil {
		err := pod.DrainMemBladeAt(t.rack, ctrlplane.BladeID(t.blade), pod.Now().Add(t.at), func(d core.DrainReport, e error) {
			keepErr(e)
			log.drained = fmt.Sprintf("blade drained    rack=%d id=%d: %d vmas, %d pages in %d batches, blackout %.3f ms\n",
				t.rack, d.Victim, d.Allocations, d.PagesMoved, d.Batches, d.Blackout().Seconds()*1e3)
		})
		if err != nil {
			return fmt.Errorf("-drain-blade: %w", err)
		}
	}
	if t := f.kill; t != nil {
		err := pod.KillMemBladeAt(t.rack, ctrlplane.BladeID(t.blade), pod.Now().Add(t.at), func(k core.KillReport, e error) {
			keepErr(e)
			log.killed = fmt.Sprintf("blade killed     rack=%d id=%d: %d pages lost, %d vmas re-homed, %d vmas lost, blackout %.3f ms\n",
				t.rack, k.Victim, k.PagesLost, k.Allocations, k.VMAsLost, k.Blackout().Seconds()*1e3)
		})
		if err != nil {
			return fmt.Errorf("-kill-blade: %w", err)
		}
	}
	if t := f.failover; t != nil {
		err := pod.KillSwitchAt(t.rack, pod.Now().Add(t.at), func(r core.SwitchFailoverReport, e error) {
			keepErr(e)
			log.failedOver = fmt.Sprintf("switch failover  rack=%d: %d regions reset, blackout %.3f ms\n",
				t.rack, r.RegionsReset, r.Blackout().Seconds()*1e3)
		})
		if err != nil {
			return fmt.Errorf("-kill-switch: %w", err)
		}
	}
	return nil
}

// closedLoopOnly and serveOnly name the flags only one of the two modes
// reads; every other flag reaches both.
var (
	closedLoopOnly = []string{"threads", "runs", "parallel"}
	serveOnly      = []string{"serve-horizon", "serve-rate", "serve-qos", "racks", "workers",
		"serve-deadline", "serve-retries", "serve-brownout"}
)

// checkModeFlags rejects flags set on the command line that the selected
// mode would drop without a word (a -racks 2 that runs one rack, a
// -runs 4 that serves once).
func checkModeFlags(serve bool, set []string) error {
	mode, other, foreign := "closed-loop mode", "-serve", serveOnly
	if serve {
		mode, other, foreign = other, mode, closedLoopOnly
	}
	var bad []string
	for _, name := range set {
		if slices.Contains(foreign, name) {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s does not read %s (%s only)", mode, strings.Join(bad, ", "), other)
	}
	return nil
}

// parseTimedFault parses "dur:rack:blade" (wantBlade) or "dur:rack".
func parseTimedFault(name, s string, wantBlade bool) (timedFault, error) {
	parts := strings.Split(s, ":")
	want, form := 2, "dur:rack"
	if wantBlade {
		want, form = 3, "dur:rack:blade"
	}
	if len(parts) != want {
		return timedFault{}, fmt.Errorf("-%s: %q is not of the form %s", name, s, form)
	}
	d, err := time.ParseDuration(parts[0])
	if err != nil || d <= 0 {
		return timedFault{}, fmt.Errorf("-%s: bad event time %q (want a positive duration like 1ms)", name, parts[0])
	}
	f := timedFault{at: sim.Duration(d.Nanoseconds())}
	if f.rack, err = strconv.Atoi(parts[1]); err != nil {
		return timedFault{}, fmt.Errorf("-%s: bad rack %q", name, parts[1])
	}
	if wantBlade {
		if f.blade, err = strconv.Atoi(parts[2]); err != nil {
			return timedFault{}, fmt.Errorf("-%s: bad blade %q", name, parts[2])
		}
	}
	return f, nil
}

// runServeMode drives the open-loop serving layer on the flag-built
// pod: three tenants with distinct arrival shapes are placed across
// the racks by the pod-wide control-plane policy (a tenant too big for
// one rack's admission headroom spans racks), the bursty tenant rides
// a QoS token bucket split proportional to its placement shares, and
// the report shows sojourn percentiles per (tenant, home rack) share
// from the per-rack streaming histograms. Membership events land
// barrier-ordered on the pod executor; their reports print after the
// run.
func runServeMode(w workloads.Workload, shape rackShape, racks, workers, ops int, seed uint64, rate, qos float64, horizon sim.Duration, deadline sim.Duration, retries int, brownout float64, faults timedFaults) error {
	pod, err := newServePod(shape, racks, workers, seed)
	if err != nil {
		return err
	}
	blades := shape.blades

	// Traffic shape: steady Poisson at -serve-rate; an MMPP tenant
	// alternating between rate/2 and 20x rate; a diurnal tenant whose
	// rate swings +-80% around -serve-rate over a 2 ms period.
	quiet, burst := rate/2, 20*rate
	const quietDwellS, burstDwellS = 50e-6, 20e-6
	mmppMean := (quiet*quietDwellS + burst*burstDwellS) / (quietDwellS + burstDwellS)
	meanRate := rate + mmppMean + rate
	if horizon <= 0 {
		// Size the horizon so roughly 3*ops arrivals land in total.
		horizon = sim.Duration(3 * float64(ops) / meanRate * float64(sim.Second))
	}

	specs := []ctrlplane.TenantSpec{
		{Name: "steady", Footprint: w.Footprint, Active: w.Footprint / 2, RatePerSec: rate},
		{Name: "burst", Footprint: w.Footprint, Active: w.Footprint / 2, RatePerSec: qos, Burst: 64},
		{Name: "diurnal", Footprint: w.Footprint, Active: w.Footprint / 2, RatePerSec: rate},
	}
	placements, err := ctrlplane.PlaceTenantsPod(specs, racks, blades, 2*w.Footprint, 2)
	if err != nil {
		return fmt.Errorf("serve tenant placement: %w", err)
	}

	scfg := core.ServeConfig{Horizon: horizon, QueueCap: 1 << 16, Seed: seed,
		Deadline: deadline, MaxRetries: retries, Brownout: brownout}
	if retries > 0 && deadline > 0 {
		scfg.RetryBackoff = deadline / 10
	}
	s, err := core.NewPodServing(pod, scfg)
	if err != nil {
		return err
	}

	var log faultLog
	if err := faults.schedule(pod, &log); err != nil {
		return err
	}
	params := workloads.Params{Threads: len(placements), Blades: blades, Seed: seed}
	stream := 0
	for _, pl := range placements {
		for si, share := range pl.Shares {
			tag := fmt.Sprintf("%s@r%d", pl.Spec.Name, share.Rack)
			p := pod.Rack(share.Rack).Exec(tag)
			footprint := share.Footprint
			if footprint < mem.PageSize {
				footprint = mem.PageSize
			}
			vma, err := p.Mmap(footprint, mem.PermReadWrite)
			if err != nil {
				return fmt.Errorf("serve tenant share %s mmap: %w", tag, err)
			}
			var arr core.ArrivalProcess
			var lim *ctrlplane.TokenBucket
			switch pl.Spec.Name {
			case "steady":
				arr = workloads.NewPoisson(seed, tag, rate*share.Share)
			case "burst":
				arr = workloads.NewMMPP(seed, tag, quiet*share.Share, burst*share.Share, quietDwellS, burstDwellS)
				if qos > 0 {
					lim = pl.Bucket(si)
				}
			case "diurnal":
				arr = workloads.NewDiurnal(seed, tag, rate*share.Share, 0.8, 2*sim.Millisecond)
			}
			err = s.AddTenant(core.TenantWorkload{
				Name:    pl.Spec.Name,
				Proc:    p,
				Blade:   share.Blade,
				Arrival: arr,
				NextOp:  workloads.RequestStreamIn(w, vma.Base, vma.Len, stream, params),
				Limiter: lim,
			})
			if err != nil {
				return err
			}
			stream++
		}
	}

	end, err := s.Run()
	if err != nil {
		return err
	}
	if log.err != nil {
		return fmt.Errorf("fault injection: %w", log.err)
	}
	col := pod.Collector()
	fmt.Printf("serving          workload=%s racks=%d blades=%d/rack workers=%d horizon=%.3f ms (virtual end %.3f ms)\n",
		w.Name, racks, blades, workers, horizon.Seconds()*1e3, end.Sub(0).Seconds()*1e3)
	fmt.Printf("offered load     steady=%.0f/s burst=%.0f/s mean (QoS contract %.0f/s) diurnal=%.0f/s mean\n",
		rate, mmppMean, qos, rate)
	// Per-tenant percentiles split by home rack: each share's sojourn
	// histogram lives in its rack's collector; the pod-wide totals are
	// the commutative merge of the shards.
	for _, pl := range placements {
		n := pl.Spec.Name
		for _, share := range pl.Shares {
			rcol := pod.Rack(share.Rack).Collector()
			lat := rcol.StreamHist("serve_lat[" + n + "]")
			fmt.Printf("tenant %-9s rack=%-2d blade=%d share=%.2f arrivals=%-7d completed=%-7d throttled=%-6d dropped=%-5d p50=%.1fus p99=%.1fus p999=%.1fus\n",
				n, share.Rack, share.Blade, share.Share,
				rcol.Counter("serve_arrivals["+n+"]"), rcol.Counter("serve_completed["+n+"]"),
				rcol.Counter("serve_throttled["+n+"]"), rcol.Counter("serve_dropped["+n+"]"),
				float64(lat.Percentile(50))/1e3, float64(lat.Percentile(99))/1e3, float64(lat.Percentile(99.9))/1e3)
		}
		if pl.Spans() {
			lat := col.StreamHist("serve_lat[" + n + "]")
			fmt.Printf("tenant %-9s pod-wide (spans %d racks)      arrivals=%-7d completed=%-7d throttled=%-6d dropped=%-5d p50=%.1fus p99=%.1fus p999=%.1fus\n",
				n, len(pl.Shares),
				col.Counter("serve_arrivals["+n+"]"), col.Counter("serve_completed["+n+"]"),
				col.Counter("serve_throttled["+n+"]"), col.Counter("serve_dropped["+n+"]"),
				float64(lat.Percentile(50))/1e3, float64(lat.Percentile(99))/1e3, float64(lat.Percentile(99.9))/1e3)
		}
	}
	fmt.Printf("total            arrivals=%d completed=%d throttled=%d dropped=%d\n",
		col.Counter(stats.CtrServeArrivals), col.Counter(stats.CtrServeCompleted),
		col.Counter(stats.CtrServeThrottled), col.Counter(stats.CtrServeDropped))
	if deadline > 0 || brownout > 0 {
		fmt.Printf("degraded         shed=%d timedout=%d retried=%d failed=%d\n",
			col.Counter(stats.CtrServeShed), col.Counter(stats.CtrServeTimedOut),
			col.Counter(stats.CtrServeRetried), col.Counter(stats.CtrServeFailed))
	}
	fmt.Print(log.String())
	return nil
}
