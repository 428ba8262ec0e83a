package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/experiments"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/workloads"
)

// The seven workloads. Their shapes were copied once from the tracked
// cmd/bench scenarios named in each comment and are owned by this
// package from here on: they are built from the public API of core,
// workloads, ctrlplane and experiments, never through internal/hotpath
// or cmd/bench, so a later rewrite of those cannot change the load.
//
// Frozen op counts, sized on the container described in README.md so
// that one measured rep of each workload takes 1 to 1.5 s there. They
// are the input size every ops_per_sec is quoted at; only bench_test.go
// shrinks them.
const (
	rackTFOps    = 30_000_000 // rack_tf: accesses
	rackGCOps    = 1_536_000  // rack_gc: accesses
	podOps       = 256_000    // pod_mix: accesses
	servePodOps  = 1_920_000  // serve_pod: expected arrivals (sets the horizon)
	serveKillOps = 720_000    // serve_kill: expected arrivals (sets the horizon)
	panelOps     = 12_000     // panel_sweep: the Scale's TotalOps, split by each panel point
)

type kind int

const (
	closedLoop kind = iota // threads issue the next access when the previous one completes
	serving                // open loop: arrivals come on a schedule in virtual time
	sweep                  // many short closed-loop runs behind experiments.Fig5Center
)

// runParams is what one rep of a workload is built from.
type runParams struct {
	seed    uint64
	scale   float64 // multiplies the frozen op counts; 1 outside bench_test.go
	workers int     // pod executor workers: 1, except on the traced run's parallel rep of pod_mix
	tap     bool    // traced rep: count fabric deliveries through Rack.InjectFailure
}

// ops scales a frozen op count and rounds it down to a multiple of per
// (threads), never below one op each.
func (p runParams) ops(frozen, per int) int {
	n := int(float64(frozen) * p.scale)
	n -= n % per
	if n < per {
		n = per
	}
	return n
}

// instance is a workload after set-up: run is the measured phase (first
// simulated op to last), collect drains what is left and reads the
// simulation's outputs.
type instance struct {
	run     func() error
	collect func() (simOut, error)
}

type workload struct {
	name string
	kind kind
	// parRatio makes the traced run repeat the workload on min(2, nproc)
	// executor workers, check that it is the same simulation bit for bit,
	// and report core.par_ratio.
	parRatio bool
	why      string
	// setup is everything setup_s covers: topology build, Mmap
	// (including cross-rack borrows), thread spawn, tenant placement.
	setup func(p runParams, tr *tracer) (*instance, error)
}

var allWorkloads = []workload{
	{"rack_tf", closedLoop, false,
		"1 rack, 8 threads, TF: ~96% local hits, so blade cache, generator and thread loop do the work; bypasses coherence, fabric and executor",
		func(p runParams, tr *tracer) (*instance, error) {
			return setupRack(workloads.TF(1), 8, 2, 8, p.ops(rackTFOps, 8), p, tr)
		}},
	{"rack_gc", closedLoop, false,
		"1 rack, 64 blades x 4 threads, GC: rack-wide read-write sharing, so event queue, directory, TCAM/multicast and fabric dominate",
		func(p runParams, tr *tracer) (*instance, error) {
			return setupRack(workloads.GC(4), 64, 8, 256, p.ops(rackGCOps, 256), p, tr)
		}},
	{"pod_mix", closedLoop, true,
		"32 racks, GC/MA alternating, half borrowing, 1 worker: closed-loop traffic over the interconnect and the windowed executor in serial",
		setupPod},
	{"serve_pod", serving, false,
		"16 racks, 26 open-loop tenants at a fixed offered rate: arrivals, token buckets, queues and histograms work; sparse windows",
		setupServePod},
	{"serve_kill", serving, false,
		"2 racks, 3 tenants, deadlines, retries, brownout and a kill storm: recovery paths, so a steady-serving gain that costs recovery shows",
		setupServeKill},
	{"panel_sweep", sweep, false,
		"Fig5Center at a small scale, 128 short runs incl. GAM and PSO: construction and teardown are inside the measured phase, as for a user",
		setupPanel},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simOut is everything the simulation itself produced in one rep. Every
// field is a function of (workload, seed, scale) alone: reps, worker
// counts and tracing must not change a bit of it, which digest checks.
type simOut struct {
	Requested uint64 // ops asked for: accesses (closed loop), arrivals (serving), runs' accesses (sweep)
	Ops       uint64 // ops finished: accesses, or requests that reached a terminal counter
	Refused   uint64 // modelled refusals and failures (serving), rejected accesses (closed loop)
	Accesses  uint64 // memory accesses behind Ops (== Ops for closed loop)
	VirtualNs int64  // virtual time of the last finished op (serving: the horizon)
	SimMops   float64
	Events    uint64
	Counters  map[string]uint64 // every Collector counter
	LatNs     [4]int64          // pgfault, network, inv_queue, inv_tlb sums
	P99Ns     int64             // serving: p99 sojourn of the steady tenant(s)
	P99Count  uint64
	Racks     int
	Windows   [3]uint64 // executed, skipped, flushes elided
	Borrowed  int
	Kills     uint64
	Recovered uint64
	PagesLost int
	PagesMove int
	TCAMLooks uint64 // translation + protection lookups, over all racks
	Pruned    uint64 // multicast copies dropped at egress, over all racks
	Figure    string // sweep: the rendered panel
	// Deliveries is the fabric tap's count (traced reps only); it is
	// not part of the digest.
	Deliveries uint64
}

var latNames = [4]string{stats.LatPgFault, stats.LatNetwork, stats.LatInvQueue, stats.LatInvTLB}

// digest hashes every simulated value and count.
func (o simOut) digest() string {
	h := sha256.New()
	w := func(format string, a ...any) { fmt.Fprintf(h, format, a...) }
	w("req=%d ops=%d refused=%d acc=%d vns=%d ev=%d\n", o.Requested, o.Ops, o.Refused, o.Accesses, o.VirtualNs, o.Events)
	names := make([]string, 0, len(o.Counters))
	for k := range o.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w("%s=%d\n", k, o.Counters[k])
	}
	w("lat=%v p99=%d/%d win=%v bor=%d kills=%d/%d pages=%d/%d tcam=%d pruned=%d\n",
		o.LatNs, o.P99Ns, o.P99Count, o.Windows, o.Borrowed, o.Kills, o.Recovered, o.PagesLost, o.PagesMove, o.TCAMLooks, o.Pruned)
	var mops [8]byte
	binary.LittleEndian.PutUint64(mops[:], uint64(o.SimMops*1e9))
	h.Write(mops[:])
	h.Write([]byte(o.Figure))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (o simOut) counter(name string) uint64 { return o.Counters[name] }

// readCollector fills the fields every simulated workload shares.
func readCollector(col *stats.Collector, events uint64) simOut {
	o := simOut{Counters: col.Snapshot(), Events: events}
	o.Accesses = o.counter(stats.CtrAccesses)
	for i, n := range latNames {
		o.LatNs[i] = int64(col.LatencySum(n))
	}
	return o
}

// readASICs sums what only the switch ASICs count over the racks:
// translation and protection lookups, and pruned multicast copies.
func (o *simOut) readASICs(racks ...*core.Rack) {
	for _, r := range racks {
		a := r.Controller().ASIC()
		o.TCAMLooks += a.Translation.Lookups() + a.Protection.Lookups()
		_, _, pruned, _ := a.Accounting()
		o.Pruned += pruned
	}
}

// deliveryTap counts switch-to-node fabric deliveries per rack through
// the public failure-injection hook; it never drops a message, so the
// simulation is unchanged. One padded slot per rack keeps two executor
// workers off one cache line.
type deliveryTap struct{ slots []tapSlot }

type tapSlot struct {
	n uint64
	_ [56]byte
}

func installTap(racks []*core.Rack) *deliveryTap {
	t := &deliveryTap{slots: make([]tapSlot, len(racks))}
	for i, r := range racks {
		slot := &t.slots[i]
		r.InjectFailure(func(from, to fabric.NodeID) bool {
			slot.n++
			return false
		})
	}
	return t
}

func (t *deliveryTap) total() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.slots {
		n += t.slots[i].n
	}
	return n
}

func podRacks(pod *core.Pod) []*core.Rack {
	rs := make([]*core.Rack, pod.Racks())
	for i := range rs {
		rs[i] = pod.Rack(i)
	}
	return rs
}

// setupRack builds a one-rack closed-loop workload (hotpath and rack
// scenario shapes): threads spread round-robin over the compute blades,
// cache at 25% of the footprint.
func setupRack(w workloads.Workload, blades, memBlades, threads, totalOps int, p runParams, tr *tracer) (*instance, error) {
	var c *core.Cluster
	var proc *core.Process
	var vma mem.VMA
	ths := make([]*core.Thread, threads)
	err := tr.step("new_cluster", "core", func() (err error) {
		cfg := core.DefaultConfig(blades, memBlades)
		cfg.MemoryBladeCapacity = 1 << 30
		cfg.CachePagesPerBlade = int(float64(w.Footprint/mem.PageSize) * 0.25)
		cfg.Seed = p.seed
		c, err = core.NewCluster(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.step("mmap", "ctrlplane", func() (err error) {
		proc = c.Exec("bench")
		vma, err = proc.Mmap(w.Footprint, mem.PermReadWrite)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.step("spawn", "core", func() error {
		for t := range ths {
			th, err := proc.SpawnThread(t % blades)
			if err != nil {
				return err
			}
			ths[t] = th
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tap *deliveryTap
	if p.tap {
		tap = installTap([]*core.Rack{c.Rack})
	}
	params := workloads.Params{Threads: threads, Blades: blades, OpsPerThread: totalOps / threads, Seed: p.seed}
	events0 := c.Engine().Executed
	var end sim.Time
	return &instance{
		run: func() error {
			for t, th := range ths {
				th.Start(w.Gen(vma.Base, t, params), nil)
			}
			end = c.RunThreads()
			return nil
		},
		collect: func() (simOut, error) {
			o := readCollector(c.Collector(), c.Engine().Executed-events0)
			o.Requested = uint64(totalOps)
			o.Racks = 1
			o.readASICs(c.Rack)
			o.Deliveries = tap.total()
			finishClosedLoop(&o, end)
			return o, nil
		},
	}, nil
}

// finishClosedLoop derives the closed-loop outputs from the counters.
func finishClosedLoop(o *simOut, end sim.Time) {
	o.Ops = o.Accesses
	o.Refused = o.counter(stats.CtrRejected)
	o.VirtualNs = int64(end)
	if end > 0 {
		o.SimMops = float64(o.Ops) / end.Sub(0).Seconds() / 1e6
	}
}

// podBorrowerCap and podLenderCap shape the pod memory tiers: borrower
// racks get one 32 MB blade (smaller than either workload's
// reservation), lender racks three 128 MB blades.
const (
	podBorrowerCap = 1 << 25
	podLenderCap   = 1 << 27
)

// podRackConfigs returns racks rack configs, the first half memory-poor.
func podRackConfigs(racks, blades int, cachePages func(ri int) int, seed uint64) []core.Config {
	cfgs := make([]core.Config, racks)
	for ri := range cfgs {
		rc := core.DefaultConfig(blades, 1)
		if ri < racks/2 {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 1, podBorrowerCap
		} else {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 3, podLenderCap
		}
		rc.CachePagesPerBlade = cachePages(ri)
		rc.Seed = seed
		cfgs[ri] = rc
	}
	return cfgs
}

// checkBorrowed fails unless every rack of the memory-poor first half
// borrowed a blade: the shape is only the intended one if they did.
func checkBorrowed(pod *core.Pod) (int, error) {
	total := 0
	for ri := 0; ri < pod.Racks(); ri++ {
		b := pod.Rack(ri).BorrowedBlades()
		if ri < pod.Racks()/2 && b == 0 {
			return 0, fmt.Errorf("rack %d was shaped to borrow memory and did not", ri)
		}
		total += b
	}
	return total, nil
}

// setupPod builds pod_mix (podpar scenario shape): 32 racks of
// 8 compute blades, 8 threads per rack, even racks GC and odd racks MA
// at scale 4, the first 16 racks borrowing from the last 16.
func setupPod(p runParams, tr *tracer) (*instance, error) {
	const racks, blades, perRack = 32, 8, 8
	totalOps := p.ops(podOps, racks*perRack)
	rackWorkload := func(ri int) workloads.Workload {
		if ri%2 == 0 {
			return workloads.GC(4)
		}
		return workloads.MemcachedA(4)
	}
	var pod *core.Pod
	err := tr.step("new_pod", "core", func() (err error) {
		pod, err = core.NewPod(core.PodConfig{
			Workers: p.workers,
			Racks: podRackConfigs(racks, blades, func(ri int) int {
				return int(float64(rackWorkload(ri).Footprint/mem.PageSize) * 0.25)
			}, p.seed),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	type rackRun struct {
		w    workloads.Workload
		proc *core.Process
		base mem.VA
		ths  []*core.Thread
	}
	runs := make([]rackRun, racks)
	err = tr.step("mmap", "ctrlplane", func() error {
		for ri := range runs {
			w := rackWorkload(ri)
			proc := pod.Rack(ri).Exec(fmt.Sprintf("pod-r%d", ri))
			vma, err := proc.Mmap(w.Footprint, mem.PermReadWrite)
			if err != nil {
				return fmt.Errorf("rack %d mmap: %w", ri, err)
			}
			runs[ri] = rackRun{w: w, proc: proc, base: vma.Base}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.step("spawn", "core", func() error {
		for ri := range runs {
			for k := 0; k < perRack; k++ {
				th, err := runs[ri].proc.SpawnThread(k % blades)
				if err != nil {
					return err
				}
				runs[ri].ths = append(runs[ri].ths, th)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	borrowed, err := checkBorrowed(pod)
	if err != nil {
		return nil, err
	}
	var tap *deliveryTap
	if p.tap {
		tap = installTap(podRacks(pod))
	}
	events0 := pod.ExecutedEvents()
	var end sim.Time
	return &instance{
		run: func() error {
			for ri, rr := range runs {
				params := workloads.Params{
					Threads:      perRack,
					Blades:       blades,
					OpsPerThread: totalOps / (racks * perRack),
					Seed:         p.seed + uint64(ri)*1021,
				}
				for k, th := range rr.ths {
					th.Start(rr.w.Gen(rr.base, k, params), nil)
				}
			}
			end = pod.RunThreads()
			return nil
		},
		collect: func() (simOut, error) {
			o := readCollector(pod.Collector(), pod.ExecutedEvents()-events0)
			o.Requested = uint64(totalOps)
			o.Borrowed, o.Racks = borrowed, pod.Racks()
			o.Windows[0], o.Windows[1], o.Windows[2] = pod.WindowStats()
			o.readASICs(podRacks(pod)...)
			o.Deliveries = tap.total()
			finishClosedLoop(&o, end)
			return o, nil
		},
	}, nil
}

// serve_pod traffic shape (servepar scenario): per-class arrival rates
// in requests per second and the contracted rates the per-share token
// buckets enforce. The MMPP class's mean (~321k/s) is far over its 150k
// contract, so throttling happens on every run; the span tenants' hot
// sets exceed one rack's admission headroom, so placement splits them.
const (
	spSteadyRate   = 100_000
	spQuietRate    = 50_000
	spBurstRate    = 1_000_000
	spQuietDwellS  = 50e-6
	spBurstDwellS  = 20e-6
	spDiurnalRate  = 100_000
	spDiurnalSwing = 0.8
	spSpanRate     = 300_000
	spClassLimit   = 150_000
	spSpanLimit    = 450_000
	spBucketDepth  = 64
)

// finishServing derives the serving outputs and checks the request
// conservation identity: every arrival reached exactly one terminal
// counter.
func finishServing(o *simOut, horizon sim.Duration, p99 *stats.StreamHist) error {
	arrivals := o.counter(stats.CtrServeArrivals)
	completed := o.counter(stats.CtrServeCompleted)
	o.Refused = o.counter(stats.CtrServeThrottled) + o.counter(stats.CtrServeDropped) +
		o.counter(stats.CtrServeShed) + o.counter(stats.CtrServeTimedOut) + o.counter(stats.CtrServeFailed)
	o.Requested = arrivals
	o.Ops = completed + o.Refused
	o.VirtualNs = int64(horizon)
	o.SimMops = float64(completed) / horizon.Seconds() / 1e6
	o.P99Ns = p99.Percentile(99)
	o.P99Count = p99.Count()
	if arrivals != o.Ops {
		return fmt.Errorf("serving conservation identity broken: %d arrivals, %d reached a terminal counter (%d completed + %d refused)",
			arrivals, o.Ops, completed, o.Refused)
	}
	if o.P99Count == 0 {
		return fmt.Errorf("steady tenant recorded no latency sample")
	}
	return nil
}

// setupServePod builds serve_pod (servepar scenario shape, serial): a
// 16-rack pod, 24 tenants in three arrival classes plus two spanning
// tenants, each (tenant, rack) share with its own arrival stream and
// its slice of the tenant's QoS bucket.
func setupServePod(p runParams, tr *tracer) (*instance, error) {
	const racks, blades = 16, 8
	const normals, spans = racks * 3 / 2, 2
	w := workloads.MemcachedA(1)
	var pod *core.Pod
	err := tr.step("new_pod", "core", func() (err error) {
		pod, err = core.NewPod(core.PodConfig{
			Workers: p.workers,
			Racks: podRackConfigs(racks, blades, func(int) int {
				return int(float64(w.Footprint/mem.PageSize) * 0.25)
			}, p.seed),
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	specs := make([]ctrlplane.TenantSpec, 0, normals+spans)
	var steady []string
	for i := 0; i < normals; i++ {
		name := fmt.Sprintf("%s%d", [3]string{"steady", "burst", "diurnal"}[i%3], i/3)
		if i%3 == 0 {
			steady = append(steady, name)
		}
		specs = append(specs, ctrlplane.TenantSpec{
			Name: name, Footprint: w.Footprint, Active: w.Footprint / 2,
			RatePerSec: spClassLimit, Burst: spBucketDepth,
		})
	}
	for i := 0; i < spans; i++ {
		specs = append(specs, ctrlplane.TenantSpec{
			Name: fmt.Sprintf("span%d", i), Footprint: 3 * w.Footprint, Active: 3 * w.Footprint,
			RatePerSec: spSpanLimit, Burst: spBucketDepth,
		})
	}
	var placements []ctrlplane.PodPlacement
	err = tr.step("place", "ctrlplane", func() (err error) {
		placements, err = ctrlplane.PlaceTenantsPod(specs, racks, blades, 2*w.Footprint, 2)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("tenant placement: %w", err)
	}
	spanned := 0
	for _, pl := range placements {
		if pl.Spans() {
			spanned++
		}
	}
	if spanned == 0 {
		return nil, fmt.Errorf("placement split no tenant across racks (shape drifted)")
	}

	// The horizon is the frozen arrival budget over the population's
	// mean offered rate, so the offered rate itself never scales.
	mmppMean := (spQuietRate*spQuietDwellS + spBurstRate*spBurstDwellS) / (spQuietDwellS + spBurstDwellS)
	meanRate := float64(normals/3)*(spSteadyRate+mmppMean+spDiurnalRate) + spans*spSpanRate
	horizon := sim.Duration(float64(p.ops(servePodOps, 1)) / meanRate * float64(sim.Second))
	s, err := core.NewPodServing(pod, core.ServeConfig{Horizon: horizon, QueueCap: 1 << 16})
	if err != nil {
		return nil, err
	}
	err = tr.step("mmap", "ctrlplane", func() error {
		params := workloads.Params{Threads: len(specs), Blades: blades, Seed: p.seed}
		stream := 0
		for ti, pl := range placements {
			for si, share := range pl.Shares {
				// The arrival RNG tag carries the rack, so any worker
				// count draws identical per-shard streams.
				tag := fmt.Sprintf("%s@r%d", pl.Spec.Name, share.Rack)
				proc := pod.Rack(share.Rack).Exec(tag)
				footprint := share.Footprint
				if footprint < mem.PageSize {
					footprint = mem.PageSize
				}
				vma, err := proc.Mmap(footprint, mem.PermReadWrite)
				if err != nil {
					return fmt.Errorf("share %s mmap: %w", tag, err)
				}
				var arr core.ArrivalProcess
				switch {
				case ti >= normals:
					arr = workloads.NewPoisson(p.seed, tag, spSpanRate*share.Share)
				case ti%3 == 0:
					arr = workloads.NewPoisson(p.seed, tag, spSteadyRate*share.Share)
				case ti%3 == 1:
					arr = workloads.NewMMPP(p.seed, tag, spQuietRate*share.Share, spBurstRate*share.Share, spQuietDwellS, spBurstDwellS)
				default:
					arr = workloads.NewDiurnal(p.seed, tag, spDiurnalRate*share.Share, spDiurnalSwing, 2*sim.Millisecond)
				}
				err = s.AddTenant(core.TenantWorkload{
					Name:    pl.Spec.Name,
					Proc:    proc,
					Blade:   share.Blade,
					Arrival: arr,
					NextOp:  workloads.RequestStreamIn(w, vma.Base, vma.Len, stream, params),
					Limiter: pl.Bucket(si),
				})
				if err != nil {
					return err
				}
				stream++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	borrowed, err := checkBorrowed(pod)
	if err != nil {
		return nil, err
	}
	var tap *deliveryTap
	if p.tap {
		tap = installTap(podRacks(pod))
	}
	events0 := pod.ExecutedEvents()
	return &instance{
		run: func() error {
			_, err := s.Run()
			return err
		},
		collect: func() (simOut, error) {
			col := pod.Collector()
			o := readCollector(col, pod.ExecutedEvents()-events0)
			o.Borrowed, o.Racks = borrowed, pod.Racks()
			o.Windows[0], o.Windows[1], o.Windows[2] = pod.WindowStats()
			o.readASICs(podRacks(pod)...)
			o.Deliveries = tap.total()
			p99 := stats.NewStreamHist()
			for _, name := range steady {
				p99.MergeFrom(col.StreamHist("serve_lat[" + name + "]"))
			}
			return o, finishServing(&o, horizon, p99)
		},
	}, nil
}

// skRate is each serve_kill tenant's Poisson rate: low enough that all
// three keep up in steady state, so degradation is the storm's doing.
const skRate = 60_000

// setupServeKill builds serve_kill (servekill scenario shape, serial):
// a 2-rack pod, rack 0 memory-poor so the victim tenant sits on a
// borrowed blade, three Poisson tenants under deadlines, two retries
// and brownout shedding, and a storm timed off the horizon: hot-add at
// 20%, the borrowed blade dies at 30%, rack 1's switch fails over at
// 50%, a rack-1 blade drains at 65%. The victim and drain datasets are
// materialized during set-up so the kill loses real pages and the drain
// moves real bytes.
func setupServeKill(p runParams, tr *tracer) (*instance, error) {
	H := sim.Duration(float64(p.ops(serveKillOps, 1)) / (3 * skRate) * float64(sim.Second))
	// Detection is slowed so the blackout is a visible share of the run;
	// the deadline sits well under it but well above a healthy sojourn.
	detection, deadline := H/40, H/200
	mk := func(memBlades int) core.Config {
		rc := core.DefaultConfig(2, memBlades)
		rc.MemoryBladeCapacity = 1024 * mem.PageSize
		rc.CachePagesPerBlade = 64
		rc.Migration.DetectionDelay = detection
		rc.Seed = p.seed
		return rc
	}
	var pod *core.Pod
	err := tr.step("new_pod", "core", func() (err error) {
		// Promotion is off: it would pull the borrowed share home once
		// the hot-add makes room, and return the lease before the kill.
		pod, err = core.NewPod(core.PodConfig{
			Racks:     []core.Config{mk(1), mk(3)},
			Promotion: core.PromotionConfig{Disable: true},
			Workers:   p.workers,
		})
		return err
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
			Arrival: workloads.NewPoisson(p.seed, "serve_kill/"+name, skRate),
			NextOp: func() (mem.VA, bool) {
				pg := i % uint64(pages)
				wr := i%4 == 0
				i++
				return vma.Base + mem.VA(pg*mem.PageSize), wr
			},
		})
	}
	var victimVMA, bulkVMA mem.VMA
	err = tr.step("mmap", "ctrlplane", func() (err error) {
		// The filler takes rack 0's only local blade, so the victim's
		// share lands on a borrowed one.
		if _, err = pod.Rack(0).Exec("filler").Mmap(900*mem.PageSize, mem.PermReadWrite); err != nil {
			return err
		}
		if victimVMA, err = addTenant("victim", 0, 0, 400); err != nil {
			return err
		}
		if _, err = addTenant("steady", 1, 0, 64); err != nil {
			return err
		}
		bulkVMA, err = addTenant("bulk", 1, 1, 128)
		return err
	})
	if err != nil {
		return nil, err
	}
	if pod.Rack(0).BorrowedBlades() == 0 {
		return nil, fmt.Errorf("rack 0 was shaped to borrow memory and did not")
	}
	var killVictim, drainVictim ctrlplane.BladeID
	materialize := func(rack int, vma mem.VMA, pages int) (ctrlplane.BladeID, error) {
		alloc := pod.Rack(rack).Controller().Allocator()
		first, err := alloc.Translate(vma.Base)
		if err != nil {
			return 0, err
		}
		buf := make([]byte, mem.PageSize)
		for i := 0; i < pages; i++ {
			va := vma.Base + mem.VA(i)*mem.PageSize
			home, err := alloc.Translate(va)
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint64(buf, uint64(i+1))
			pod.Rack(rack).MemBlade(int(home)).WritePage(va, buf)
		}
		return first, nil
	}
	err = tr.step("materialize", "memblade", func() (err error) {
		if killVictim, err = materialize(0, victimVMA, 400); err != nil {
			return err
		}
		drainVictim, err = materialize(1, bulkVMA, 128)
		return err
	})
	if err != nil {
		return nil, err
	}

	base := pod.Now()
	var stormErrs [4]error
	var krep core.KillReport
	var drep core.DrainReport
	r0 := pod.Rack(0)
	r0.Engine().At(base.Add(H*2/10), func() { _, stormErrs[0] = r0.AddMemBlade(0) })
	err = pod.KillMemBladeAt(0, killVictim, base.Add(H*3/10), func(r core.KillReport, e error) { krep, stormErrs[1] = r, e })
	if err != nil {
		return nil, err
	}
	err = pod.KillSwitchAt(1, base.Add(H*5/10), func(_ core.SwitchFailoverReport, e error) { stormErrs[2] = e })
	if err != nil {
		return nil, err
	}
	err = pod.DrainMemBladeAt(1, drainVictim, base.Add(H*65/100), func(r core.DrainReport, e error) { drep, stormErrs[3] = r, e })
	if err != nil {
		return nil, err
	}
	var tap *deliveryTap
	if p.tap {
		tap = installTap(podRacks(pod))
	}
	events0 := pod.ExecutedEvents()
	return &instance{
		run: func() error {
			_, err := s.Run()
			return err
		},
		collect: func() (simOut, error) {
			for _, e := range stormErrs {
				if e != nil {
					return simOut{}, fmt.Errorf("storm event: %w", e)
				}
			}
			col := pod.Collector()
			o := readCollector(col, pod.ExecutedEvents()-events0)
			o.Borrowed, o.Racks = pod.Rack(0).BorrowedBlades(), pod.Racks()
			o.Windows[0], o.Windows[1], o.Windows[2] = pod.WindowStats()
			o.readASICs(podRacks(pod)...)
			o.Deliveries = tap.total()
			o.Kills = o.counter(stats.CtrBladeKills)
			o.Recovered = o.counter(stats.CtrBladeRecoveries)
			o.PagesLost, o.PagesMove = krep.PagesLost, drep.PagesMoved
			if err := finishServing(&o, H, col.StreamHist("serve_lat[steady]")); err != nil {
				return o, err
			}
			if o.Kills != 2 || o.Kills != o.Recovered {
				return o, fmt.Errorf("kills (%d) != recoveries (%d), want 2 of each (blade kill + switch failover)", o.Kills, o.Recovered)
			}
			if o.PagesLost == 0 || o.PagesMove == 0 {
				return o, fmt.Errorf("storm moved nothing: %d pages lost, %d pages drained", o.PagesLost, o.PagesMove)
			}
			return o, nil
		},
	}, nil
}

// panelScale is experiments.Tiny with the job size cut so that one
// sweep is a rep: 128 runs, inline serial (Workers -1). The seed pins
// every random stream of every run through RootSeed.
func panelScale(p runParams) experiments.Scale {
	s := experiments.Tiny
	s.TotalOps = p.ops(panelOps, 160) // at least 2 ops per thread at the widest point (80 threads): the steady-state pair runs ops/2 and ops
	s.Workers = -1
	s.RootSeed = p.seed
	return s
}

// panelAccesses is the number of accesses Fig5Center issues at a scale:
// for each of 4 workloads, 4 blade counts and 4 systems, a steady-state
// pair of runs at ops and 2*ops per thread, 10 threads per blade.
//
// It is computed, not observed: experiments hands back only the rendered
// figures and the run cache's hit and miss counts, and its runs keep
// their collectors to themselves. So on panel_sweep "ops finished == ops
// requested" checks nothing; what is observed is the number of runs
// executed (cache misses) and the figures. A change to how the panel
// splits its ops must change this function with it, or ops_per_sec on
// panel_sweep is quoted against the wrong count.
func panelAccesses(s experiments.Scale) (runs int, accesses uint64) {
	for _, bladeCount := range []int{1, 2, 4, 8} {
		threads := 10 * bladeCount
		ops := s.TotalOps / threads
		if ops < 1 {
			ops = 1
		}
		ops /= 2
		runs += 4 * 4 * 2
		accesses += uint64(4 * 4 * threads * 3 * ops)
	}
	return runs, accesses
}

// setupPanel builds panel_sweep. What a user pays before the first
// simulated op of a panel is one cluster construction, so that is what
// set-up measures: the widest point's cluster built the way the panel
// builds it (8 compute and 8 memory blades, the scale's directory
// capacity, one vma, 80 threads). The sweep then constructs and tears
// down its own 128 clusters inside the measured phase.
func setupPanel(p runParams, tr *tracer) (*instance, error) {
	s := panelScale(p)
	err := tr.step("new_cluster", "core", func() error {
		w := workloads.GC(s.WorkloadScale)
		cfg := core.DefaultConfig(8, 8)
		cfg.MemoryBladeCapacity = 1 << 30
		cfg.CachePagesPerBlade = int(float64(w.Footprint/mem.PageSize) * s.CacheFraction)
		cfg.ASIC.SlotCapacity = s.DirSlots
		cfg.SplitterEpoch = s.Epoch
		cfg.Seed = p.seed
		c, err := core.NewCluster(cfg)
		if err != nil {
			return err
		}
		proc := c.Exec("bench")
		if _, err := proc.Mmap(w.Footprint, mem.PermReadWrite); err != nil {
			return err
		}
		for t := 0; t < 80; t++ {
			if _, err := proc.SpawnThread(t % 8); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	experiments.ResetCache()
	var figs map[string]*experiments.Figure
	return &instance{
		run: func() (err error) {
			figs, err = experiments.Fig5Center(s)
			return err
		},
		collect: func() (simOut, error) {
			runs, accesses := panelAccesses(s)
			o := simOut{Requested: accesses, Accesses: accesses}
			_, misses := experiments.CacheStats()
			if int(misses) != runs {
				return o, fmt.Errorf("panel executed %d runs, want %d", misses, runs)
			}
			names := make([]string, 0, len(figs))
			for k := range figs {
				names = append(names, k)
			}
			sort.Strings(names)
			var b strings.Builder
			for _, k := range names {
				b.WriteString(figs[k].String())
			}
			o.Figure = b.String()
			o.Ops = accesses
			if len(names) != 4 {
				return o, fmt.Errorf("panel rendered %d figures, want 4", len(names))
			}
			return o, nil
		},
	}, nil
}
