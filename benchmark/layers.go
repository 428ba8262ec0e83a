package main

import (
	"fmt"
	"math"
	"time"

	"mind/internal/bitset"
	"mind/internal/computeblade"
	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/memblade"
	"mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
	"mind/internal/workloads"
)

// Layer drivers: each layer's public functions are driven from outside
// with inputs generated from the seed and shaped like rack_gc and
// pod_mix. A unit cost is host ns per call: the median over the batches
// of each batch's mean. Cheap calls get 2*10^5 calls in 20 batches;
// calls that cost microseconds (a fault round trip, a pod construction)
// get fewer, and README.md lists how many.
//
// The shapes below (delayBins, residentEvents, hopMix, sharerCDF,
// crossingsPerFlush, the TCAM tables) were measured, not chosen: one
// rep of rack_gc and one of pod_mix at seed 1021 on a scratch copy of
// this repository with counting hooks in sim.Engine's enqueue and Rearm,
// the fabric's and the interconnect's send paths,
// ASIC.PruneMulticastBitmap and TCAM.Lookup. README.md "Driver input
// shapes" has the histograms they were read from. Nothing re-measures
// them, so they go stale when the model changes what it schedules.

// delayBins is rack_gc's histogram of event delays at schedule time. A
// delay is drawn uniformly from [lo, hi), which lie inside the observed
// bin and keep its observed mean. Fault timeouts (6 % of the events
// scheduled, 2 ms out, canceled before they fire) are left out:
// sim.timer_rearm_cancel_ns drives those.
var delayBins = []struct {
	share  float64
	lo, hi sim.Duration
}{
	{0.089, 0, 1},       // continuations at the same instant
	{0.038, 1, 59},      // bin [1,100), mean 30 ns
	{0.031, 100, 288},   // bin [100,300), mean 194
	{0.138, 352, 600},   // bin [300,600), mean 476
	{0.328, 678, 1500},  // bin [600,1500), mean 1089
	{0.361, 1500, 2388}, // bin [1500,3000), mean 1944
	{0.015, 3000, 4026}, // bin [3000,10000), mean 3513
}

// residentEvents is the mean number of pending events when rack_gc
// schedules one (pod_mix: 13 per rack).
const residentEvents = 163

// hop is one fabric hop: node to switch (up) or switch to node, at a
// compute or a memory blade, control or page sized.
type hop struct {
	share float64
	up    bool
	mem   bool
	bytes int
}

// hopMix is rack_gc's mix of fabric hops: 51 % control and 49 % page
// sized, 50 % up, 38 % at a memory blade. The copies of an invalidation
// multicast (12 % of the hops) are driven as single control sends to a
// compute blade: each copy costs one RX reservation and one delivery
// event, as a unicast does after its egress reservation.
var hopMix = []hop{
	{0.2553, true, false, fabric.CtrlMsgBytes},  // fault requests, ACKs
	{0.1073, true, false, fabric.PageBytes},     // writebacks, flushed pages
	{0.1374, true, true, fabric.PageBytes},      // page replies leaving memory
	{0.1374, false, false, fabric.PageBytes},    // page replies arriving
	{0.1374, false, true, fabric.CtrlMsgBytes},  // read requests to memory
	{0.1073, false, true, fabric.PageBytes},     // writebacks to memory
	{0.1179, false, false, fabric.CtrlMsgBytes}, // multicast copies
}

// sharerCDF[k-1] is the share of rack_gc's invalidation multicasts that
// leave the prune with at most k copies, k = 1..8; the last 1.1 % have
// 9 to 63 and are drawn from 9..24, which keeps the observed mean of
// 1.64 copies per multicast. (pod_mix, 8-port groups: 86 % one copy.)
var sharerCDF = [8]float64{0.7598, 0.8710, 0.9280, 0.9563, 0.9716, 0.9804, 0.9857, 0.9890}

// crossingsPerFlush is pod_mix's mean number of cross-rack messages per
// non-empty boundary flush (7.65 observed; half control, half page).
const crossingsPerFlush = 8

// driver carries what every layer driver needs.
type driver struct {
	tr   *tracer
	rng  *sim.RNG
	seed uint64
	// shrink divides every call count: 1 on a measurement, 100 on a
	// smoke run (bench_test.go), which only checks the drivers work.
	shrink int
	u      unitCosts
}

// sink keeps results the drivers compute alive.
var sink uint64

func nopEvent(any) {}

// small shrinks a call count on smoke runs, keeping it a positive
// multiple of unit.
func (d *driver) small(calls, unit int) int {
	return max(unit, calls/d.shrink/unit*unit)
}

// timeBatches runs body(calls) batches times, each inside a span, and
// returns the median of the batch means in ns per call. body does its
// calls in groups of unit.
func (d *driver) timeBatches(name, layer string, batches, calls, unit int, body func(calls int)) float64 {
	if d.shrink > 1 {
		batches, calls = 2, d.small(calls, unit)
	}
	means := make([]float64, batches)
	for b := range means {
		id := d.tr.begin(name, layer)
		t0 := time.Now()
		body(calls)
		el := time.Since(t0)
		d.tr.end(id, uint64(calls))
		means[b] = float64(el.Nanoseconds()) / float64(calls)
	}
	return median(means)
}

// delayMix draws n event delays from delayBins.
func (d *driver) delayMix(n int) []sim.Duration {
	out := make([]sim.Duration, n)
	for i := range out {
		r := d.rng.Float64()
		b := delayBins[len(delayBins)-1]
		for _, c := range delayBins {
			if r < c.share {
				b = c
				break
			}
			r -= c.share
		}
		out[i] = b.lo + sim.Duration(d.rng.Intn(int(b.hi-b.lo)))
	}
	return out
}

// drawHop draws one hop from hopMix.
func (d *driver) drawHop() hop {
	r := d.rng.Float64()
	for _, h := range hopMix {
		if r < h.share {
			return h
		}
		r -= h.share
	}
	return hopMix[len(hopMix)-1]
}

// drawSharers draws how many copies a multicast keeps, from sharerCDF.
func (d *driver) drawSharers() int {
	r := d.rng.Float64()
	for k, c := range sharerCDF {
		if r < c {
			return k + 1
		}
	}
	return 9 + d.rng.Intn(16)
}

// runLayerDrivers runs every layer driver and returns the unit costs.
func runLayerDrivers(seed uint64, smoke bool, tr *tracer) (unitCosts, error) {
	d := &driver{tr: tr, rng: sim.NewRNG(seed, "benchmark/layers"), seed: seed, shrink: 1, u: unitCosts{ns: values{}}}
	if smoke {
		d.shrink = 100
	}
	all := tr.begin("layer_drivers", "benchmark")
	defer func() { tr.end(all, 1) }()
	d.driveSim()
	d.driveSwitchASIC()
	d.driveFabric()
	d.driveComputeBlade()
	d.driveMemBlade()
	d.driveStats()
	d.driveWorkloads()
	d.driveRunner()
	for _, f := range []func() error{d.driveCoherence, d.driveCtrlPlane, d.driveCore} {
		if err := f(); err != nil {
			return d.u, fmt.Errorf("layer driver: %w", err)
		}
	}
	return d.u, nil
}

func (d *driver) driveSim() {
	delays := d.delayMix(4096)
	eng := sim.NewEngine()
	for i := 0; i < residentEvents; i++ {
		eng.ScheduleArg(delays[i], nopEvent, nil)
	}
	i := 0
	d.u.ns["sim.schedule_dispatch_ns"] = d.timeBatches("schedule_dispatch", "sim", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			eng.ScheduleArg(delays[i&4095], nopEvent, nil)
			i++
			eng.Step()
		}
	})

	// A page-fault timeout: armed at issue, canceled at completion long
	// before it would fire; canceled events drain when time passes them.
	timeout := computeblade.DefaultConfig(0, 0).FaultTimeout
	var ev *sim.Event
	d.u.ns["sim.timer_rearm_cancel_ns"] = d.timeBatches("timer_rearm_cancel", "sim", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			ev = eng.Rearm(ev, timeout, nopEvent, nil)
			eng.Cancel(ev)
		}
		eng.RunUntil(eng.Now().Add(2 * timeout))
	})

	// A pod rack between windows: a handful of pending events.
	rack := sim.NewEngine()
	for i := 0; i < 8; i++ {
		rack.ScheduleArg(10*sim.Second+delays[i], nopEvent, nil)
	}
	d.u.ns["sim.peek_ns"] = d.timeBatches("peek", "sim", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			t, _ := rack.PeekTime()
			sink += uint64(t)
		}
	})
	end := rack.Now()
	d.u.ns["sim.runwindow_empty_ns"] = d.timeBatches("runwindow_empty", "sim", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			end = end.Add(sim.Microsecond)
			rack.RunWindow(end)
		}
	})
}

func (d *driver) driveSwitchASIC() {
	// rack_gc's tables as its lookups find them: translation holds one
	// wildcard rule per memory blade (8 rules, one level) and is looked
	// up by address alone; protection holds the process's one vma and is
	// looked up by domain. 2.8 translation lookups per protection lookup
	// were observed; 3 to 1 are driven.
	const bladeBytes = 1 << 30
	translation := switchasic.NewTCAM("translation", 0)
	for b := uint64(0); b < 8; b++ {
		if err := translation.Insert(switchasic.Entry{PDID: switchasic.WildcardPDID, Base: b * bladeBytes, Size: bladeBytes, Value: int64(b)}); err != nil {
			panic(err)
		}
	}
	protection := switchasic.NewTCAM("protection", 0)
	if err := protection.Insert(switchasic.Entry{PDID: 1, Base: 0, Size: bladeBytes, Value: int64(mem.PermReadWrite)}); err != nil {
		panic(err)
	}
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = d.rng.Uint64n(bladeBytes)
	}
	i := 0
	d.u.ns["switchasic.tcam_lookup_ns"] = d.timeBatches("tcam_lookup", "switchasic", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			var v int64
			var err error
			if i&3 == 3 {
				v, err = protection.Lookup(1, addrs[i&4095])
			} else {
				v, err = translation.Lookup(switchasic.WildcardPDID, uint64(i&7)*bladeBytes+addrs[i&4095])
			}
			if err != nil {
				panic(err)
			}
			sink += uint64(v)
			i++
		}
	})

	// rack_gc's invalidation group: 64 ports, sharers from sharerCDF.
	a := switchasic.New(switchasic.DefaultConfig())
	ports := make([]int, 64)
	for p := range ports {
		ports[p] = p
	}
	a.SetGroup(1, ports)
	sharers := make([]bitset.Set, 256)
	for s := range sharers {
		for k := d.drawSharers(); sharers[s].Count() < k; {
			sharers[s].Add(d.rng.Intn(64))
		}
	}
	var dst []int
	d.u.ns["switchasic.prune_bitmap_ns"] = d.timeBatches("prune_bitmap", "switchasic", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			out, err := a.PruneMulticastBitmap(dst, 1, &sharers[k&255])
			if err != nil {
				panic(err)
			}
			dst = out
			sink += uint64(len(out))
		}
	})
}

func (d *driver) driveFabric() {
	eng := sim.NewEngine()
	f := fabric.New(eng, fabric.DefaultConfig())
	const memBase = 1000
	for i := 0; i < 64; i++ {
		f.AddNode(fabric.NodeID(i))
	}
	for m := 0; m < 8; m++ {
		f.AddNode(fabric.NodeID(memBase + m))
	}
	type msg struct {
		node  fabric.NodeID
		bytes int
		up    bool
	}
	msgs := make([]msg, 4096)
	for i := range msgs {
		h := d.drawHop()
		node := fabric.NodeID(d.rng.Intn(64))
		if h.mem {
			node = fabric.NodeID(memBase + d.rng.Intn(8))
		}
		msgs[i] = msg{node, h.bytes, h.up}
	}
	i := 0
	// One hop and the dispatch of the delivery event it schedules.
	d.u.ns["fabric.send_ns"] = d.timeBatches("send", "fabric", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			m := msgs[i&4095]
			if m.up {
				f.SendToSwitchArg(m.node, m.bytes, nopEvent, nil)
			} else {
				f.SendFromSwitchArg(m.node, m.bytes, nopEvent, nil)
			}
			i++
			eng.Step()
		}
	})

	// pod_mix: 32 racks, crossingsPerFlush crossings flushed at a
	// barrier and dispatched in the next window.
	const racks, perWindow = 32, crossingsPerFlush
	engs := make([]*sim.Engine, racks)
	for r := range engs {
		engs[r] = sim.NewEngine()
	}
	ic := fabric.NewShardedInterconnect(engs, fabric.DefaultInterConfig())
	type crossing struct{ from, to, bytes int }
	cross := make([]crossing, 4096)
	for c := range cross {
		from := d.rng.Intn(racks)
		to := (from + 1 + d.rng.Intn(racks-1)) % racks
		// Every crossing is a request and its page reply, so sizes alternate.
		cross[c] = crossing{from, to, [2]int{fabric.CtrlMsgBytes, fabric.PageBytes}[c&1]}
	}
	end := sim.Time(0)
	j := 0
	d.u.ns["fabric.ic_send_flush_ns"] = d.timeBatches("ic_send_flush", "fabric", 20, 10_000, perWindow, func(n int) {
		for k := 0; k < n; k += perWindow {
			for s := 0; s < perWindow; s++ {
				c := cross[(j+s)&4095]
				ic.Send(c.from, c.to, c.bytes, nopEvent, nil)
			}
			ic.FlushBoundary()
			end = end.Add(2 * sim.Microsecond)
			for s := 0; s < perWindow; s++ {
				c := cross[(j+s)&4095]
				engs[c.from].RunWindow(end)
				engs[c.to].RunWindow(end)
			}
			j += perWindow
		}
	})
	d.u.ns["fabric.ic_flush_empty_ns"] = d.timeBatches("ic_flush_empty", "fabric", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			sink += uint64(ic.FlushBoundary())
		}
	})
}

func (d *driver) driveComputeBlade() {
	const capacity = 4096
	c := computeblade.NewCache(capacity)
	for i := 0; i < capacity; i++ {
		c.Insert(mem.VA(i)*mem.PageSize, i&1 == 0)
	}
	vas := make([]mem.VA, 4096)
	for i := range vas {
		vas[i] = mem.VA(d.rng.Intn(capacity))*mem.PageSize + mem.VA(d.rng.Intn(mem.PageSize)&^7)
	}
	d.u.ns["computeblade.cache_hit_ns"] = d.timeBatches("cache_hit", "computeblade", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			p, ok := c.Lookup(vas[k&4095])
			if !ok {
				panic("benchmark: cached page missing")
			}
			sink += uint64(p.VA)
		}
	})
	fresh := mem.VA(capacity) * mem.PageSize
	d.u.ns["computeblade.cache_miss_evict_ns"] = d.timeBatches("cache_miss_evict", "computeblade", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			if _, ok := c.Lookup(fresh); ok {
				panic("benchmark: fresh page already cached")
			}
			if c.NeedsEviction() {
				c.EvictLRU()
			}
			c.Insert(fresh, true)
			fresh += mem.PageSize
		}
	})
}

func (d *driver) driveMemBlade() {
	const pages = 1024
	b := memblade.New(0)
	buf := make([]byte, mem.PageSize)
	for i := 0; i < pages; i++ {
		buf[0] = byte(i)
		b.WritePage(mem.VA(i)*mem.PageSize, buf)
	}
	vas := make([]mem.VA, 4096)
	for i := range vas {
		vas[i] = mem.VA(d.rng.Intn(pages)) * mem.PageSize
	}
	d.u.ns["memblade.read_page_ns"] = d.timeBatches("read_page", "memblade", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			sink += uint64(b.ReadPageInto(vas[k&4095], buf)[0])
		}
	})
	d.u.ns["memblade.write_page_ns"] = d.timeBatches("write_page", "memblade", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			b.WritePage(vas[k&4095], buf)
		}
	})
}

func (d *driver) driveStats() {
	// Sojourn times: log-uniform from 100 ns to 1 ms.
	samples := make([]int64, 4096)
	for i := range samples {
		samples[i] = int64(100 * math.Pow(10, 4*d.rng.Float64()))
	}
	h := stats.NewStreamHist()
	d.u.ns["stats.hist_observe_ns"] = d.timeBatches("hist_observe", "stats", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			h.Observe(samples[k&4095])
		}
	})

	// One rack shard of a serving pod: the rack counters, a tenant's
	// counters, the four latency components and its sojourn histogram.
	src := stats.NewCollector()
	names := []string{stats.CtrAccesses, stats.CtrLocalHits, stats.CtrRemoteAccesses, stats.CtrInvalidations,
		stats.CtrFlushedPages, stats.CtrFalseInvals, stats.CtrEvictions, stats.CtrWritebacks, stats.CtrSplits,
		stats.CtrMerges, stats.CtrRecirculations, stats.CtrMulticasts, stats.CtrPrunedCopies, stats.CtrCrossRackMsgs,
		stats.CtrServeArrivals, stats.CtrServeCompleted, stats.CtrServeThrottled, stats.CtrServeDropped}
	for _, t := range []string{"steady0", "burst0"} {
		for _, c := range []string{"arrivals", "completed", "throttled", "dropped", "timedout", "retried", "shed", "failed"} {
			names = append(names, "serve_"+c+"["+t+"]")
		}
		sh := src.StreamHist("serve_lat[" + t + "]")
		for _, s := range samples {
			sh.Observe(s)
		}
	}
	for i, n := range names {
		src.IncH(src.Handle(n), uint64(i+1))
	}
	for _, n := range latNames {
		src.AddLatencyH(src.LatencyHandle(n), sim.Microsecond)
	}
	d.u.ns["stats.collector_merge_ns"] = d.timeBatches("collector_merge", "stats", 20, 500, 1, func(n int) {
		for k := 0; k < n; k++ {
			dst := stats.NewCollector()
			dst.MergeFrom(src)
			sink += dst.Counter(stats.CtrAccesses)
		}
	})
}

func (d *driver) driveWorkloads() {
	for _, g := range []struct {
		metric string
		w      workloads.Workload
		p      workloads.Params
	}{
		{"workloads.gen_next_ns", workloads.TF(1), workloads.Params{Threads: 8, Blades: 8}},
		{"workloads.gen_next_gc_ns", workloads.GC(4), workloads.Params{Threads: 256, Blades: 64}},
		{"workloads.gen_next_ma_ns", workloads.MemcachedA(4), workloads.Params{Threads: 8, Blades: 8}},
	} {
		g.p.OpsPerThread, g.p.Seed = math.MaxInt32, d.seed
		gen := g.w.Gen(0, 1, g.p)
		d.u.ns[g.metric] = d.timeBatches(g.metric[len("workloads."):], "workloads", 20, 10_000, 1, func(n int) {
			for k := 0; k < n; k++ {
				va, _, _ := gen()
				sink += uint64(va)
			}
		})
	}
	arrivals := []workloads.ArrivalProcess{
		workloads.NewPoisson(d.seed, "bench/poisson", spSteadyRate),
		workloads.NewMMPP(d.seed, "bench/mmpp", spQuietRate, spBurstRate, spQuietDwellS, spBurstDwellS),
		workloads.NewDiurnal(d.seed, "bench/diurnal", spDiurnalRate, spDiurnalSwing, 2*sim.Millisecond),
	}
	now := [3]sim.Time{}
	d.u.ns["workloads.arrival_next_ns"] = d.timeBatches("arrival_next", "workloads", 20, 9_999, 3, func(n int) {
		for k := 0; k < n; k++ {
			a := k % 3
			now[a] = now[a].Add(arrivals[a].Next(now[a]))
		}
	})
}

func (d *driver) driveRunner() {
	specs := make([]runner.Spec, 128)
	for i := range specs {
		v := i
		specs[i] = runner.Spec{Key: runner.KeyOf("bench", i), Run: func() (any, error) { return v, nil }}
	}
	// Per spec: a fresh cache each Do, as after experiments.ResetCache.
	d.u.ns["runner.do_overhead_ns"] = d.timeBatches("do_overhead", "runner", 20, 10*len(specs), len(specs), func(n int) {
		for k := 0; k < n; k += len(specs) {
			res, err := runner.Do(specs, runner.Options{Workers: -1, Cache: runner.NewCache()})
			if err != nil {
				panic(err)
			}
			sink += uint64(len(res))
		}
	})
}

// driveCoherence measures a fault round trip through the whole rack via
// Thread.Touch on an 8-blade cluster: seven blades read a page (read
// faults, the region ends up shared by seven), then the eighth writes it
// (one invalidating fault, multicast to seven sharers). Pages are 16 KB
// apart and splitting is off, so each keeps a directory region of its own.
// It also notes
// how many engine events, fabric deliveries and TCAM lookups one fault
// of each kind contains, which the shares subtract.
func (d *driver) driveCoherence() error {
	const blades, stride = 8, 16 << 10
	batches, perBatch := 8, d.small(1500, 1)
	if d.shrink > 1 {
		batches = 2
	}
	cfg := core.DefaultConfig(blades, 2)
	cfg.MemoryBladeCapacity = 1 << 30
	cfg.CachePagesPerBlade = batches*perBatch + 64 // no capacity evictions
	cfg.DisableSplitting = true                    // regions stay 16 KB: no epoch merges them under the loop
	cfg.Seed = d.seed
	c, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	proc := c.Exec("coherence")
	vma, err := proc.Mmap(uint64(batches*perBatch*stride), mem.PermReadWrite)
	if err != nil {
		return err
	}
	ths := make([]*core.Thread, blades)
	for b := range ths {
		if ths[b], err = proc.SpawnThread(b); err != nil {
			return err
		}
	}
	tap := installTap([]*core.Rack{c.Rack})
	state := func() [3]float64 {
		var o simOut
		o.readASICs(c.Rack)
		return [3]float64{float64(c.Engine().Executed), float64(tap.total()), float64(o.TCAMLooks)}
	}
	var readNs, writeNs []float64
	var readD, writeD [3]float64
	inval0 := c.Collector().Counter(stats.CtrInvalidations)
	for batch := 0; batch < batches; batch++ {
		base := vma.Base + mem.VA(batch*perBatch*stride)
		s0 := state()
		id := d.tr.begin("read_fault", "coherence")
		t0 := time.Now()
		for p := 0; p < perBatch; p++ {
			for b := 1; b < blades; b++ {
				if err := ths[b].Touch(base+mem.VA(p*stride), false); err != nil {
					return err
				}
			}
		}
		el := time.Since(t0)
		d.tr.end(id, uint64((blades-1)*perBatch))
		readNs = append(readNs, float64(el.Nanoseconds())/float64((blades-1)*perBatch))
		s1 := state()
		id = d.tr.begin("write_inval", "coherence")
		t0 = time.Now()
		for p := 0; p < perBatch; p++ {
			if err := ths[0].Touch(base+mem.VA(p*stride), true); err != nil {
				return err
			}
		}
		el = time.Since(t0)
		d.tr.end(id, uint64(perBatch))
		writeNs = append(writeNs, float64(el.Nanoseconds())/float64(perBatch))
		s2 := state()
		for i := range s0 {
			readD[i] += s1[i] - s0[i]
			writeD[i] += s2[i] - s1[i]
		}
	}
	writes := float64(batches * perBatch)
	if got := float64(c.Collector().Counter(stats.CtrInvalidations) - inval0); got < (blades-1)*writes {
		return fmt.Errorf("coherence: %v invalidations for %v writes to pages shared by %d blades", got, writes, blades-1)
	}
	reads := writes * (blades - 1)
	d.u.ns["coherence.read_fault_ns"] = median(readNs)
	d.u.ns["coherence.write_inval_ns"] = median(writeNs)
	d.u.readEv, d.u.readDeliv, d.u.readTCAM = readD[0]/reads, readD[1]/reads, readD[2]/reads
	d.u.writeEv, d.u.writeDeliv, d.u.writeTCAM = writeD[0]/writes, writeD[1]/writes, writeD[2]/writes
	return nil
}

func (d *driver) driveCtrlPlane() error {
	// serve_pod's MMPP class: ~321k arrivals/s against a 150k contract.
	gaps := make([]sim.Duration, 4096)
	for i := range gaps {
		gaps[i] = sim.Duration(-math.Log(1-d.rng.Float64()) / 321_000 * float64(sim.Second))
	}
	tb := ctrlplane.NewTokenBucket(spClassLimit, spBucketDepth)
	now := sim.Time(0)
	d.u.ns["ctrlplane.token_admit_ns"] = d.timeBatches("token_admit", "ctrlplane", 20, 10_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			now = now.Add(gaps[k&4095])
			if tb.Take(now) {
				sink++
			}
		}
	})

	// One workload-sized vma per call on an 8+8 blade rack, through the
	// syscall path (Process.Mmap), as every set-up and panel run does.
	cfg := core.DefaultConfig(8, 8)
	cfg.MemoryBladeCapacity = 1 << 30
	cfg.Seed = d.seed
	c, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	proc := c.Exec("mmap")
	length := workloads.GC(1).Footprint
	var mmapErr error
	d.u.ns["ctrlplane.mmap_ns"] = d.timeBatches("mmap", "ctrlplane", 10, 20, 1, func(n int) {
		for k := 0; k < n; k++ {
			if _, err := proc.Mmap(length, mem.PermReadWrite); err != nil {
				mmapErr = err
			}
		}
	})
	if mmapErr != nil {
		return mmapErr
	}

	w := workloads.MemcachedA(1)
	var specs []ctrlplane.TenantSpec
	for i := 0; i < 24; i++ {
		specs = append(specs, ctrlplane.TenantSpec{Name: fmt.Sprint("t", i), Footprint: w.Footprint, Active: w.Footprint / 2,
			RatePerSec: spClassLimit, Burst: spBucketDepth})
	}
	for i := 0; i < 2; i++ {
		specs = append(specs, ctrlplane.TenantSpec{Name: fmt.Sprint("span", i), Footprint: 3 * w.Footprint, Active: 3 * w.Footprint,
			RatePerSec: spSpanLimit, Burst: spBucketDepth})
	}
	var placeErr error
	d.u.ns["ctrlplane.place_pod_ns"] = d.timeBatches("place_pod", "ctrlplane", 10, 200, 1, func(n int) {
		for k := 0; k < n; k++ {
			pl, err := ctrlplane.PlaceTenantsPod(specs, 16, 8, 2*w.Footprint, 2)
			if err != nil {
				placeErr = err
			}
			sink += uint64(len(pl))
		}
	})
	return placeErr
}

func (d *driver) driveCore() error {
	// A thread that only hits: 64 warm pages on one blade, a trivial
	// generator, so the number is the thread loop plus one cache hit.
	const hitOps = 200_000
	var hitErr error
	d.u.ns["core.thread_hit_ns"] = d.timeBatches("thread_hit", "core", 10, hitOps, 1, func(n int) {
		// Construction and warm-up are inside the batch but small next
		// to 2*10^5 hits.
		cfg := core.DefaultConfig(1, 1)
		cfg.MemoryBladeCapacity = 1 << 30
		cfg.CachePagesPerBlade = 128
		cfg.Seed = d.seed
		c, err := core.NewCluster(cfg)
		if err != nil {
			hitErr = err
			return
		}
		proc := c.Exec("hits")
		vma, err := proc.Mmap(64*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			hitErr = err
			return
		}
		th, err := proc.SpawnThread(0)
		if err != nil {
			hitErr = err
			return
		}
		for p := 0; p < 64; p++ {
			if err := th.Touch(vma.Base+mem.VA(p)*mem.PageSize, false); err != nil {
				hitErr = err
				return
			}
		}
		i := 0
		th.Start(func() (mem.VA, bool, bool) {
			if i >= n {
				return 0, false, false
			}
			i++
			return vma.Base + mem.VA(i&63)*mem.PageSize, false, true
		}, nil)
		c.RunThreads()
	})
	if hitErr != nil {
		return hitErr
	}

	// An idle 32-rack pod shaped like pod_mix, no promotion ticks.
	idlePod := func(workers int, dense bool) (*core.Pod, error) {
		return core.NewPod(core.PodConfig{
			Racks:        podRackConfigs(32, 8, func(int) int { return 1024 }, d.seed),
			Promotion:    core.PromotionConfig{Disable: true},
			Workers:      workers,
			DenseWindows: dense,
		})
	}
	for _, b := range []struct {
		metric  string
		workers int
	}{{"core.barrier_idle_w1_ns", 1}, {"core.barrier_idle_w2_ns", parWorkers()}} {
		pod, err := idlePod(b.workers, true)
		if err != nil {
			return err
		}
		x0, _, _ := pod.WindowStats()
		asked := uint64(0)
		d.u.ns[b.metric] = d.timeBatches(b.metric[len("core."):], "core", 5, 20_000, 1, func(n int) {
			pod.AdvanceTime(sim.Duration(n) * sim.Microsecond)
			asked += uint64(n)
		})
		if x1, _, _ := pod.WindowStats(); x1-x0 != asked {
			return fmt.Errorf("dense idle pod executed %d windows, want %d", x1-x0, asked)
		}
	}
	pod, err := idlePod(1, false)
	if err != nil {
		return err
	}
	_, s0, _ := pod.WindowStats()
	d.u.ns["core.jump_ns"] = d.timeBatches("jump", "core", 5, 2_000, 1, func(n int) {
		for k := 0; k < n; k++ {
			pod.AdvanceTime(64 * sim.Microsecond)
		}
	})
	if _, s1, _ := pod.WindowStats(); s1 == s0 {
		return fmt.Errorf("sparse idle pod skipped no window")
	}

	var buildErr error
	d.u.ns["core.new_pod_ns"] = d.timeBatches("new_pod", "core", 3, 3, 1, func(n int) {
		for k := 0; k < n; k++ {
			if _, err := idlePod(1, false); err != nil {
				buildErr = err
			}
		}
	})
	d.u.ns["core.new_cluster_ns"] = d.timeBatches("new_cluster", "core", 5, 20, 1, func(n int) {
		for k := 0; k < n; k++ {
			cfg := core.DefaultConfig(8, 8)
			cfg.MemoryBladeCapacity = 1 << 30
			cfg.CachePagesPerBlade = 1024
			cfg.Seed = d.seed
			if _, err := core.NewCluster(cfg); err != nil {
				buildErr = err
			}
		}
	})
	return buildErr
}
