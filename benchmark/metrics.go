package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mind/internal/stats"
)

// metricDef declares one metric. BENCHMARK.json carries the same
// tables; bench_test.go checks the two agree, so this file is the single
// place a name, unit, direction or bound is decided.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Clock  string  // "host" or "sim": which time the number is made of
}

// na is what a workload reports for an end-to-end metric that does not
// apply to it (sim_p99_us on a closed loop; every sim_* on panel_sweep).
// The driver requires every workload to print every end-to-end metric
// and none may be 0, so the cell is the constant 1 and the table prints
// "n/a" beside it.
const na = 1.0

// simUs is the unit of simulated microseconds. It is not "us" so that no
// reader, and no tool that treats "us" as a stopwatch reading, takes a
// simulated time for a host time: a simulated time is a function of the
// inputs, repeats exactly at one seed, and can read the same at every
// seed (the p99 is a histogram bucket's edge).
const simUs = "sim_us"

// Bounds come from measured spreads (README "Bounds"). Those of the
// simulated metrics cannot be 0: the driver draws a new seed per run and
// the simulated values move with the inputs; two runs at one seed must
// still agree bit for bit, which -compare checks. Those of the host
// metrics are the largest the contract allows: the yardstick takes out
// most of the host's swings (yardstick.go), not all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host"},
	{"ops_per_sec", "ops/s", "higher", 0.25, "host"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "host"},
	{"sim_mops", "Mops/s", "higher", 0.20, "sim"},
	{"sim_fault_us", simUs, "lower", 0.20, "sim"},
	{"sim_p99_us", simUs, "lower", 0.10, "sim"},
	{"ok_frac", "ratio", "higher", 0.02, "sim"},
}

var perLayer = []metricDef{
	{"sim.schedule_dispatch_ns", "ns", "lower", 0, "host"},
	{"sim.timer_rearm_cancel_ns", "ns", "lower", 0, "host"},
	{"sim.peek_ns", "ns", "lower", 0, "host"},
	{"sim.runwindow_empty_ns", "ns", "lower", 0, "host"},
	{"sim.events_per_op", "1/op", "lower", 0, "sim"},
	{"sim.events_per_sec", "1/s", "higher", 0, "host"},

	{"coherence.read_fault_ns", "ns", "lower", 0, "host"},
	{"coherence.write_inval_ns", "ns", "lower", 0, "host"},
	{"coherence.invalidations_per_op", "1/op", "lower", 0, "sim"},
	{"coherence.false_invals_per_op", "1/op", "lower", 0, "sim"},
	{"coherence.region_splits", "count", "lower", 0, "sim"},

	{"switchasic.tcam_lookup_ns", "ns", "lower", 0, "host"},
	{"switchasic.prune_bitmap_ns", "ns", "lower", 0, "host"},
	{"switchasic.tcam_lookups_per_op", "1/op", "lower", 0, "sim"},
	{"switchasic.multicasts_per_op", "1/op", "lower", 0, "sim"},
	{"switchasic.pruned_copies_per_op", "1/op", "lower", 0, "sim"},
	{"switchasic.recirculations_per_op", "1/op", "lower", 0, "sim"},

	{"fabric.send_ns", "ns", "lower", 0, "host"},
	{"fabric.ic_send_flush_ns", "ns", "lower", 0, "host"},
	{"fabric.ic_flush_empty_ns", "ns", "lower", 0, "host"},
	{"fabric.deliveries_per_op", "1/op", "lower", 0, "sim"},
	{"fabric.cross_rack_msgs_per_op", "1/op", "lower", 0, "sim"},

	{"computeblade.cache_hit_ns", "ns", "lower", 0, "host"},
	{"computeblade.cache_miss_evict_ns", "ns", "lower", 0, "host"},
	{"computeblade.remote_per_access", "1/op", "lower", 0, "sim"},
	{"computeblade.evictions_per_op", "1/op", "lower", 0, "sim"},
	{"computeblade.writebacks_per_op", "1/op", "lower", 0, "sim"},

	{"memblade.read_page_ns", "ns", "lower", 0, "host"},
	{"memblade.write_page_ns", "ns", "lower", 0, "host"},

	{"ctrlplane.token_admit_ns", "ns", "lower", 0, "host"},
	{"ctrlplane.mmap_ns", "ns", "lower", 0, "host"},
	{"ctrlplane.place_pod_ns", "ns", "lower", 0, "host"},
	{"ctrlplane.blade_borrows", "count", "lower", 0, "sim"},
	{"ctrlplane.throttled_frac", "ratio", "lower", 0, "sim"},

	{"stats.hist_observe_ns", "ns", "lower", 0, "host"},
	{"stats.collector_merge_ns", "ns", "lower", 0, "host"},

	{"workloads.gen_next_ns", "ns", "lower", 0, "host"},
	{"workloads.gen_next_gc_ns", "ns", "lower", 0, "host"},
	{"workloads.gen_next_ma_ns", "ns", "lower", 0, "host"},
	{"workloads.arrival_next_ns", "ns", "lower", 0, "host"},

	{"core.thread_hit_ns", "ns", "lower", 0, "host"},
	{"core.barrier_idle_w1_ns", "ns", "lower", 0, "host"},
	{"core.barrier_idle_w2_ns", "ns", "lower", 0, "host"},
	{"core.jump_ns", "ns", "lower", 0, "host"},
	{"core.new_pod_ns", "ns", "lower", 0, "host"},
	{"core.new_cluster_ns", "ns", "lower", 0, "host"},
	{"core.windows_executed", "count", "lower", 0, "sim"},
	{"core.windows_skipped", "count", "higher", 0, "sim"},
	{"core.flushes_elided", "count", "higher", 0, "sim"},
	{"core.events_per_rack_window", "count", "higher", 0, "sim"},
	{"core.par_ratio", "ratio", "higher", 0, "host"},
	{"core.serve_retried_per_op", "1/op", "lower", 0, "sim"},
	{"core.pages_moved", "count", "lower", 0, "sim"},
	{"core.pages_lost", "count", "lower", 0, "sim"},

	{"runner.do_overhead_ns", "ns", "lower", 0, "host"},

	{"lat.pgfault_us", simUs, "lower", 0, "sim"},
	{"lat.network_us", simUs, "lower", 0, "sim"},
	{"lat.inv_queue_us", simUs, "lower", 0, "sim"},
	{"lat.inv_tlb_us", simUs, "lower", 0, "sim"},

	{"fail_frac", "ratio", "lower", 0, "sim"},

	{"host.allocs_per_op", "1/op", "lower", 0, "host"},
	{"host.bytes_per_op", "B/op", "lower", 0, "host"},
	{"host.gc_cycles", "count", "lower", 0, "host"},
	{"host.slowdown", "ratio", "lower", 0, "host"},
	{"host.ops_per_sec_raw", "ops/s", "higher", 0, "host"},
	{"trace.overhead_frac", "ratio", "lower", 0, "host"},

	{"share.sim", "ratio", "lower", 0, "host"},
	{"share.coherence", "ratio", "lower", 0, "host"},
	{"share.switchasic", "ratio", "lower", 0, "host"},
	{"share.fabric", "ratio", "lower", 0, "host"},
	{"share.computeblade", "ratio", "lower", 0, "host"},
	{"share.serve_admit", "ratio", "lower", 0, "host"},
	{"share.workloads", "ratio", "lower", 0, "host"},
	{"share.core_thread", "ratio", "lower", 0, "host"},
	{"share.core_barrier", "ratio", "lower", 0, "host"},
	{"share.unattributed", "ratio", "lower", 0, "host"},
}

// values maps metric name to value for one workload run.
type values map[string]float64

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance check of the spread uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// endToEndSim fills the simulated end-to-end metrics from one rep's
// outputs (they are identical across reps).
func endToEndSim(w workload, o simOut) values {
	v := values{"sim_mops": na, "sim_fault_us": na, "sim_p99_us": na}
	v["ok_frac"] = 1 - float64(o.Refused+o.Requested-o.Ops)/float64(o.Requested)
	if w.kind == sweep {
		return v
	}
	v["sim_mops"] = o.SimMops
	if remote := o.counter(stats.CtrRemoteAccesses); remote > 0 {
		var sum int64
		for _, ns := range o.LatNs {
			sum += ns
		}
		v["sim_fault_us"] = float64(sum) / float64(remote) / 1e3
	}
	if w.kind == serving {
		v["sim_p99_us"] = float64(o.P99Ns) / 1e3
	}
	return v
}

func applies(w workload, metric string) bool {
	switch metric {
	case "sim_mops", "sim_fault_us":
		return w.kind != sweep
	case "sim_p99_us":
		return w.kind == serving
	}
	return true
}

// unitCosts are the layer drivers' results plus what the coherence
// driver observed per fault, which the shares need to avoid counting an
// engine event or a fabric hop twice.
type unitCosts struct {
	ns values // per-layer "*_ns" metrics by name
	// per read fault / per invalidating write in the coherence driver:
	// engine events, fabric deliveries and TCAM lookups.
	readEv, readDeliv, readTCAM    float64
	writeEv, writeDeliv, writeTCAM float64
}

func pos(x float64) float64 { return math.Max(0, x) }

// layerValues computes every per-layer metric of one workload from the
// traced rep (counts, host deltas), the untraced rep run beside it, the
// unit costs and, on pod_mix, the parallel rep's rate over the serial one.
func layerValues(w workload, traced, untraced repResult, u unitCosts, parRatio float64) values {
	v := values{}
	for _, m := range perLayer {
		v[m.Name] = 0
	}
	for k, x := range u.ns {
		v[k] = x
	}
	o := traced.out
	wallNs := traced.wallS * 1e9
	ops := float64(o.Ops)
	perOp := func(n uint64) float64 { return float64(n) / ops }

	v["host.allocs_per_op"] = float64(traced.mallocs) / ops
	v["host.bytes_per_op"] = float64(traced.bytes) / ops
	v["host.gc_cycles"] = float64(traced.gcCycles)
	v["trace.overhead_frac"] = 1 - (ops/traced.wallS)/(float64(untraced.out.Ops)/untraced.wallS)
	v["fail_frac"] = float64(o.Refused+o.Requested-o.Ops) / float64(o.Requested)
	v["core.par_ratio"] = parRatio
	if w.kind == sweep {
		// The panel's runs keep their collectors to themselves: there
		// is no count to attribute host time with.
		v["share.unattributed"] = 1
		return v
	}

	events := float64(o.Events)
	remote := float64(o.counter(stats.CtrRemoteAccesses))
	multicasts := float64(o.counter(stats.CtrMulticasts))
	cross := float64(o.counter(stats.CtrCrossRackMsgs))
	arrivals := float64(o.counter(stats.CtrServeArrivals))

	v["sim.events_per_op"] = events / ops
	v["sim.events_per_sec"] = events / traced.wallS
	v["coherence.invalidations_per_op"] = perOp(o.counter(stats.CtrInvalidations))
	v["coherence.false_invals_per_op"] = perOp(o.counter(stats.CtrFalseInvals))
	v["coherence.region_splits"] = float64(o.counter(stats.CtrSplits))
	v["switchasic.tcam_lookups_per_op"] = perOp(o.TCAMLooks)
	v["switchasic.multicasts_per_op"] = multicasts / ops
	v["switchasic.pruned_copies_per_op"] = perOp(o.Pruned)
	v["switchasic.recirculations_per_op"] = perOp(o.counter(stats.CtrRecirculations))
	v["fabric.deliveries_per_op"] = perOp(o.Deliveries)
	v["fabric.cross_rack_msgs_per_op"] = cross / ops
	v["computeblade.remote_per_access"] = remote / float64(o.Accesses)
	v["computeblade.evictions_per_op"] = perOp(o.counter(stats.CtrEvictions))
	v["computeblade.writebacks_per_op"] = perOp(o.counter(stats.CtrWritebacks))
	v["ctrlplane.blade_borrows"] = float64(o.counter(stats.CtrBladeBorrows))
	if arrivals > 0 {
		v["ctrlplane.throttled_frac"] = float64(o.counter(stats.CtrServeThrottled)) / arrivals
	}
	v["core.windows_executed"] = float64(o.Windows[0])
	v["core.windows_skipped"] = float64(o.Windows[1])
	v["core.flushes_elided"] = float64(o.Windows[2])
	racks := float64(o.Racks)
	if o.Windows[0] > 0 {
		v["core.events_per_rack_window"] = events / (float64(o.Windows[0]) * racks)
	}
	v["core.serve_retried_per_op"] = perOp(o.counter(stats.CtrServeRetried))
	v["core.pages_moved"] = float64(o.PagesMove)
	v["core.pages_lost"] = float64(o.PagesLost)
	if remote > 0 {
		for i, n := range [4]string{"lat.pgfault_us", "lat.network_us", "lat.inv_queue_us", "lat.inv_tlb_us"} {
			v[n] = float64(o.LatNs[i]) / remote / 1e3
		}
	}

	// Shares: count x unit cost / measured-phase wall. Each unit cost
	// is taken net of the engine events, fabric hops and TCAM lookups
	// it contains, because those are counted under their own layer.
	sd := u.ns["sim.schedule_dispatch_ns"]
	hop := pos(u.ns["fabric.send_ns"] - sd)
	icHop := pos(u.ns["fabric.ic_send_flush_ns"] - sd)
	tcam := u.ns["switchasic.tcam_lookup_ns"]
	miss := u.ns["computeblade.cache_miss_evict_ns"]
	readNet := pos(u.ns["coherence.read_fault_ns"] - u.readEv*sd - 2*u.readDeliv*hop - u.readTCAM*tcam - miss)
	writeNet := pos(u.ns["coherence.write_inval_ns"] - u.writeEv*sd - 2*u.writeDeliv*hop - u.writeTCAM*tcam -
		u.ns["switchasic.prune_bitmap_ns"] - miss)
	gen := u.ns["workloads.gen_next_ma_ns"]
	switch w.name {
	case "rack_tf":
		gen = u.ns["workloads.gen_next_ns"]
	case "rack_gc":
		gen = u.ns["workloads.gen_next_gc_ns"]
	case "pod_mix":
		gen = (u.ns["workloads.gen_next_gc_ns"] + u.ns["workloads.gen_next_ma_ns"]) / 2
	}
	share := func(ns float64) float64 { return ns / wallNs }
	v["share.sim"] = share(events * sd)
	v["share.switchasic"] = share(float64(o.TCAMLooks)*tcam + multicasts*u.ns["switchasic.prune_bitmap_ns"])
	v["share.fabric"] = share(2*float64(o.Deliveries)*hop + cross*icHop)
	v["share.coherence"] = share(pos(remote-multicasts)*readNet + multicasts*writeNet)
	v["share.computeblade"] = share(float64(o.counter(stats.CtrLocalHits))*u.ns["computeblade.cache_hit_ns"] + remote*miss)
	v["share.workloads"] = share(float64(o.Accesses)*gen + arrivals*u.ns["workloads.arrival_next_ns"])
	if w.kind == closedLoop {
		v["share.core_thread"] = share(float64(o.Accesses) * pos(u.ns["core.thread_hit_ns"]-u.ns["computeblade.cache_hit_ns"]))
	} else {
		v["share.serve_admit"] = share(arrivals*u.ns["ctrlplane.token_admit_ns"] +
			float64(o.counter(stats.CtrServeCompleted))*u.ns["stats.hist_observe_ns"])
	}
	// One executed window of a sparse pod costs a safe-horizon scan plus
	// a barrier; both drivers time a 32-rack pod, so scale by racks.
	v["share.core_barrier"] = share(float64(o.Windows[0]) * u.ns["core.jump_ns"] * racks / 32)
	sum := 0.0
	for k, x := range v {
		if strings.HasPrefix(k, "share.") && k != "share.unattributed" {
			sum += x
		}
	}
	v["share.unattributed"] = 1 - sum
	return v
}

func fmtValue(x float64) string {
	switch a := math.Abs(x); {
	case x == 0:
		return "0"
	case a >= 1e6 || a < 1e-3:
		return fmt.Sprintf("%.4e", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}
