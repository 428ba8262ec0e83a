// Command benchmark is the one benchmark of the simulator: seven named
// workloads, host-time and simulated-time end-to-end metrics, and a
// traced run that attributes host time to layers. README.md in this
// directory describes the workloads, the metrics and how to compare two
// commits; BENCHMARK.json at the repository root declares the same
// names for the driver.
//
//	go run ./benchmark -workload rack_gc              # end-to-end metrics
//	go run ./benchmark -workload rack_gc -trace 1     # per-layer metrics
//	go run ./benchmark -workload all -out set.jsonl   # a full set, one record per line
//	go run ./benchmark -compare a.jsonl b.jsonl       # verdict per workload x metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. ops_per_sec and setup_s are
// corrected for the host's speed during the run (yardstick.go).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	// scale multiplies the frozen op counts. main always sets 1: a run
	// at another size is not a measurement. bench_test.go sets 0.01.
	scale      float64
	trace      bool
	traceFile  string
	cpuProfile string
	out        string
}

// minReps is the fewest fresh reps a rate is taken over. Set-up is
// sampled at least setupSamples times, and on until the samples add up
// to setupBudgetS or there are maxSetupSamples.
const (
	minReps         = 3
	setupSamples    = 15
	maxSetupSamples = 200
	setupBudgetS    = 0.3
)

// parWorkers is the executor width of pod_mix's parallel rep in the
// traced run: the load is generated from one process with at most
// min(2, nproc) OS threads.
func parWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// params returns what a rep is built from: one executor worker.
func params(o options) runParams {
	return runParams{seed: o.seed, scale: o.scale, workers: 1}
}

// repResult is one fresh rep: set-up, measured phase, collection.
type repResult struct {
	setupS   float64
	wallS    float64
	rssMiB   float64 // VmHWM at the end of the rep, from a reset at its start
	out      simOut
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
}

func (r repResult) opsPerSec() float64 { return float64(r.out.Ops) / r.wallS }

// coldHeap puts the Go heap in the state a new process has: the previous
// rep's garbage collected and every free page returned to the OS. A rep
// then pays for its memory the way a user's run does, and set-up times
// stop depending on whether the allocator happened to have warm pages.
func coldHeap() { debug.FreeOSMemory() }

// runRep builds the workload from nothing, runs its measured phase and
// reads its outputs. Modelled caches start empty, so warm-up is inside
// the measured phase: users pay it on every run.
func runRep(w workload, p runParams, tr *tracer, y *yardstick) (repResult, error) {
	coldHeap()
	if err := resetPeakRSS(); err != nil {
		return repResult{}, err
	}
	var r repResult
	rep := tr.begin("rep", "benchmark")
	t0 := time.Now()
	inst, err := w.setup(p, tr)
	r.setupS = time.Since(t0).Seconds()
	if err != nil {
		return r, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	y.sample()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	measured := tr.begin("measured", "benchmark")
	t1 := time.Now()
	err = inst.run()
	r.wallS = time.Since(t1).Seconds()
	tr.end(measured, 0)
	runtime.ReadMemStats(&after)
	y.sample()
	if err != nil {
		return r, fmt.Errorf("%s measured phase: %w", w.name, err)
	}
	r.mallocs = after.Mallocs - before.Mallocs
	r.bytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	collect := tr.begin("collect", "benchmark")
	r.out, err = inst.collect()
	tr.end(collect, 1)
	if tr != nil {
		tr.spans[measured].Calls = r.out.Ops
	}
	tr.end(rep, 1)
	if err != nil {
		return r, fmt.Errorf("%s check: %w", w.name, err)
	}
	if r.out.Ops != r.out.Requested {
		return r, fmt.Errorf("%s check: %d ops finished, %d requested", w.name, r.out.Ops, r.out.Requested)
	}
	r.rssMiB, err = peakRSSMiB()
	return r, err
}

// sameDigest fails with both sides printed when two reps that must be
// the same simulation are not.
func sameDigest(what string, a, b simOut) error {
	if a.digest() == b.digest() {
		return nil
	}
	return fmt.Errorf("%s: simulated outputs differ\n  one side: %+v\n  other:    %+v", what, a, b)
}

// record is one invocation's result. The last stdout line carries only
// correct, attempted, failed and metrics; -out appends the whole record.
type record struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	GoVersion string `json:"go_version"`
	CPUs      int    `json:"cpus"`
	Reps      int    `json:"reps"`
	Digest    string `json:"digest"`
	// HostSlowdown is the yardstick's reading (1 = nominal host): the
	// end-to-end ops_per_sec was multiplied and setup_s divided by it.
	HostSlowdown float64 `json:"host_slowdown"`
	// P99Samples is how many sojourn times sim_p99_us was read from.
	P99Samples uint64               `json:"p99_samples,omitempty"`
	Correct    bool                 `json:"correct"`
	Attempted  uint64               `json:"attempted"`
	Failed     uint64               `json:"failed"`
	Metrics    map[string]metricOut `json:"metrics"`
	// Timed says, for each timed metric, what samples it was taken from.
	Timed map[string]sampleInfo `json:"timed,omitempty"`
}

// sampleInfo states the samples behind a reported timing.
type sampleInfo struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func infoOf(xs []float64) sampleInfo {
	lo, hi := minMax(xs)
	return sampleInfo{len(xs), lo, median(xs), hi}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// count adds one finished rep to the result's attempted and failed.
// failed is what the simulator was asked to simulate and did not carry to
// a terminal outcome; runRep turns any such op into an error, so a result
// that is printed has none. A request the modelled system throttles,
// sheds or times out is simulated correctly and is not a failure of the
// program under test: its share is ok_frac (fail_frac in the traced run),
// which is fixed by the seed, where a count summed over however many reps
// the host fitted into -seconds is not.
func (r *record) count(o simOut) {
	r.Attempted += o.Requested
	r.Failed += o.Requested - o.Ops
}

func newRecord(w workload, o options) record {
	return record{
		Workload: w.name, Seed: o.seed, Trace: o.trace,
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
		Metrics: map[string]metricOut{}, Timed: map[string]sampleInfo{},
	}
}

// measureEndToEnd is the untraced run: fresh reps until -seconds of
// measured phase are spent (at least minReps). ops_per_sec is the median
// rep's rate and setup_s the median set-up, both corrected by the
// yardstick's reading of the host's speed over the run.
func measureEndToEnd(w workload, o options) (record, error) {
	rec := newRecord(w, o)
	y, err := newYardstick()
	if err != nil {
		return rec, err
	}
	defer y.close()
	p := params(o)
	var ref *simOut
	var walls, rates, setups, peaks []float64
	spent := 0.0
	for len(walls) < minReps || spent+median(walls) <= o.seconds {
		r, err := runRep(w, p, nil, y)
		if err != nil {
			return rec, err
		}
		if ref == nil {
			ref = &r.out
		} else if err := sameDigest(fmt.Sprintf("%s rep %d", w.name, len(walls)), *ref, r.out); err != nil {
			return rec, err
		}
		walls = append(walls, r.wallS)
		rates = append(rates, r.opsPerSec())
		setups = append(setups, r.setupS)
		peaks = append(peaks, r.rssMiB-yardstickMiB) // the yardstick's table is the benchmark's, not the workload's
		spent += r.wallS
		rec.count(r.out)
	}
	// Set-up is short next to a rep (well under a millisecond on the
	// one-rack workloads), so it is sampled again until the samples add
	// up to something a timer resolves.
	total := 0.0
	for _, s := range setups {
		total += s
	}
	for len(setups) < setupSamples || (total < setupBudgetS && len(setups) < maxSetupSamples) {
		coldHeap()
		t0 := time.Now()
		if _, err := w.setup(p, nil); err != nil {
			return rec, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	y.sample()

	rec.Reps = len(walls)
	rec.Digest = ref.digest()
	rec.P99Samples = ref.P99Count
	rec.HostSlowdown = y.slowdown()
	rec.Correct = true
	v := endToEndSim(w, *ref)
	v["setup_s"] = median(setups) / rec.HostSlowdown
	v["ops_per_sec"] = median(rates) * rec.HostSlowdown
	v["peak_rss_mb"] = median(peaks)
	for _, m := range endToEnd {
		rec.Metrics[m.Name] = metricOut{v[m.Name], m.Unit}
	}
	rec.Timed["setup_s"] = infoOf(setups)
	rec.Timed["ops_per_sec"] = infoOf(rates)
	rec.Timed["peak_rss_mb"] = infoOf(peaks)
	return rec, nil
}

// measureLayers is the traced run: untraced and traced reps alternate
// until -seconds are spent (at least one pair), then every layer driver
// runs. Counts come from the traced rep, trace.overhead_frac from the
// two median rates. A parRatio workload gets a third rep per round, on
// parWorkers() executor workers: it must be the serial simulation bit
// for bit, and core.par_ratio is its median rate over the serial one.
// Nothing here is corrected by the yardstick: unit costs, rates and
// shares are what the host gave, and host.slowdown says what kind of
// minute it was.
func measureLayers(w workload, o options) (record, *tracer, error) {
	rec := newRecord(w, o)
	tr := newTracer(w.name)
	y, err := newYardstick()
	if err != nil {
		return rec, tr, err
	}
	defer y.close()
	p := params(o)
	traced, par := p, p
	traced.tap = true
	par.workers = parWorkers()
	var first [2]repResult // the first untraced and traced rep: the counts are read from these
	var plainRates, tracedRates, parRates []float64
	spent := 0.0
	for n := 0; n == 0 || spent*(1+1/float64(n)) <= o.seconds; n++ {
		u, err := runRep(w, p, nil, y)
		if err != nil {
			return rec, tr, err
		}
		if w.parRatio {
			r, err := runRep(w, par, nil, y)
			if err != nil {
				return rec, tr, err
			}
			if err := sameDigest(fmt.Sprintf("%s on %d workers against 1", w.name, par.workers), u.out, r.out); err != nil {
				return rec, tr, err
			}
			parRates = append(parRates, r.opsPerSec())
			spent += r.wallS
			rec.count(r.out)
		}
		stop := startProfile(o.cpuProfile, n == 0)
		t, err := runRep(w, traced, tr, y)
		stop()
		if err != nil {
			return rec, tr, err
		}
		if err := sameDigest(w.name+" traced against untraced rep", u.out, t.out); err != nil {
			return rec, tr, err
		}
		if n == 0 {
			first = [2]repResult{u, t}
		}
		plainRates, tracedRates = append(plainRates, u.opsPerSec()), append(tracedRates, t.opsPerSec())
		spent += u.wallS + t.wallS
		rec.count(u.out)
		rec.count(t.out)
	}
	parRatio := 0.0
	if w.parRatio {
		parRatio = median(parRates) / median(plainRates)
	}
	costs, err := runLayerDrivers(o.seed, o.scale < 1, tr)
	if err != nil {
		return rec, tr, err
	}
	// Counts from the first traced rep; rates over all of them.
	u, t := first[0], first[1]
	t.wallS, u.wallS = float64(t.out.Ops)/median(tracedRates), float64(u.out.Ops)/median(plainRates)
	v := layerValues(w, t, u, costs, parRatio)
	rec.HostSlowdown = y.slowdown()
	v["host.slowdown"] = rec.HostSlowdown
	v["host.ops_per_sec_raw"] = median(plainRates)
	rec.Reps = len(plainRates)
	rec.Digest = u.out.digest()
	rec.Correct = true
	for _, m := range perLayer {
		rec.Metrics[m.Name] = metricOut{v[m.Name], m.Unit}
	}
	return rec, tr, nil
}

// startProfile starts a CPU profile at path when on and path is set; the
// returned func stops it. A profile that cannot start is reported and
// the run goes on without it.
func startProfile(path string, on bool) func() {
	if path == "" || !on {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: cpuprofile:", err)
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: cpuprofile:", err)
		f.Close()
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: cpuprofile:", err)
		}
	}
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak_rss_mb: no VmHWM line in /proc/self/status")
}

// resetPeakRSS starts a new VmHWM measurement, so that every rep has a
// peak of its own. The process-wide peak is set by the one rep in which
// the garbage collector ran latest: on panel_sweep it moved by 23 % from
// run to run.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("peak_rss_mb: cannot reset VmHWM: %w", err)
	}
	return nil
}

func printRecord(rec record, defs []metricDef, w workload) {
	fmt.Printf("workload %s  seed %d  reps %d  digest %s  %s  cpus %d  host slowdown %.3f\n",
		rec.Workload, rec.Seed, rec.Reps, rec.Digest, rec.GoVersion, rec.CPUs, rec.HostSlowdown)
	for _, m := range defs {
		val := fmtValue(rec.Metrics[m.Name].Value)
		if !rec.Trace && !applies(w, m.Name) {
			val = "n/a"
		}
		line := fmt.Sprintf("  %-34s %14s %-7s %-5s %s is better", m.Name, val, m.Unit, m.Clock, m.Better)
		if t, ok := rec.Timed[m.Name]; ok {
			if m.Name != "peak_rss_mb" {
				line += "  uncorrected:"
			}
			line += fmt.Sprintf(" %d samples, min %s, median %s, max %s", t.N, fmtValue(t.Min), fmtValue(t.Median), fmtValue(t.Max))
		}
		if m.Name == "sim_p99_us" && rec.P99Samples > 0 {
			line += fmt.Sprintf("  over %d sojourn samples", rec.P99Samples)
		}
		fmt.Println(line)
	}
}

// appendRecord adds the record as one line to path.
func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload runs one workload as the options say, prints its table and
// returns its record.
func runWorkload(w workload, o options) (record, error) {
	if !o.trace {
		rec, err := measureEndToEnd(w, o)
		if err != nil {
			return rec, err
		}
		printRecord(rec, endToEnd, w)
		return rec, nil
	}
	rec, tr, err := measureLayers(w, o)
	if err != nil {
		return rec, err
	}
	printRecord(rec, perLayer, w)
	path := o.traceFile
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	if err := tr.write(path); err != nil {
		return rec, err
	}
	fmt.Printf("  %d spans written to %s\n", len(tr.spans), path)
	return rec, nil
}

func run(o options) error {
	// One process, at most min(2, nproc) OS threads running Go code.
	runtime.GOMAXPROCS(parWorkers())
	var ws []workload
	if o.workload == "all" {
		ws = allWorkloads
	} else if w, ok := findWorkload(o.workload); ok {
		ws = []workload{w}
	} else {
		names := make([]string, len(allWorkloads))
		for i, w := range allWorkloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (want all or one of %s)", o.workload, strings.Join(names, ", "))
	}
	var last record
	for _, w := range ws {
		rec, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				return fmt.Errorf("-out: %w", err)
			}
		}
		last = rec
	}
	final, err := finalLine(last)
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

// finalLine is the result object the driver reads from the last line of
// standard output: exactly correct, attempted, failed and metrics.
func finalLine(rec record) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
}

func main() {
	o := options{scale: 1}
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1021, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured-phase budget: fresh reps run until it is spent (at least 3)")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, printing the per-layer metrics; 0: the end-to-end metrics")
	flag.StringVar(&o.traceFile, "tracefile", "", "where the traced run writes its spans (default .bench_build/trace-<workload>.json)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the first traced rep to this file")
	flag.StringVar(&o.out, "out", "", "append each workload's full record to this file, one JSON object per line")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files written with -out")
			os.Exit(2)
		}
		bad, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if bad {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
