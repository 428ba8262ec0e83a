// Command tracecap captures workload access traces to files and inspects
// or replays them — the paper's capture-once, replay-everywhere
// methodology (§7) as a tool.
//
//	tracecap -capture TF -thread 0 -threads 10 -ops 100000 -o tf-t0.trc
//	tracecap -inspect tf-t0.trc
//	tracecap -replay tf-t0.trc -blades 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mind/internal/core"
	"mind/internal/mem"
	"mind/internal/stats"
	"mind/internal/trace"
	"mind/internal/workloads"
)

func main() {
	var (
		capture = flag.String("capture", "", "workload to capture (TF, GC, MA, MC, kvs-a, kvs-c)")
		inspect = flag.String("inspect", "", "trace file to summarize")
		replay  = flag.String("replay", "", "trace file to replay on a MIND rack")
		out     = flag.String("o", "trace.trc", "output file for -capture")
		thread  = flag.Int("thread", 0, "thread index to capture")
		threads = flag.Int("threads", 10, "total threads the workload is shaped for")
		blades  = flag.Int("blades", 2, "compute blades (capture shaping and replay)")
		ops     = flag.Int("ops", 100000, "accesses to capture")
		scale   = flag.Int("scale", 1, "workload footprint scale")
		seed    = flag.Uint64("seed", 1, "workload seed")
	)
	flag.Parse()

	var err error
	switch {
	case *capture != "":
		err = doCapture(*capture, *out, *thread, *threads, *blades, *ops, *scale, *seed)
	case *inspect != "":
		err = doInspect(os.Stdout, *inspect)
	case *replay != "":
		err = doReplay(os.Stdout, *replay, *blades)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// captureBase is the provisional base traces are captured against;
// Rebase adjusts at replay time.
const captureBase = mem.VA(1) << 32

func doCapture(name, out string, thread, threads, blades, ops, scale int, seed uint64) error {
	w, err := workloads.ByName(name, scale)
	if err != nil {
		return err
	}
	p := workloads.Params{Threads: threads, Blades: blades, OpsPerThread: ops, Seed: seed}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	// The explicit Close below reports the success-path error; the defer
	// only reclaims the descriptor on early error returns (a second
	// Close of an *os.File just returns ErrClosed).
	defer f.Close()
	tw, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	gen := w.Gen(captureBase, thread, p)
	for {
		va, wr, more := gen()
		if !more {
			break
		}
		if err := tw.Append(va, wr); err != nil {
			return err
		}
	}
	if err := tw.Finish(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("captured %d accesses of %s thread %d -> %s\n", tw.Count(), w.Name, thread, out)
	return nil
}

func doInspect(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.Read(f)
	if err != nil {
		return err
	}
	writes := 0
	pages := map[mem.VA]bool{}
	var lo, hi mem.VA
	for i, r := range recs {
		if r.Write {
			writes++
		}
		pages[mem.PageBase(r.VA)] = true
		if i == 0 || r.VA < lo {
			lo = r.VA
		}
		if r.VA > hi {
			hi = r.VA
		}
	}
	fmt.Fprintf(out, "%s: %d accesses, %.1f%% writes, %d distinct pages, range [%#x, %#x]\n",
		path, len(recs), 100*float64(writes)/float64(max(len(recs), 1)), len(pages),
		uint64(lo), uint64(hi))
	return nil
}

func doReplay(out io.Writer, path string, blades int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("empty trace")
	}
	// Size an area covering the trace's footprint. Traces tracecap
	// captured start at captureBase; any other valid trace may start
	// below it, and then its first page is the base.
	base, hi := captureBase, mem.VA(0)
	for _, r := range recs {
		base, hi = min(base, mem.PageBase(r.VA)), max(hi, r.VA)
	}
	footprint := uint64(hi-base) + mem.PageSize

	cfg := core.DefaultConfig(blades, 4)
	cfg.MemoryBladeCapacity = mem.NextPow2(footprint * 2)
	if cfg.MemoryBladeCapacity < 1<<26 {
		cfg.MemoryBladeCapacity = 1 << 26
	}
	cfg.CachePagesPerBlade = int(footprint / mem.PageSize / 4)
	if cfg.CachePagesPerBlade < 64 {
		cfg.CachePagesPerBlade = 64
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	proc := c.Exec("replay")
	vma, err := proc.Mmap(footprint, mem.PermReadWrite)
	if err != nil {
		return err
	}
	th, err := proc.SpawnThread(0)
	if err != nil {
		return err
	}
	th.Start(trace.Replay(trace.Rebase(recs, base, vma.Base)), nil)
	end := c.RunThreads()
	col := c.Collector()
	fmt.Fprintf(out, "replayed %d accesses in %.3f ms virtual (%.2f MOPS)\n",
		len(recs), end.Sub(0).Seconds()*1e3,
		float64(len(recs))/end.Sub(0).Seconds()/1e6)
	fmt.Fprintf(out, "hits %.2f%%, remote %d, invalidations %d\n",
		100*float64(col.Counter(stats.CtrLocalHits))/float64(col.Counter(stats.CtrAccesses)),
		col.Counter(stats.CtrRemoteAccesses),
		col.Counter(stats.CtrInvalidations))
	return nil
}
