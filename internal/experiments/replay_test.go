package experiments

import (
	"bytes"
	"testing"

	"mind/internal/core"
	"mind/internal/fastswap"
	"mind/internal/gam"
	"mind/internal/stats"
	"mind/internal/trace"
	"mind/internal/workloads"
)

// TestTraceReplayAcrossSystems exercises the paper's methodology (§7):
// one captured access stream replays bit-identically through MIND, GAM
// and FastSwap, so the compared systems see exactly the same accesses.
func TestTraceReplayAcrossSystems(t *testing.T) {
	w := workloads.GC(1)
	const ops = 3000
	params := workloads.Params{Threads: 2, Blades: 1, OpsPerThread: ops, Seed: 77}

	// Capture against a provisional base, through the trace format
	// (Writer, then Read); rebase per system below.
	const capturedBase = 1 << 32
	var captured [][]trace.Record
	for th := 0; th < 2; th++ {
		var buf bytes.Buffer
		tw, err := trace.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		gen := w.Gen(capturedBase, th, params)
		for va, wr, ok := gen(); ok; va, wr, ok = gen() {
			if err := tw.Append(va, wr); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Finish(); err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		captured = append(captured, recs)
	}

	runOn := func(r system) uint64 {
		base, err := r.Alloc(w.Footprint)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < 2; th++ {
			recs := trace.Rebase(captured[th], capturedBase, base)
			if err := r.Spawn(0, trace.Replay(recs)); err != nil {
				t.Fatal(err)
			}
		}
		r.Run()
		return r.Collector().Counter(stats.CtrAccesses)
	}

	cache := cachePagesFor(Tiny, w.Footprint)
	mind, err := newMind(1, 2, cache, core.TSO, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := gam.New(gam.DefaultConfig(1, 2, cache))
	fs := fastswap.New(fastswap.DefaultConfig(2, cache))

	for name, r := range map[string]system{"mind": mind, "gam": g, "fastswap": fs} {
		if got := runOn(r); got != 2*ops {
			t.Errorf("%s replayed %d accesses, want %d", name, got, 2*ops)
		}
	}
}
