package gam

import (
	"fmt"
	"runtime"
	"testing"

	"mind/internal/mem"
	"mind/internal/workloads"
)

// TestGAMDispatchPinned pins the (time, seq) dispatch sequence of the
// baseline on three paper workloads: finish time, events executed and
// the engine's dispatch hash. The values were read before the protocol
// path moved onto pooled request contexts, so any reordering of an
// engine call (Schedule*/At*/Reserve) by a later change shows up here
// before it shows up as a figure bit.
func TestGAMDispatchPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Workload generators draw floats; another GOARCH may round
		// differently (the same reason TestDumpAllPanels skips).
		t.Skipf("pinned on amd64, this is %s", runtime.GOARCH)
	}
	const (
		blades  = 8
		threads = 32
	)
	for _, tc := range []struct {
		w        workloads.Workload
		end      int64
		executed uint64
		hash     string
	}{
		{workloads.GC(1), 77035020, 290684, "d9026ceaa6f3b512"},
		{workloads.MemcachedA(1), 76768156, 558635, "c957d37f2c887831"},
		{workloads.TF(1), 5541901, 70034, "86ed4d584f3f5a39"},
	} {
		t.Run(tc.w.Name, func(t *testing.T) {
			c := New(DefaultConfig(blades, 8, int(tc.w.Footprint/mem.PageSize/4)))
			c.Engine().EnableDispatchHash()
			base, _ := c.Alloc(tc.w.Footprint)
			p := workloads.Params{Threads: threads, Blades: blades, OpsPerThread: 2500, Seed: 1021}
			for i := 0; i < threads; i++ {
				if err := c.Spawn(i%blades, tc.w.Gen(base, i, p)); err != nil {
					t.Fatal(err)
				}
			}
			end := c.Run()
			got := fmt.Sprintf("%d / %d / %016x", int64(end), c.Engine().Executed, c.Engine().DispatchHash())
			want := fmt.Sprintf("%d / %d / %s", tc.end, tc.executed, tc.hash)
			if got != want {
				t.Errorf("end / executed / dispatch hash = %s, want %s", got, want)
			}
		})
	}
}
