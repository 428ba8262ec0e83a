package core

import (
	"testing"

	"mind/internal/sim"
)

// TestSparseWindowStats pins the executor's work accounting. Idling a
// pod whose only traffic is the 500 µs promotion epoch ticks leaves
// almost every 1 µs grid window empty: the sparse run must skip most of
// them and elide every quiet boundary's flush, the dense run must skip
// none, and the two must agree on the total grid (executed + skipped)
// — the same virtual span, just fewer barriers.
func TestSparseWindowStats(t *testing.T) {
	mk := func(dense bool) *Pod {
		pod, err := NewPod(PodConfig{
			Racks:        []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024)},
			DenseWindows: dense,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pod
	}
	sparse := mk(false)
	sparse.AdvanceTime(2 * sim.Millisecond)
	sx, ss, sf := sparse.WindowStats()
	if ss == 0 {
		t.Error("sparse idle run skipped no windows")
	}
	if sf == 0 {
		t.Error("sparse idle run elided no flushes")
	}
	dense := mk(true)
	dense.AdvanceTime(2 * sim.Millisecond)
	dx, ds, _ := dense.WindowStats()
	if ds != 0 {
		t.Errorf("dense run skipped %d windows, want 0", ds)
	}
	if sx+ss != dx {
		t.Errorf("sparse grid %d executed + %d skipped != dense %d executed", sx, ss, dx)
	}
	if sx >= dx {
		t.Errorf("sparse executed %d windows, want fewer than dense's %d", sx, dx)
	}
}
