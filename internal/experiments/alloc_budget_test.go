package experiments

import (
	"runtime"
	"testing"

	"mind/internal/core"
	prun "mind/internal/runner"
	"mind/internal/workloads"
)

// mallocsDuring runs spec inline and returns the heap objects the process
// allocated meanwhile. Mallocs is process-wide, so callers must not run
// beside other tests.
func mallocsDuring(t *testing.T, spec prun.Spec) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := spec.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestAllocBudgets holds every run shape to an allocs-per-op ceiling: the
// rack, pod and serving shapes the figures are built from, one run each.
// What is gated is the marginal cost — the same spec at N and 2N ops, the
// Mallocs difference divided by the N ops added (the steadySpecs idiom) —
// so topology construction cancels and only per-op work is left. Budgets
// are the value measured on go1.24 / amd64 plus about half, and never
// above 0.15 except on the one row that says why.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shape twice at Tiny scale")
	}
	// rack is a closed-loop workload on 8 compute blades: on the default
	// (uncapped) directory with 2 memory blades, or on the DirSlots-capped
	// tunedMind rack every figure sweeps.
	rack := func(mk func(scale int) workloads.Workload, threadsPerBlade int, tuned bool) func(Scale) prun.Spec {
		return func(s Scale) prun.Spec {
			kw := kwOne(mk(s.WorkloadScale), s.WorkloadScale)
			cache := cachePagesFor(s, kw.w.Footprint)
			sys := mindDesc(8, 2, cache, core.TSO, nil, "")
			if tuned {
				sys = s.tunedMind(8, cache, core.TSO)
			}
			threads := 8 * threadsPerBlade
			return workRunSpec(sys, kw, threads, 8, opsPerThread(s, threads), s.seed())
		}
	}
	pod := func(migrate bool) func(Scale) prun.Spec {
		return func(s Scale) prun.Spec { return figPodConfig(s).spec(migrate, 0) }
	}
	serve := func(s Scale) prun.Spec { return figServeConfig(s).spec(8, true) }
	servePod := func(s Scale) prun.Spec { return figServePodConfig(s).spec(4) }
	serveKill := func(s Scale) prun.Spec { return figServeKillConfig(s).spec() }
	rows := []struct {
		name   string
		spec   func(Scale) prun.Spec
		budget float64 // allocs per op; the measured value is beside each row
		// whole gates Mallocs(N)/N, construction included, for a shape
		// whose cost is not linear in N.
		whole bool
	}{
		{"TF 8x1", rack(workloads.TF, 1, false), 0.006, false}, // 0.0042
		{"GC 8x4", rack(workloads.GC, 4, false), 0.004, false}, // 0.0026
		{"figpod migrate", pod(true), 0.085, false},            // 0.055
		{"figpod no-migrate", pod(false), 0.15, false},         // 0.097
		{"figserve 8x qos", serve, 0.005, false},               // 0.0031
		{"figservepod 4 racks", servePod, 0.0095, false},       // 0.0063
		// The storm's timing scales with the horizon, so 2N is a different
		// storm, not N more ops of the same one.
		{"figservekill", serveKill, 0.08, true}, // 0.054
		// The capped directory is what every figure runs, and it allocates
		// per op: Directory.createRegion -> emergencyMerge -> mergeStates
		// -> bitset.(*Set).CopyFrom materialises a union bitmap per
		// candidate buddy pair on every full-directory walk (most of the
		// objects), and the slots-exhausted path builds an fmt.Errorf
		// (most of the rest). The ceiling only stops it growing; bringing
		// it down is a perf change of its own.
		{"GC 8x4 tunedMind", rack(workloads.GC, 4, true), 2.0, false}, // 1.51
	}
	s := Tiny
	s.RootSeed = 42 // seed() must not move with TotalOps
	s2 := s
	s2.TotalOps = 2 * s.TotalOps
	n := float64(s.TotalOps)
	for _, r := range rows {
		perOp := mallocsDuring(t, r.spec(s)) / n
		if !r.whole {
			perOp = mallocsDuring(t, r.spec(s2))/n - perOp
		}
		t.Logf("%-20s %.4f allocs/op (budget %v)", r.name, perOp, r.budget)
		if perOp > r.budget {
			t.Errorf("%s: %.4f allocs/op, budget %v", r.name, perOp, r.budget)
		}
	}
}
