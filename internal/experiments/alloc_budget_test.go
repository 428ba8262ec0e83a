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
	// rack is a closed-loop workload on 8 compute blades of the system sys
	// builds for the workload's cache size.
	rack := func(mk func(scale int) workloads.Workload, threadsPerBlade int, sys func(s Scale, cache int) sysDesc) func(Scale) prun.Spec {
		return func(s Scale) prun.Spec {
			kw := kwOne(mk(s.WorkloadScale), s.WorkloadScale)
			cache := cachePagesFor(s, kw.w.Footprint)
			threads := 8 * threadsPerBlade
			return workRunSpec(sys(s, cache), kw, threads, 8, opsPerThread(s, threads), s.seed())
		}
	}
	// The systems: MIND on the default (uncapped) directory with 2 memory
	// blades, the DirSlots-capped tunedMind rack every figure sweeps, and
	// the GAM baseline it is compared against.
	mind := func(_ Scale, cache int) sysDesc { return mindDesc(8, 2, cache, core.TSO, nil, "") }
	tuned := func(s Scale, cache int) sysDesc { return s.tunedMind(8, cache, core.TSO) }
	gam := func(_ Scale, cache int) sysDesc { return gamDesc(8, 8, cache) }
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
		{"TF 8x1", rack(workloads.TF, 1, mind), 0.006, false}, // 0.0042
		{"GC 8x4", rack(workloads.GC, 4, mind), 0.004, false}, // 0.0026
		{"figpod migrate", pod(true), 0.085, false},           // 0.055
		{"figpod no-migrate", pod(false), 0.15, false},        // 0.097
		{"figserve 8x qos", serve, 0.005, false},              // 0.0031
		{"figservepod 4 racks", servePod, 0.0095, false},      // 0.0063
		// The storm's timing scales with the horizon, so 2N is a different
		// storm, not N more ops of the same one.
		{"figservekill", serveKill, 0.08, true}, // 0.054
		// The capped directory is what every figure runs. On this rack 8.8 %
		// of the accesses find the directory full with nothing mergeable and
		// are answered Completion{Err}, and each such answer rides a closure
		// through SendFromSwitch — most of this row; the splitter's epoch
		// merges are the rest. Testing mergeability and reporting the
		// failure allocate nothing.
		{"GC 8x4 tunedMind", rack(workloads.GC, 4, tuned), 0.17, false}, // 0.104
		// The baseline every figure runs beside MIND.
		{"GAM 8x4 GC", rack(workloads.GC, 4, gam), 0.02, false}, // 0.009
		{"GAM 8x4 TF", rack(workloads.TF, 4, gam), 0.05, false}, // 0.032
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
