package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"mind/internal/runner"
	"mind/internal/sim"
	"mind/internal/stats"
)

// podScheduleCount is how many randomized pod failure storms the suite
// replays serial-vs-parallel. The acceptance bar is 100+; short mode
// (CI's race job) runs a reduced count at a narrower horizon.
const podScheduleCount = 110

func podScheduleConfig(i int, short bool) PodSchedule {
	cfg := PodSchedule{Seed: sim.DeriveSeed(rootSeed, fmt.Sprintf("pod-schedule-%d", i))}
	if short {
		cfg.Horizon = 300 * sim.Microsecond
		cfg.Faults = 2
	}
	// A slice of schedules stresses three racks and denser storms.
	if i%4 == 0 {
		cfg.Racks = 3
	}
	if !short && i%3 == 0 {
		cfg.Faults = 4
	}
	return cfg
}

// podRun is one execution of a schedule beside the serial baseline.
type podRun struct {
	workers int
	dense   bool
}

// podRunsAgree is the determinism contract of the pod executor, stated
// once: cfg runs serially with sparse windows, then once per run, and
// every outcome must equal the serial one — finish time, dispatch
// hashes, merged counters and fault reports. A dense run must skip no
// window; window counts are compared between sparse runs only. It
// returns the serial outcome.
func podRunsAgree(t testing.TB, cfg PodSchedule, runs ...podRun) *PodOutcome {
	t.Helper()
	cfg.Dense = false
	serial, err := RunPodSchedule(cfg, 1)
	if err != nil {
		t.Fatalf("seed %d serial: %v", cfg.Seed, err)
	}
	for _, r := range runs {
		rcfg := cfg
		rcfg.Dense = r.dense
		out, err := RunPodSchedule(rcfg, r.workers)
		if err != nil {
			t.Fatalf("seed %d at %+v: %v", cfg.Seed, r, err)
		}
		if r.dense {
			if out.Windows[1] != 0 {
				t.Fatalf("seed %d at %+v: a dense run skipped %d windows", cfg.Seed, r, out.Windows[1])
			}
			out.Windows = serial.Windows
		}
		if !reflect.DeepEqual(serial, out) {
			t.Fatalf("seed %d diverged from the serial run at %+v:\nserial %+v\nrun    %+v",
				cfg.Seed, r, serial, out)
		}
	}
	return serial
}

// TestRandomPodSchedules replays randomized pod-scale failure storms —
// kills (borrowed blades included), drains and switch failovers under
// closed-loop or robust serving load, at three window widths — each
// executed serially and on a worker pool, and every other schedule
// also with dense windows (sparse-horizon jump and parking disabled),
// through podRunsAgree; on some schedules the last rack carries no
// traffic, so the faults that land there wake a parked rack. Each run
// also satisfies the safety invariants documented on RunPodSchedule.
// The test fails if the drawn mix leaves any dimension unexercised.
func TestRandomPodSchedules(t *testing.T) {
	t.Parallel()
	n := podScheduleCount
	if testing.Short() {
		n = 25
	}
	var kills, drains, switches, errs, quietHits int
	var closed, serving, promotions, returns, throttled, skipped, elided uint64
	windows := map[sim.Duration]int{}
	for i := 0; i < n; i++ {
		cfg := podScheduleConfig(i, testing.Short())
		runs := []podRun{{workers: 2 + i%3}}
		if i%2 == 0 {
			runs = append(runs, podRun{workers: 1 + i%4, dense: true})
		}
		serial := podRunsAgree(t, cfg, runs...)
		mix, _ := drawMix(cfg.Seed)
		windows[mix.window]++
		if mix.closed {
			closed++
		} else {
			serving++
		}
		promotions += serial.Counters[stats.CtrPromotedVMAs]
		returns += serial.Counters[stats.CtrBladeReturns]
		throttled += serial.Counters[stats.CtrServeThrottled]
		skipped += serial.Windows[1]
		elided += serial.Windows[2]
		for _, rec := range serial.Faults {
			if mix.quiet && rec.Rack == max(cfg.Racks, 2)-1 && rec.Done {
				quietHits++
			}
			if rec.Err != "" {
				errs++
				continue
			}
			if !rec.Done {
				continue
			}
			switch rec.Kind {
			case "kill":
				kills++
			case "drain":
				drains++
			case "switch":
				switches++
			}
		}
	}
	// The generator must exercise every fault kind, the error paths and
	// every drawn dimension, or the determinism contract is vacuous.
	if kills == 0 || drains == 0 || switches == 0 || errs == 0 {
		t.Fatalf("storm mix degenerate: kills=%d drains=%d switches=%d errors=%d",
			kills, drains, switches, errs)
	}
	if len(windows) != 3 || closed == 0 || serving == 0 || promotions == 0 || returns == 0 ||
		throttled == 0 || skipped == 0 || elided == 0 || quietHits == 0 {
		t.Fatalf("drawn mix degenerate: window widths %v, closed-loop %d, serving %d, promotions %d, lease returns %d, throttled %d, windows skipped %d, flushes elided %d, faults on a quiet rack %d",
			windows, closed, serving, promotions, returns, throttled, skipped, elided, quietHits)
	}
	t.Logf("%d schedules: %d kills, %d drains, %d switch failovers, %d faulted injections; window widths %v, %d closed-loop, %d serving; %d promotions, %d lease returns, %d throttled, %d windows skipped, %d flushes elided, %d faults on a quiet rack",
		n, kills, drains, switches, errs, windows, closed, serving, promotions, returns, throttled, skipped, elided, quietHits)
}

// TestPodScheduleDeterminism re-runs one closed-loop storm whose
// borrowed vma is promoted home mid-run and requires identical outcomes
// — failing seeds must replay bit-identically — and a different seed
// must actually change the run.
func TestPodScheduleDeterminism(t *testing.T) {
	t.Parallel()
	cfg := podScheduleConfig(19, true)
	a := podRunsAgree(t, cfg, podRun{workers: 1})
	if mix, _ := drawMix(cfg.Seed); !mix.closed || a.Counters[stats.CtrPromotedVMAs] == 0 || a.Counters[stats.CtrBladeReturns] == 0 {
		t.Fatalf("schedule 19 is no closed-loop promotion: mix %+v, counters %v", mix, a.Counters)
	}
	cfg.Seed++
	b, err := RunPodSchedule(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seed produced an identical storm")
	}
}

// FuzzPodSchedule searches the schedule space for a run that breaks
// podRunsAgree or a safety invariant: any seed, in the -short shape, on
// 2-4 racks, run serially and again on 1-8 workers, sparse or dense.
// Everything else is drawn from the seed, as in TestRandomPodSchedules,
// whose first schedules are the seed corpus.
func FuzzPodSchedule(f *testing.F) {
	for i := 0; i < 8; i++ {
		cfg := podScheduleConfig(i, true)
		f.Add(cfg.Seed, uint8(max(cfg.Racks, 2)-2), uint8(2+i%3), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, racks, workers uint8, dense bool) {
		cfg := podScheduleConfig(0, true)
		cfg.Seed, cfg.Racks = seed, 2+int(racks%3)
		podRunsAgree(t, cfg, podRun{workers: 1 + int(workers%8), dense: dense})
	})
}

// TestPodSchedulesRace fans storms across the runner's worker pool —
// whole pods, each itself running a parallel windowed executor,
// simulated concurrently — so the race detector sweeps the failure
// injection and recovery paths the way CI runs them.
func TestPodSchedulesRace(t *testing.T) {
	t.Parallel()
	n := 8
	if testing.Short() {
		n = 4
	}
	specs := make([]runner.Spec, n)
	for i := range specs {
		cfg := podScheduleConfig(2000+i, testing.Short())
		specs[i] = runner.Spec{
			Key: runner.KeyOf("conformance-pod-race", cfg.Seed, cfg.Faults),
			Run: func() (any, error) {
				out, err := RunPodSchedule(cfg, 3)
				if err != nil {
					return nil, err
				}
				return len(out.Faults), nil
			},
		}
	}
	if _, err := runner.Do(specs, runner.Options{Workers: 4, Cache: runner.NewCache()}); err != nil {
		t.Fatal(err)
	}
}
