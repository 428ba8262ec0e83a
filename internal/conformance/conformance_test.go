package conformance

import (
	"fmt"
	"testing"

	"mind/internal/runner"
	"mind/internal/sim"
)

// scheduleCount is how many randomized membership-change schedules the
// suite replays. The acceptance bar is 200+ under -race; short mode runs
// the same count with fewer ops each.
const scheduleCount = 220

// rootSeed pins the whole suite; every schedule derives from it.
const rootSeed = 20211026 // SOSP'21

func scheduleConfig(i int, short bool) Config {
	cfg := Config{Seed: sim.DeriveSeed(rootSeed, fmt.Sprintf("schedule-%d", i)), Ops: 260}
	if short {
		cfg.Ops = 120
	}
	return cfg
}

// TestRandomMembershipSchedules replays scheduleCount randomized
// add/drain/kill schedules interleaved with foreground reads and writes,
// asserting the safety invariants documented on the package.
func TestRandomMembershipSchedules(t *testing.T) {
	t.Parallel()
	var adds, drains, kills int
	blades, pages, slots := map[int]int{}, map[int]int{}, map[int]int{}
	var tiny, quiet, sharedDepartures int
	for i := 0; i < scheduleCount; i++ {
		cfg := scheduleConfig(i, testing.Short())
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
		adds += res.Adds
		drains += res.Drains
		kills += res.Kills
		s := drawShape(cfg.Seed)
		blades[s.computeBlades]++
		pages[s.areaPages]++
		slots[s.slots]++
		if s.cachePages == 4 {
			tiny++
		}
		if s.events == 0 {
			quiet++
		}
		if s.slots > 1 && res.Drains+res.Kills > 0 {
			sharedDepartures++
		}
	}
	// The generator must actually exercise every event type and shape
	// across the suite, or the invariants are vacuous.
	if adds == 0 || drains == 0 || kills == 0 {
		t.Fatalf("schedule mix degenerate: adds=%d drains=%d kills=%d", adds, drains, kills)
	}
	if len(blades) != 3 || len(pages) != 3 || len(slots) != 3 || tiny == 0 || quiet == 0 || sharedDepartures == 0 {
		t.Fatalf("drawn shapes degenerate: compute blades %v, pages per vma %v, slots per page %v, %d tiny caches, %d without events, %d false-sharing schedules with a departure",
			blades, pages, slots, tiny, quiet, sharedDepartures)
	}
	t.Logf("%d schedules: %d adds, %d drains, %d kills; compute blades %v, pages per vma %v, slots per page %v, %d tiny caches, %d without events, %d false-sharing schedules with a departure",
		scheduleCount, adds, drains, kills, blades, pages, slots, tiny, quiet, sharedDepartures)
}

// TestScheduleDeterminism re-runs one schedule and requires identical
// Results — failing seeds must replay bit-identically.
func TestScheduleDeterminism(t *testing.T) {
	t.Parallel()
	cfg := scheduleConfig(7, true)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
	cfg.Seed++
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatalf("different seed produced identical result %+v", a)
	}
}

// FuzzMembershipSchedule searches the schedule space for a run that
// breaks a safety invariant: one input is one seed, run with the -short
// op count, from which everything else is drawn as in
// TestRandomMembershipSchedules, whose first schedules are the seed
// corpus.
func FuzzMembershipSchedule(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(scheduleConfig(i, true).Seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := scheduleConfig(0, true)
		cfg.Seed = seed
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDrainUnderLoadRace fans schedules across the runner's worker
// pool — simulations running concurrently in multiple goroutines — so
// the race detector sweeps the elasticity paths
// (migration interleaved with foreground accesses) the way CI runs them.
func TestDrainUnderLoadRace(t *testing.T) {
	t.Parallel()
	n := 16
	if testing.Short() {
		n = 8
	}
	specs := make([]runner.Spec, n)
	for i := range specs {
		cfg := scheduleConfig(1000+i, testing.Short())
		specs[i] = runner.Spec{
			Key: runner.KeyOf("conformance-race", cfg.Seed, cfg.Ops),
			Run: func() (any, error) {
				res, err := Run(cfg)
				return res, err
			},
		}
	}
	results, err := runner.Do(specs, runner.Options{Workers: 4, Cache: runner.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	sawDrain := false
	for _, r := range results {
		if r.(Result).Drains > 0 {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatal("no schedule drained a blade; race sweep is vacuous")
	}
}
