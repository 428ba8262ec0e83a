package conformance

// Pod-scale conformance: randomized failure storms — blade kills
// (including borrowed, cross-rack blades), live drains and switch
// failovers at random times on random racks, some deliberately invalid
// — landing in a multi-rack pod that is serving open-loop traffic with
// the request-robustness layer armed (deadlines, bounded retries,
// brownout shedding).
//
// Each schedule is run twice, serially (one worker) and on a worker
// pool, and the two executions must be bit-identical: same finish
// time, same per-engine dispatch-trace hash, byte-identical merged
// statistics, and the same fault outcome for every injected failure —
// same error string, same blackout window, same pages lost. On top of
// the determinism half, every run must satisfy the safety invariants
// regardless of worker count:
//
//   - request conservation: every arrival meets exactly one terminal
//     fate (completed, throttled, dropped, shed, timed out or failed);
//   - departure hygiene: a blade whose kill or drain completed is
//     retired, holds zero pages, and recovery ran (kills==recoveries);
//   - failure injection is total: an invalid victim reports an error
//     through its callback, it never panics or wedges the pod.
//
// A schedule is a pure function of its seed; any failing seed replays
// bit-identically at any worker count.

import (
	"fmt"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// PodSchedule parameterizes one randomized pod failure storm.
type PodSchedule struct {
	Seed    uint64
	Racks   int          // default 2
	Horizon sim.Duration // serving horizon (default 400us)
	Faults  int          // failure injections (default 3)
	// Dense disables the executor's sparse-horizon jump (every grid
	// barrier visited). The storm suite sweeps it: dense and sparse
	// executions of the same seed must be bit-identical, fault timelines
	// included. Dense does not feed the schedule RNG, so toggling it
	// drives the identical storm.
	Dense bool
}

func (c *PodSchedule) defaults() {
	if c.Racks == 0 {
		c.Racks = 2
	}
	if c.Horizon == 0 {
		c.Horizon = 400 * sim.Microsecond
	}
	if c.Faults == 0 {
		c.Faults = 3
	}
}

// FaultRecord is one injected fault's outcome. Comparable: serial and
// parallel runs of a schedule must produce identical records.
type FaultRecord struct {
	Kind  string // "kill", "drain", "switch"
	Rack  int
	Blade int // -1 for switch failovers
	At    sim.Time

	Done       bool // callback fired before the horizon
	Err        string
	Start, End sim.Time
	PagesLost  int
	PagesMoved int
}

// PodOutcome is everything a schedule produces that must be invariant
// across worker counts.
type PodOutcome struct {
	End      sim.Time
	Hashes   []uint64
	Counters map[string]uint64
	Faults   []FaultRecord
}

// schedGap is the open-loop arrival process: gaps are a pure function
// of the (seed, tag) RNG stream, so every worker count replays the
// identical arrival sequence.
type schedGap struct {
	rng  *sim.RNG
	mean sim.Duration
}

func (g *schedGap) Next(now sim.Time) sim.Duration {
	return sim.Duration(1 + g.rng.Uint64n(uint64(2*g.mean)))
}

// schedOps walks a vma round-robin, writing every fourth op.
func schedOps(base mem.VA, pages uint64) func() (mem.VA, bool) {
	i := uint64(0)
	return func() (mem.VA, bool) {
		pg := i % pages
		wr := i%4 == 0
		i++
		return base + mem.VA(pg*mem.PageSize), wr
	}
}

// RunPodSchedule executes one randomized pod failure storm on the given
// worker count and returns its outcome, or the first invariant
// violation. The schedule (tenants, fault kinds, victims, times) is
// derived entirely from cfg.Seed before the run starts, so two calls
// with different worker counts drive the identical storm.
func RunPodSchedule(cfg PodSchedule, workers int) (*PodOutcome, error) {
	cfg.defaults()
	rng := sim.NewRNG(cfg.Seed, "pod-schedule")

	// Pod shape: every rack two compute blades; rack 0 is memory-poor on
	// half the schedules (one local blade), so its spanning tenant lands
	// on a borrowed blade and kills exercise the cross-rack split. From
	// three racks up rack 1 is memory-poor on the same coin, so two
	// borrowers can lose their leases inside the same window; the last
	// rack then carries a third blade, to lend twice and still host its
	// own tenant.
	borrow := rng.Bool(0.5)
	borrowers := 1
	if cfg.Racks >= 3 {
		borrowers = 2
	}
	cfgs := make([]core.Config, cfg.Racks)
	for i := range cfgs {
		blades := 2
		switch {
		case borrow && i < borrowers:
			blades = 1
		case borrow && borrowers == 2 && i == cfg.Racks-1:
			blades = 3
		}
		rc := core.DefaultConfig(2, blades)
		rc.MemoryBladeCapacity = 1024 * mem.PageSize
		rc.CachePagesPerBlade = 64
		rc.Seed = cfg.Seed
		cfgs[i] = rc
	}
	pod, err := core.NewPod(core.PodConfig{Racks: cfgs, Workers: workers, DenseWindows: cfg.Dense})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Racks; i++ {
		pod.Rack(i).Engine().EnableDispatchHash()
	}

	s, err := core.NewPodServing(pod, core.ServeConfig{
		Horizon:      cfg.Horizon,
		Deadline:     sim.Duration(20+rng.Intn(40)) * sim.Microsecond,
		MaxRetries:   rng.Intn(3),
		RetryBackoff: 2 * sim.Microsecond,
		Brownout:     float64(rng.Intn(5)) / 10,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	addTenant := func(name string, rack, pages int) error {
		p := pod.Rack(rack).Exec(name)
		vma, err := p.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			return err
		}
		return s.AddTenant(core.TenantWorkload{
			Name:  name,
			Proc:  p,
			Blade: rng.Intn(2),
			Arrival: &schedGap{
				rng:  sim.NewRNG(cfg.Seed, "pod-schedule/arrive/"+name),
				mean: sim.Duration(3+rng.Intn(5)) * sim.Microsecond,
			},
			NextOp: schedOps(vma.Base, uint64(pages)),
		})
	}
	for r := 0; borrow && r < borrowers; r++ {
		// Fill the rack's only local blade, then map its spanning tenant:
		// the pow2-rounded need goes cross-rack on a lease.
		if _, err := pod.Rack(r).Exec("filler").Mmap(900*mem.PageSize, mem.PermReadWrite); err != nil {
			return nil, err
		}
		span := "span"
		if r > 0 {
			span = fmt.Sprintf("span%d", r)
		}
		if err := addTenant(span, r, 400); err != nil {
			return nil, err
		}
		if pod.Rack(r).BorrowedBlades() == 0 {
			return nil, fmt.Errorf("seed %d: rack %d did not borrow", cfg.Seed, r)
		}
	}
	for r := 0; r < cfg.Racks; r++ {
		if err := addTenant(fmt.Sprintf("t%d", r), r, 64); err != nil {
			return nil, err
		}
	}

	// The storm: fault f lands on rack (f+off)%racks, so consecutive
	// faults hit different racks. One fault in four keeps its
	// predecessor's instant: different racks then recover inside the same
	// window, and a run of kept instants brings faults back onto a rack
	// whose recovery is still in flight. Victim blades are drawn from
	// [0, count] — the one-past-the-end id is deliberately invalid, and
	// re-draws of an already-killed blade happen naturally — so the error
	// paths stay under the same determinism contract as the happy paths.
	recs := make([]FaultRecord, cfg.Faults)
	off := rng.Intn(cfg.Racks)
	at := pod.Now().Add(30 * sim.Microsecond)
	for f := 0; f < cfg.Faults; f++ {
		rack := (f + off) % cfg.Racks
		rec := &recs[f]
		rec.Rack = rack
		rec.At = at
		switch rng.Intn(3) {
		case 0:
			rec.Kind = "kill"
			rec.Blade = rng.Intn(pod.Rack(rack).MemBladeCount() + 1)
			err = pod.KillMemBladeAt(rack, ctrlplane.BladeID(rec.Blade), at, func(r core.KillReport, e error) {
				rec.Done = true
				rec.Err = errText(e)
				rec.Start, rec.End = r.Start, r.End
				rec.PagesLost = r.PagesLost
			})
		case 1:
			rec.Kind = "drain"
			rec.Blade = rng.Intn(pod.Rack(rack).MemBladeCount() + 1)
			err = pod.DrainMemBladeAt(rack, ctrlplane.BladeID(rec.Blade), at, func(r core.DrainReport, e error) {
				rec.Done = true
				rec.Err = errText(e)
				rec.Start, rec.End = r.Start, r.End
				rec.PagesMoved = r.PagesMoved
			})
		default:
			rec.Kind = "switch"
			rec.Blade = -1
			err = pod.KillSwitchAt(rack, at, func(r core.SwitchFailoverReport, e error) {
				rec.Done = true
				rec.Err = errText(e)
				rec.Start, rec.End = r.Start, r.End
			})
		}
		if err != nil {
			return nil, fmt.Errorf("seed %d: register %s on rack %d: %w", cfg.Seed, recs[f].Kind, rack, err)
		}
		if !rng.Bool(0.25) {
			at = at.Add(sim.Duration(50+rng.Intn(40)) * sim.Microsecond)
		}
	}

	end, err := s.Run()
	if err != nil {
		return nil, err
	}
	out := &PodOutcome{End: end, Faults: recs, Counters: pod.Collector().Snapshot()}
	for i := 0; i < cfg.Racks; i++ {
		out.Hashes = append(out.Hashes, pod.Rack(i).Engine().DispatchHash())
	}
	if err := checkPodInvariants(cfg, pod, out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkPodInvariants asserts the worker-count-independent safety
// properties of a finished storm.
func checkPodInvariants(cfg PodSchedule, pod *core.Pod, out *PodOutcome) error {
	snap := out.Counters
	arr := snap[stats.CtrServeArrivals]
	settled := snap[stats.CtrServeCompleted] + snap[stats.CtrServeThrottled] +
		snap[stats.CtrServeDropped] + snap[stats.CtrServeShed] +
		snap[stats.CtrServeTimedOut] + snap[stats.CtrServeFailed]
	if arr != settled {
		return fmt.Errorf("seed %d: request conservation violated: %d arrivals, %d settled",
			cfg.Seed, arr, settled)
	}
	if snap[stats.CtrBladeKills] != snap[stats.CtrBladeRecoveries] {
		return fmt.Errorf("seed %d: %d kills but %d recoveries",
			cfg.Seed, snap[stats.CtrBladeKills], snap[stats.CtrBladeRecoveries])
	}
	for _, rec := range out.Faults {
		if !rec.Done || rec.Err != "" || rec.Kind == "switch" {
			continue
		}
		// A completed kill or drain must have fully departed its blade.
		r := pod.Rack(rec.Rack)
		if !r.Controller().Allocator().BladeRetired(ctrlplane.BladeID(rec.Blade)) {
			return fmt.Errorf("seed %d: %s victim %d/%d not retired", cfg.Seed, rec.Kind, rec.Rack, rec.Blade)
		}
		if n := r.MemBlade(rec.Blade).MaterializedPages(); n != 0 {
			return fmt.Errorf("seed %d: departed blade %d/%d still holds %d pages",
				cfg.Seed, rec.Rack, rec.Blade, n)
		}
		if rec.End.Sub(rec.Start) < 0 {
			return fmt.Errorf("seed %d: %s report runs backwards: %+v", cfg.Seed, rec.Kind, rec)
		}
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
