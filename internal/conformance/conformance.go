// Package conformance is the protocol conformance layer for online
// memory elasticity: it drives randomized membership-change schedules —
// blade adds, live drains and failure-injected kills interleaved with
// foreground reads and writes from multiple compute blades — against a
// sequential oracle, and asserts the safety invariants that must hold
// through every schedule:
//
//   - no stale read: a load observes exactly the last completed store to
//     its address (MSI + migration freezes never leak old copies);
//   - no lost write: drains preserve every committed value bit for bit;
//     kills lose exactly the pages resident on the dead blade (their
//     reads become zero) and nothing else;
//   - translation liveness: after a drain or kill completes, no mapped
//     address resolves to the departed blade, the blade holds zero
//     pages, and new allocations avoid it;
//   - allocator isolation: live vmas never overlap.
//
// The harness is deterministic: a schedule, the rack's shape included,
// is a pure function of its seed, so any failing seed replays
// bit-identically.
package conformance

import (
	"cmp"
	"fmt"
	"sort"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
)

// Config parameterizes one randomized schedule. Everything else — the
// rack's shape and the membership events — is drawn from Seed.
type Config struct {
	Seed uint64
	Ops  int // foreground loads/stores (default 240)
}

// A schedule starts with memBlades memory blades and hot-adds up to
// maxMemBlades.
const memBlades, maxMemBlades = 2, 6

// shape is the part of a schedule drawn from its own RNG stream, so a
// draw appended to it never moves the op stream.
type shape struct {
	computeBlades int // one foreground thread each: 2-4
	areas         int // shared vmas: 1-4
	areaPages     int // pages per vma; a one-page vma maps only its slots' bytes
	// slots is the number of value slots per page, 8 bytes apart: with
	// more than one, several blades' words share a page (false sharing).
	slots      int
	cachePages int // per compute blade: half the mapped pages (at least 16), or 4 on one schedule in four
	events     int // membership events: none on one schedule in eight, else 4-6
}

func drawShape(seed uint64) shape {
	rng := sim.NewRNG(seed, "conformance-schedule/shape")
	s := shape{
		computeBlades: 2 + rng.Intn(3),
		areas:         1 + rng.Intn(4),
		areaPages:     []int{1, 8, 48}[rng.Intn(3)],
		slots:         []int{1, 16, 512}[rng.Intn(3)],
	}
	// A small cache forces remote traffic, so coherence and migration
	// genuinely interleave; a tiny one evicts on nearly every access.
	s.cachePages = max(16, s.areas*s.areaPages/2)
	if rng.Bool(0.25) {
		s.cachePages = 4
	}
	if !rng.Bool(0.125) {
		s.events = 4 + rng.Intn(3)
	}
	return s
}

// Result summarizes one schedule; identical seeds must produce identical
// Results (the determinism half of the contract).
type Result struct {
	Loads, Stores       int
	Adds, Drains, Kills int
	PagesMoved          int
	PagesLost           int
	End                 sim.Time
}

type harness struct {
	cfg     Config
	shape   shape
	c       *core.Cluster
	threads []*core.Thread
	areas   []mem.VMA
	oracle  map[mem.VA]uint64
	rng     *sim.RNG
	res     Result

	drainPending bool
	drainVictim  ctrlplane.BladeID
	drainRep     core.DrainReport
	drainErr     error
	drainDone    bool // completed, assertions pending
}

// Run executes one randomized membership-change schedule and returns its
// Result, or the first invariant violation.
func Run(cfg Config) (Result, error) {
	if cfg.Ops == 0 {
		cfg.Ops = 240
	}
	h := &harness{cfg: cfg, shape: drawShape(cfg.Seed), oracle: make(map[mem.VA]uint64)}
	if err := h.setup(); err != nil {
		return h.res, err
	}
	if err := h.drive(); err != nil {
		return h.res, err
	}
	return h.res, nil
}

func (h *harness) setup() error {
	ccfg := core.DefaultConfig(h.shape.computeBlades, memBlades)
	ccfg.MemoryBladeCapacity = 1 << 26
	ccfg.CachePagesPerBlade = h.shape.cachePages
	c, err := core.NewCluster(ccfg)
	if err != nil {
		return err
	}
	h.c = c
	p := c.Exec("conformance")
	length := uint64(h.shape.areaPages) * mem.PageSize
	if h.shape.areaPages == 1 {
		length = uint64(h.shape.slots) * 8
	}
	for i := 0; i < h.shape.areas; i++ {
		vma, err := p.Mmap(length, mem.PermReadWrite)
		if err != nil {
			return err
		}
		h.areas = append(h.areas, vma)
	}
	for b := 0; b < h.shape.computeBlades; b++ {
		th, err := p.SpawnThread(b)
		if err != nil {
			return err
		}
		h.threads = append(h.threads, th)
	}
	h.rng = sim.NewRNG(h.cfg.Seed, "conformance-schedule")
	return nil
}

// slotVA is the address of value slot s of page p in area a.
func (h *harness) slotVA(area, page, slot int) mem.VA {
	return h.areas[area].Base + mem.VA(page)*mem.PageSize + mem.VA(slot)*8
}

func (h *harness) drive() error {
	// Pre-draw the op indices at which membership events fire.
	evAt := make(map[int]bool)
	for len(evAt) < min(h.shape.events, h.cfg.Ops) {
		evAt[h.rng.Intn(h.cfg.Ops)] = true
	}
	seq := uint64(0)
	for i := 0; i < h.cfg.Ops; i++ {
		if h.drainDone {
			if err := h.drainCompleted(); err != nil {
				return err
			}
		}
		if evAt[i] {
			if err := h.membershipEvent(); err != nil {
				return err
			}
		}
		th := h.threads[h.rng.Intn(len(h.threads))]
		va := h.slotVA(h.rng.Intn(len(h.areas)), h.rng.Intn(h.shape.areaPages), h.rng.Intn(h.shape.slots))
		if h.rng.Bool(0.5) {
			seq++
			if err := th.Store(va, seq); err != nil {
				return fmt.Errorf("op %d: store %#x: %w", i, uint64(va), err)
			}
			h.oracle[va] = seq
			h.res.Stores++
		} else {
			got, err := th.Load(va)
			if err != nil {
				return fmt.Errorf("op %d: load %#x: %w", i, uint64(va), err)
			}
			if want := h.oracle[va]; got != want {
				return fmt.Errorf("op %d: stale/lost value at %#x: got %d, want %d (seed %d)",
					i, uint64(va), got, want, h.cfg.Seed)
			}
			h.res.Loads++
		}
	}
	// Let a still-running drain finish, then verify everything.
	if err := h.await(&h.drainPending, "drain", h.drainVictim); err != nil {
		return err
	}
	if h.drainDone {
		if err := h.drainCompleted(); err != nil {
			return err
		}
	}
	if err := h.verifyAll(); err != nil {
		return err
	}
	h.res.End = h.c.Now()
	return nil
}

// await advances virtual time until *pending clears: a membership
// event on victim has completed. The splitter's epoch tick reschedules
// itself forever, so the engine never runs dry; the wait is bounded at
// a second of virtual time.
func (h *harness) await(pending *bool, event string, victim ctrlplane.BladeID) error {
	for waited := sim.Duration(0); *pending; waited += sim.Millisecond {
		if waited >= sim.Second {
			return fmt.Errorf("%s of blade %d wedged (seed %d)", event, victim, h.cfg.Seed)
		}
		h.c.AdvanceTime(sim.Millisecond)
	}
	return nil
}

// drainCompleted consumes a finished drain: the report must be
// plausible (right victim, forward-moving clock) and the structural
// departure invariants must hold.
func (h *harness) drainCompleted() error {
	h.drainDone = false
	if h.drainErr == nil {
		if h.drainRep.Victim != h.drainVictim {
			return fmt.Errorf("drain report names victim %d, want %d (seed %d)",
				h.drainRep.Victim, h.drainVictim, h.cfg.Seed)
		}
		if h.drainRep.End.Sub(h.drainRep.Start) < 0 {
			return fmt.Errorf("drain report runs backwards: %+v (seed %d)", h.drainRep, h.cfg.Seed)
		}
	}
	return h.afterDeparture(h.drainVictim, h.drainErr)
}

// membershipEvent performs one add, drain or kill, chosen by the
// schedule's RNG among the moves that are legal right now.
func (h *harness) membershipEvent() error {
	alloc := h.c.Controller().Allocator()
	var moves []string
	if h.c.MemBladeCount() < maxMemBlades {
		moves = append(moves, "add")
	}
	// Drains and kills need a survivor, and we keep at most one drain in
	// flight; kills are sequence points (no concurrent drain), keeping
	// the oracle exact.
	if !h.drainPending && alloc.AvailableBlades() >= 2 {
		moves = append(moves, "drain", "kill")
	}
	if len(moves) == 0 {
		return nil
	}
	switch moves[h.rng.Intn(len(moves))] {
	case "add":
		if _, err := h.c.AddMemBlade(0); err != nil {
			return fmt.Errorf("add blade: %w", err)
		}
		h.res.Adds++
	case "drain":
		victim, ok := h.pickVictim()
		if !ok {
			return nil
		}
		h.drainPending = true
		h.drainVictim = victim
		err := h.c.Pod().DrainMemBladeAt(0, victim, h.c.Now(), func(r core.DrainReport, err error) {
			h.drainPending = false
			h.drainDone = true
			h.drainRep, h.drainErr = r, err
			h.res.PagesMoved += r.PagesMoved
		})
		if err != nil {
			return fmt.Errorf("drain blade %d: %w", victim, err)
		}
		h.res.Drains++
	case "kill":
		victim, ok := h.pickVictim()
		if !ok {
			return nil
		}
		// Snapshot which committed values live on the victim: they die
		// with it and must read as zero afterwards.
		doomed := make([]mem.VA, 0)
		for _, va := range h.sortedOracleKeys() {
			if home, err := alloc.Translate(va); err == nil && home == victim {
				doomed = append(doomed, va)
			}
		}
		// A kill is a sequence point: it starts at once and the schedule
		// waits for its recovery.
		var rep core.KillReport
		var kerr error
		killing := true
		err := h.c.Pod().KillMemBladeAt(0, victim, h.c.Now(), func(r core.KillReport, e error) {
			rep, kerr, killing = r, e, false
		})
		if err == nil {
			err = cmp.Or(h.await(&killing, "kill", victim), kerr)
		}
		if err != nil {
			return fmt.Errorf("kill blade %d: %w", victim, err)
		}
		for _, va := range doomed {
			h.oracle[va] = 0
		}
		h.res.Kills++
		h.res.PagesLost += rep.PagesLost
		if err := h.afterDeparture(victim, nil); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim selects a random available memory blade that can depart.
func (h *harness) pickVictim() (ctrlplane.BladeID, bool) {
	alloc := h.c.Controller().Allocator()
	var avail []ctrlplane.BladeID
	for id := 0; id < h.c.MemBladeCount(); id++ {
		if alloc.BladeAvailable(ctrlplane.BladeID(id)) {
			avail = append(avail, ctrlplane.BladeID(id))
		}
	}
	if len(avail) < 2 {
		return 0, false
	}
	return avail[h.rng.Intn(len(avail))], true
}

func (h *harness) sortedOracleKeys() []mem.VA {
	keys := make([]mem.VA, 0, len(h.oracle))
	for va := range h.oracle {
		keys = append(keys, va)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// afterDeparture asserts the structural invariants once a blade has
// drained or died: zero resident pages, full TCAM/directory re-homing,
// retirement, and allocator consistency.
func (h *harness) afterDeparture(victim ctrlplane.BladeID, drainErr error) error {
	if drainErr != nil {
		return fmt.Errorf("drain of blade %d failed: %w (seed %d)", victim, drainErr, h.cfg.Seed)
	}
	alloc := h.c.Controller().Allocator()
	if n := h.c.MemBlade(int(victim)).MaterializedPages(); n != 0 {
		return fmt.Errorf("departed blade %d still holds %d pages (seed %d)", victim, n, h.cfg.Seed)
	}
	if !alloc.BladeRetired(victim) {
		return fmt.Errorf("departed blade %d not retired (seed %d)", victim, h.cfg.Seed)
	}
	if load := alloc.BladeLoad(); load[int(victim)] != 0 {
		return fmt.Errorf("departed blade %d still accounts %v bytes (seed %d)", victim, load[int(victim)], h.cfg.Seed)
	}
	for a := range h.areas {
		for p := 0; p < h.shape.areaPages; p++ {
			va := h.slotVA(a, p, 0)
			home, err := alloc.Translate(va)
			if err != nil {
				return fmt.Errorf("mapped %#x does not translate after departure of %d: %w", uint64(va), victim, err)
			}
			if home == victim {
				return fmt.Errorf("%#x still translates to departed blade %d (seed %d)", uint64(va), victim, h.cfg.Seed)
			}
		}
	}
	return alloc.CheckNonOverlap()
}

// verifyAll reads back every value the oracle knows, from every compute
// blade — the final no-lost-write / no-stale-read sweep.
func (h *harness) verifyAll() error {
	for _, va := range h.sortedOracleKeys() {
		want := h.oracle[va]
		for ti, th := range h.threads {
			got, err := th.Load(va)
			if err != nil {
				return fmt.Errorf("final load %#x from blade %d: %w", uint64(va), ti, err)
			}
			if got != want {
				return fmt.Errorf("final sweep: %#x = %d from blade %d, want %d (seed %d)",
					uint64(va), got, ti, want, h.cfg.Seed)
			}
		}
	}
	return nil
}
