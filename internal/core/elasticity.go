package core

// Online memory elasticity (§1, §4.1 "Transparency via outlier entries",
// §4.4): memory blades join, drain and die while applications keep
// running. One mechanism moves a vma off a blade — rehome: freeze, region
// reset (compute blades flush), throttled page copy, outlier-entry TCAM
// rewrite, thaw — and a policy decides when and what an error means. A
// drain re-homes every vma of the departing blade with its pages; kill
// recovery, the involuntary version, does so without copies after a
// detection delay (the contents died with the blade, its fabric port
// went black); the promotion policy (promotion.go) pulls hot vmas off
// borrowed blades. A blade that has departed is retired (retire): its
// partition rule is withdrawn so translation can never resolve to it
// again, and if it was borrowed its lease ends. Blades enter the rack's
// table through attach (rack.go), whichever way they arrive. Switch
// failover (§4.4) is the third membership event: every region is reset
// under a global freeze, then the backup data plane, rebuilt from
// replicated control-plane state, goes live.
//
// Drain, kill and failover are in-simulation events: they interleave
// with foreground traffic on the event engine, and their cost — the
// per-area blackout of a drain, the rack-wide blackout of a failover —
// is measurable on the throughput timeline (Figure 10 panel,
// internal/experiments).

import (
	"errors"
	"fmt"

	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/memblade"
	"mind/internal/sim"
)

// DrainReport summarizes one completed memory-blade drain.
type DrainReport struct {
	Victim      ctrlplane.BladeID
	Start, End  sim.Time
	Allocations int // vmas relocated
	PagesMoved  int // materialized pages copied to survivors
	PagesPurged int // stale pages of already-freed vmas discarded
	RegionsHit  int // directory entries reset for re-homing
	Batches     int // throttled copy batches
}

// Blackout returns the drain's total duration. The migration unit is
// the vma: foreground traffic to every other vma flows throughout,
// while the vma currently moving observes backed-off Retry bounces
// until its freeze lifts. Applications that want fine-grained overlap
// shard their dataset into multiple vmas (as the Fig10 experiment
// does); a single giant vma moves as one unit.
func (r DrainReport) Blackout() sim.Duration { return r.End.Sub(r.Start) }

// KillReport summarizes recovery from a memory-blade failure.
type KillReport struct {
	Victim      ctrlplane.BladeID
	Start, End  sim.Time
	PagesLost   int // materialized pages that died with the blade
	Allocations int // vmas re-homed (their contents read as zero)
	VMAsLost    int // vmas forcibly unmapped (no survivor had capacity)
	RegionsHit  int
}

// Blackout returns kill-to-recovered time (detection included).
func (r KillReport) Blackout() sim.Duration { return r.End.Sub(r.Start) }

// SwitchFailoverReport summarizes a switch failover executed as an
// in-simulation event.
type SwitchFailoverReport struct {
	Start, End   sim.Time
	RegionsReset int
}

// Blackout returns the rack-wide window during which every page request
// bounced.
func (r SwitchFailoverReport) Blackout() sim.Duration { return r.End.Sub(r.Start) }

// MemBladeCount returns how many memory blades have ever been part of
// the rack (including drained and dead ones; ids are never reused).
func (c *Rack) MemBladeCount() int { return len(c.mem) }

// AddMemBlade hot-adds a memory blade with the given capacity (0 uses
// the rack's configured per-blade capacity). The blade is immediately
// placeable: the very next mmap may land on it. Returns the new blade's
// id.
func (c *Rack) AddMemBlade(capacity uint64) (ctrlplane.BladeID, error) {
	if capacity == 0 {
		capacity = c.cfg.MemoryBladeCapacity
	}
	id, err := c.ctl.Allocator().AddBlade(capacity)
	if err != nil {
		return 0, err
	}
	node := memNodeBase + fabric.NodeID(id)
	c.fab.AddNode(node)
	c.attach(id, memblade.New(int(id)), c.idx, node)
	c.col.IncH(c.hBladeEvents, 1)
	return id, nil
}

// bladeLive validates that victim names a registered, living,
// unretired memory blade — the shared precondition of every membership
// event. Killing or draining a blade that is already dead or retired
// is a caller error reported explicitly, never a panic or a silent
// double-recovery.
func (c *Rack) bladeLive(victim ctrlplane.BladeID) error {
	if int(victim) < 0 || int(victim) >= len(c.mem) {
		return fmt.Errorf("core: no memory blade %d", victim)
	}
	if c.mem[int(victim)].blade.Dead() {
		return fmt.Errorf("core: memory blade %d is already dead", victim)
	}
	if c.ctl.Allocator().BladeRetired(victim) {
		return fmt.Errorf("core: memory blade %d is retired", victim)
	}
	return nil
}

// moveStats accumulates what re-homing cost across the vmas of one
// drain, kill recovery or promotion.
type moveStats struct {
	regions int // directory entries reset
	batches int // throttled copy batches
	pages   int // materialized pages installed at their new home
}

// errTargetDied: the blade a copy was filling died with a batch in
// flight; a drain retries the vma with a fresh target.
var errTargetDied = errors.New("core: migration target died mid-copy")

// rehome moves the vma based at base off blade from — the one mechanism
// behind drains, kill recovery and promotions, and the only code that
// freezes a vma's range. The range is frozen and its regions reset
// (compute blades flush), pick names the new home (after the reset:
// membership can change while a reset's flush round trips run), the
// materialized pages copy over in throttled batches when withPages is
// set (a dead source has none), and the TCAM rewrite (Allocator.Migrate)
// cuts translation over. Only then do the copied pages materialize at
// the target; on any error they go back to the source, which kept the
// authoritative copy. The range thaws and done(err) fires in the same
// event. What an error means is the caller's policy; ErrBadAddress says
// the vma was unmapped under the move.
func (c *Rack) rehome(base mem.VA, from ctrlplane.BladeID,
	pick func(from ctrlplane.BladeID, base mem.VA) (ctrlplane.BladeID, error),
	withPages bool, st *moveStats, done func(error)) {
	alloc := c.ctl.Allocator()
	reserved, err := alloc.Reserved(base)
	if err != nil {
		done(err)
		return
	}
	area := mem.Range{Base: base, Size: reserved}
	thaw := func(err error) {
		c.dir.UnfreezeRange(area)
		done(err)
	}
	c.dir.FreezeRange(area)
	c.resetRange(area, func(n int) {
		st.regions += n
		to, err := pick(from, base)
		if err != nil {
			thaw(err)
			return
		}
		if !withPages {
			thaw(alloc.Migrate(base, to))
			return
		}
		step := ctrlplane.MigrationStep{Base: base, Reserved: reserved, From: from, To: to}
		c.copyPages(step, st, func(moved []memblade.PageCopy, err error) {
			if err == nil {
				err = alloc.Migrate(base, to)
			}
			if err != nil {
				// The rewrite rolled back (or the target departed between
				// selection and rewrite, or the vma is gone — retirement
				// purges its pages then); a failed copy left none to return.
				for _, pg := range moved {
					c.mem[int(from)].blade.ReturnPage(pg)
				}
			} else {
				for _, pg := range moved {
					c.mem[int(to)].blade.InstallPage(pg)
				}
				st.pages += len(moved)
				c.col.IncH(c.hMigratedPages, uint64(len(moved)))
			}
			thaw(err)
		})
	})
}

// retire withdraws a departed victim — drained empty or dead and
// re-homed — from the allocator, so translation can never resolve to it
// again. A borrowed victim's lease ends here: the device stays stranded
// at its owner, retired on both sides (blade ids are never reused).
func (c *Rack) retire(victim ctrlplane.BladeID) error {
	alloc := c.ctl.Allocator()
	already := alloc.BladeRetired(victim)
	err := alloc.RetireBlade(victim)
	if err == nil && !already && c.remoteBlade(victim) {
		c.borrowed--
	}
	return err
}

// DrainMemBladeAsync starts draining victim from event context; done
// fires (still in event context) when the blade is empty and retired.
// Every vma on it is re-homed with its pages (rehome), one at a time, so
// foreground traffic to the others keeps flowing.
//
// A borrowed blade may be drained: the copy path (bladeTransfer) runs
// each leg on the shard that owns it, and the outlier rewrite is local
// to this rack's TCAM. The only borrow-specific restriction is inherited
// from PlanDrain: the remaining blades (borrowed or local) must have
// headroom for the displaced vmas.
func (c *Rack) DrainMemBladeAsync(victim ctrlplane.BladeID, done func(DrainReport, error)) {
	alloc := c.ctl.Allocator()
	rep := DrainReport{Victim: victim, Start: c.eng.Now()}
	rep.End = rep.Start // failed reports still carry a sane window
	if err := c.bladeLive(victim); err != nil {
		done(rep, err)
		return
	}
	if err := alloc.SetBladeAvailable(victim, false); err != nil {
		done(rep, err)
		return
	}
	c.col.IncH(c.hBladeEvents, 1)

	var st moveStats
	finish := func(err error) {
		rep.RegionsHit, rep.Batches, rep.PagesMoved = st.regions, st.batches, st.pages
		rep.End = c.eng.Now()
		done(rep, err)
	}
	// An aborted drain must not leave a healthy blade excluded from
	// placement forever: its data is intact and it still serves traffic,
	// so availability is restored (unless the blade died meanwhile —
	// kill recovery owns it then).
	fail := func(err error) {
		if !c.mem[int(victim)].blade.Dead() {
			_ = alloc.SetBladeAvailable(victim, true)
		}
		finish(err)
	}

	// Validate up front that the drain can succeed at all, then move one
	// vma at a time.
	if _, err := alloc.PlanDrain(victim); err != nil {
		fail(err)
		return
	}
	var step func()
	step = func() {
		bases := alloc.AllocationsOn(victim)
		if len(bases) == 0 {
			// Purge garbage pages (writebacks of vmas freed while they lived
			// on the victim) and retire the blade.
			rep.PagesPurged = c.mem[int(victim)].blade.DropAll()
			finish(c.retire(victim))
			return
		}
		c.rehome(bases[0], victim, alloc.PickMigrationTarget, true, &st, func(err error) {
			switch {
			case err == nil:
				rep.Allocations++
			case errors.Is(err, ctrlplane.ErrBadAddress),
				errors.Is(err, ctrlplane.ErrBladeUnavailable),
				errors.Is(err, errTargetDied):
				// Transient: the vma was munmapped under the move and has
				// left the work list, or the target departed; the next
				// round picks afresh.
			default:
				// Persistent (no survivor fits, rule install failed): the
				// drain aborts with the blade fully intact.
				fail(err)
				return
			}
			step()
		})
	}
	step()
}

// resetRange resets every directory entry overlapping r (compute blades
// flush and drop their copies). The range is frozen by the caller, so
// no new entry can appear inside it mid-sweep: one snapshot suffices,
// and a reset of a base that vanished meanwhile (merged away) is a
// harmless no-op.
func (c *Rack) resetRange(r mem.Range, done func(resets int)) {
	c.resetBases(c.dir.RegionsOverlapping(r), done)
}

// resetBases resets the given region bases one at a time.
func (c *Rack) resetBases(bases []mem.VA, done func(resets int)) {
	n := 0
	var next func()
	next = func() {
		if n >= len(bases) {
			done(n)
			return
		}
		base := bases[n]
		n++
		c.dir.ResetRegion(base, next)
	}
	next()
}

// transfer models one blade-to-blade RDMA transfer whose completion is
// guaranteed: done(true) fires at delivery, done(false) fires as an
// error completion if either endpoint has died — a reliable-connection
// send to a dead host errors out at the NIC instead of hanging. Plain
// fabric sends silently drop messages to dead nodes, which is right for
// one-sided traffic (the §4.4 timeout machinery recovers) but would
// wedge a migration loop that waits on its own batch.
func (c *Rack) transfer(from, to fabric.NodeID, bytes int, done func(delivered bool)) {
	errComplete := func() {
		c.eng.Schedule(c.fab.OneWayBase(bytes), func() { done(false) })
	}
	if c.fab.NodeDead(from) || c.fab.NodeDead(to) {
		errComplete()
		return
	}
	c.fab.SendToSwitch(from, bytes, func() {
		// At the switch: the target may have died while the batch was in
		// flight.
		if c.fab.NodeDead(to) {
			errComplete()
			return
		}
		c.fab.SendFromSwitch(to, bytes, func() { done(true) })
	})
}

// migrationBatchGap is the idle fabric time between a drain's batches.
const migrationBatchGap = 3 * sim.Microsecond

// copyPages ships the step's materialized pages in throttled batches:
// each batch is one transfer through the switch (source NIC → fabric →
// target NIC) followed by migrationBatchGap of idle time, so foreground
// RDMA on the same NICs interleaves with the migration instead of
// starving. Copied pages are buffered and only installed at the target
// by the caller at cutover (after the TCAM rewrite commits) — the source
// retains the authoritative copy until then, exactly like a real live
// migration. done receives the buffered pages, or errTargetDied with
// every page already back on the source.
func (c *Rack) copyPages(step ctrlplane.MigrationStep, st *moveStats,
	done func(moved []memblade.PageCopy, err error)) {
	src := c.mem[int(step.From)].blade
	dst := c.mem[int(step.To)].blade
	batch := c.cfg.Migration.BatchPages
	if batch < 1 {
		batch = 1
	}
	var moved []memblade.PageCopy
	var next func()
	next = func() {
		pages := src.TakePagesIn(step.Base, step.Reserved, batch)
		if len(pages) == 0 {
			done(moved, nil)
			return
		}
		st.batches++
		c.bladeTransfer(step.From, step.To,
			len(pages)*fabric.PageBytes, func(delivered bool) {
				if !delivered || dst.Dead() {
					// The target died with the batch in flight. Put
					// everything back on the source (a no-op if the
					// source died too — crash semantics) and report the
					// failed copy.
					for _, p := range pages {
						src.ReturnPage(p)
					}
					for _, p := range moved {
						src.ReturnPage(p)
					}
					done(nil, errTargetDied)
					return
				}
				moved = append(moved, pages...)
				c.eng.Schedule(migrationBatchGap, next)
			})
	}
	next()
}

// DrainMemBlade drains victim and blocks (driving the simulation) until
// it is empty and retired. For use outside event context (examples,
// conformance tests); inside the simulation use DrainMemBladeAsync.
func (c *Rack) DrainMemBlade(victim ctrlplane.BladeID) (DrainReport, error) {
	var rep DrainReport
	var err error
	c.await(func(done func()) {
		c.DrainMemBladeAsync(victim, func(r DrainReport, e error) {
			rep, err = r, e
			done()
		})
	})
	return rep, err
}

// killMemBladeAsync injects a memory-blade failure from event context:
// the blade's contents are lost instantly and its fabric port goes
// black. After the configured detection delay the control plane re-homes
// every vma that lived there (their pages read as zero — the data died)
// and retires the blade. done fires when recovery completes.
//
// markPort controls who blackens the blade's fabric port. The blocking
// KillMemBlade marks it inline, with every engine parked; but when the
// pod injector kills a borrowed blade under the windowed executor the
// port lives in the lender's fabric, so the injector schedules the
// SetNodeDead as a lender-rack event at the same instant (podfail.go)
// and this shard must not touch it — rack events only mutate rack-local
// state. Pod.KillMemBladeAt is the in-simulation entry point.
func (c *Rack) killMemBladeAsync(victim ctrlplane.BladeID, markPort bool, done func(KillReport, error)) {
	alloc := c.ctl.Allocator()
	rep := KillReport{Victim: victim, Start: c.eng.Now()}
	rep.End = rep.Start // failed reports still carry a sane window
	if err := c.bladeLive(victim); err != nil {
		done(rep, err)
		return
	}
	slot := c.mem[int(victim)]
	rep.PagesLost = slot.blade.Kill()
	if markPort {
		// The blade's fabric port lives in the rack that physically
		// hosts it (for a borrowed blade, the lender's fabric).
		c.pod.racks[slot.owner].fab.SetNodeDead(slot.node, true)
	}
	c.col.IncH(c.hKills, 1)
	c.recovering++
	var st moveStats
	finish := func(err error) {
		rep.RegionsHit = st.regions
		rep.End = c.eng.Now()
		c.recovering--
		c.col.IncH(c.hRecoveries, 1)
		done(rep, err)
	}
	if err := alloc.SetBladeAvailable(victim, false); err != nil {
		finish(err)
		return
	}
	c.col.IncH(c.hBladeEvents, 1)

	var step func()
	step = func() {
		bases := alloc.AllocationsOn(victim)
		if len(bases) == 0 {
			finish(c.retire(victim))
			return
		}
		base := bases[0]
		// No page copies — the data is gone. Re-home the translation so
		// the vma's pages materialize (as zeroes) on the survivor.
		c.rehome(base, victim, alloc.PickMigrationTarget, false, &st, func(err error) {
			switch {
			case err == nil:
				rep.Allocations++
			case errors.Is(err, ctrlplane.ErrBadAddress):
				// The vma was munmapped during the reset; nothing left
				// to re-home.
			default:
				// No survivor can host this vma. It must not stay
				// translated to the dead blade (every fault would hang on
				// a black fabric port), so it is forcibly unmapped — the
				// rack's OOM-kill analogue: later accesses fail with a
				// translation error instead of wedging.
				_ = alloc.Free(base)
				rep.VMAsLost++
			}
			step()
		})
	}
	c.eng.Schedule(c.cfg.Migration.DetectionDelay, step)
}

// KillMemBlade kills victim and blocks until recovery completes.
func (c *Rack) KillMemBlade(victim ctrlplane.BladeID) (KillReport, error) {
	var rep KillReport
	var err error
	c.await(func(done func()) {
		c.killMemBladeAsync(victim, true, func(r KillReport, e error) {
			rep, err = r, e
			done()
		})
	})
	return rep, err
}

// killSwitchAsync executes the §4.4 switch failover as an in-simulation
// event: a rack-wide freeze (every page request bounces with Retry),
// every live region reset (compute blades flush their data), then the
// backup ASIC — rebuilt from consistently-replicated control-plane
// state — becomes the active data plane and the freeze lifts. A switch
// that is already failing over cannot die again: a call while a failover
// is in flight joins it, and its done fires with that outage's report.
func (c *Rack) killSwitchAsync(done func(SwitchFailoverReport)) {
	c.failoverDone = append(c.failoverDone, done)
	if len(c.failoverDone) > 1 {
		return
	}
	rep := SwitchFailoverReport{Start: c.eng.Now()}
	c.dir.SetFreezeAll(true)
	c.col.IncH(c.hBladeEvents, 1)
	c.col.IncH(c.hKills, 1)
	c.recovering++
	// Under the rack-wide freeze no region can be created or split, so
	// one snapshot covers every entry that must be torn down.
	c.resetBases(c.dir.AllRegionBases(), func(n int) {
		rep.RegionsReset = n
		backup := c.ctl.Failover()
		c.dir.SwapASIC(backup)
		c.dir.SetFreezeAll(false)
		rep.End = c.eng.Now()
		c.recovering--
		c.col.IncH(c.hRecoveries, 1)
		waiting := c.failoverDone
		c.failoverDone = nil
		for _, done := range waiting {
			done(rep)
		}
	})
}

// KillSwitch runs the switch failover and blocks until the backup data
// plane is live, returning the measured blackout.
func (c *Rack) KillSwitch() SwitchFailoverReport {
	var rep SwitchFailoverReport
	c.await(func(done func()) {
		c.killSwitchAsync(func(r SwitchFailoverReport) {
			rep = r
			done()
		})
	})
	return rep
}
