package core

// Pod-scale failure injection (§4.4 at pod scale): blade kills, blade
// drains and switch failovers scheduled at absolute virtual times on
// any rack of the pod, deterministic under the windowed executor.
//
// Under parallel execution a failure cannot simply be called from
// outside: the moment it lands relative to each shard's event schedule
// must be independent of the worker count. So scheduled faults follow
// the borrow-negotiation pattern (parexec.go): registration only
// queues the fault on its rack; the window barrier — the pod's
// exclusive section, with every engine parked — converts faults due
// inside the next window into ordinary rack events at their exact
// injection times, scanning racks in index order. Serial and N-worker
// runs therefore produce bit-identical fault timelines.
//
// The genuinely cross-rack case is a borrowed blade dying: the page
// store belongs to the borrower's shard (the lease), but the physical
// device and its fabric port live in the lender. The injector splits
// the death accordingly — the lender's shard blackens the port at the
// kill instant, the borrower's shard runs the contents loss, the
// detection delay and the re-home/page-loss recovery — so neither
// shard ever touches the other's state, and the lease is retired when
// recovery completes. Ownership is stable between barriers (leases
// only move at barriers), so resolving the owner at injection time is
// exact; faults are injected before the barrier's lease traffic, so a
// blade lent or returned at the same boundary is seen by the fault as
// still belonging to its pre-barrier rack.

import (
	"fmt"

	"mind/internal/ctrlplane"
	"mind/internal/sim"
)

// podFault is one scheduled failure event. Exactly one of the done
// callbacks is set, matching kind.
type podFault struct {
	kind  int // faultKill, faultDrain, faultSwitch
	blade ctrlplane.BladeID
	at    sim.Time

	killDone   func(KillReport, error)
	drainDone  func(DrainReport, error)
	switchDone func(SwitchFailoverReport, error)
}

const (
	faultKill = iota
	faultDrain
	faultSwitch
)

// KillMemBladeAt schedules a memory-blade failure on rack's blade
// victim at virtual time at. done fires in the rack's event context
// when recovery completes (or immediately after at, with an error, if
// the blade is unknown, already dead or retired). The blade is named
// by the rack that registers it: a borrowed blade is addressed at its
// borrower, whose tables still know it — the lender retired its id
// when the lease was granted.
func (p *Pod) KillMemBladeAt(rack int, victim ctrlplane.BladeID, at sim.Time, done func(KillReport, error)) error {
	return p.scheduleFault(rack, &podFault{kind: faultKill, blade: victim, at: at, killDone: done})
}

// DrainMemBladeAt schedules a graceful drain of rack's blade victim at
// virtual time at; done fires when the blade is empty and retired.
// Draining a borrowed blade is supported (see DrainMemBladeAsync).
func (p *Pod) DrainMemBladeAt(rack int, victim ctrlplane.BladeID, at sim.Time, done func(DrainReport, error)) error {
	return p.scheduleFault(rack, &podFault{kind: faultDrain, blade: victim, at: at, drainDone: done})
}

// KillSwitchAt schedules a switch failover on rack at virtual time at;
// done fires when the backup data plane is live.
func (p *Pod) KillSwitchAt(rack int, at sim.Time, done func(SwitchFailoverReport, error)) error {
	return p.scheduleFault(rack, &podFault{kind: faultSwitch, at: at, switchDone: done})
}

// scheduleFault validates and queues one fault. Main-goroutine or
// barrier context only (engines parked), like AddTenant/SampleEvery.
func (p *Pod) scheduleFault(rack int, f *podFault) error {
	if rack < 0 || rack >= len(p.racks) {
		return fmt.Errorf("core: pod has no rack %d", rack)
	}
	if f.at < p.Now() {
		return fmt.Errorf("core: fault time %v is in the past (now %v)", f.at, p.Now())
	}
	r := p.racks[rack]
	// A fault due inside the executor's lookahead — before the next
	// barrier would see it — is injected now: registration happens with
	// every engine parked on the same instant, which is exactly barrier
	// context. A 1-rack pod has no barriers and an unbounded lookahead,
	// so there every fault is simply an event.
	if f.at.Sub(p.Now()) < p.exec.window {
		p.injectFault(r, f)
		return nil
	}
	r.pendingFaults = append(r.pendingFaults, f)
	return nil
}

// injectDueFaults converts queued faults due before horizon into rack
// events. Barrier context only; racks are scanned in index order and
// each rack's faults in registration order, so the injection schedule
// is a pure function of the registered faults.
func (x *podExec) injectDueFaults(horizon sim.Time) {
	for _, r := range x.p.racks {
		if len(r.pendingFaults) == 0 {
			continue
		}
		rest := r.pendingFaults[:0]
		for _, f := range r.pendingFaults {
			if f.at >= horizon {
				rest = append(rest, f)
				continue
			}
			x.p.injectFault(r, f)
		}
		r.pendingFaults = rest
	}
}

// faultJumpBound returns the maximum number of grid windows the
// sparse-horizon executor may advance without deferring a queued
// fault's injection barrier: a fault at A is converted by the first
// barrier end with A < end + W (see injectDueFaults' horizon), so the
// jump must stop at the minimal k with vnow + kW > A - W. Queued faults
// always satisfy A >= vnow + W (earlier ones were injected at
// registration or a prior barrier), so the bound is at least 1.
// Barrier context only.
func (x *podExec) faultJumpBound() int64 {
	w, vnow := int64(x.window), int64(x.vnow)
	k := int64(1) << 62
	for _, r := range x.p.racks {
		for _, f := range r.pendingFaults {
			if kF := (int64(f.at)-w-vnow)/w + 1; kF < k {
				k = kF
			}
		}
	}
	return k
}

// injectFault schedules the fault's event(s) at its injection time.
// Exclusive context (barrier or parked engines): it may read ownership
// tables and schedule on more than one rack's engine.
func (p *Pod) injectFault(r *Rack, f *podFault) {
	switch f.kind {
	case faultKill:
		victim, done := f.blade, f.killDone
		if int(victim) >= 0 && int(victim) < len(r.mblades) && r.remoteBlade(victim) {
			// Borrowed blade: the port blackens in the lender's shard,
			// the contents loss and recovery run in the borrower's —
			// both at the kill instant.
			owner := p.racks[r.mbOwner[int(victim)]]
			node := r.mbOwnNode[int(victim)]
			owner.eng.At(f.at, func() { owner.fab.SetNodeDead(node, true) })
			r.eng.At(f.at, func() { r.killMemBladeAsync(victim, false, done) })
			return
		}
		r.eng.At(f.at, func() { r.killMemBladeAsync(victim, true, done) })
	case faultDrain:
		victim, done := f.blade, f.drainDone
		r.eng.At(f.at, func() { r.DrainMemBladeAsync(victim, done) })
	case faultSwitch:
		done := f.switchDone
		r.eng.At(f.at, func() {
			r.KillSwitchAsync(func(rep SwitchFailoverReport) { done(rep, nil) })
		})
	}
}
