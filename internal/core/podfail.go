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

// podFault is one scheduled failure event: run starts it on its rack at
// at. killed marks a fault that kills memory blade blade — the one fact
// the injector needs, because a borrowed victim's port is not its
// rack's to blacken.
type podFault struct {
	at     sim.Time
	killed bool
	blade  ctrlplane.BladeID
	run    func(r *Rack, markPort bool)
}

// KillMemBladeAt schedules a memory-blade failure on rack's blade
// victim at virtual time at. done fires in the rack's event context
// when recovery completes (or immediately after at, with an error, if
// the blade is unknown, already dead or retired). The blade is named
// by the rack that registers it: a borrowed blade is addressed at its
// borrower, whose tables still know it — the lender retired its id
// when the lease was granted.
func (p *Pod) KillMemBladeAt(rack int, victim ctrlplane.BladeID, at sim.Time, done func(KillReport, error)) error {
	return p.scheduleFault(rack, &podFault{at: at, killed: true, blade: victim, run: func(r *Rack, markPort bool) {
		r.killMemBladeAsync(victim, markPort, done)
	}})
}

// DrainMemBladeAt schedules a graceful drain of rack's blade victim at
// virtual time at; done fires when the blade is empty and retired.
// Draining a borrowed blade is supported (see drainMemBladeAsync).
func (p *Pod) DrainMemBladeAt(rack int, victim ctrlplane.BladeID, at sim.Time, done func(DrainReport, error)) error {
	return p.scheduleFault(rack, &podFault{at: at, run: func(r *Rack, _ bool) {
		r.drainMemBladeAsync(victim, done)
	}})
}

// KillSwitchAt schedules a switch failover on rack at virtual time at;
// done fires when the backup data plane is live.
func (p *Pod) KillSwitchAt(rack int, at sim.Time, done func(SwitchFailoverReport, error)) error {
	return p.scheduleFault(rack, &podFault{at: at, run: func(r *Rack, _ bool) {
		r.killSwitchAsync(func(rep SwitchFailoverReport) { done(rep, nil) })
	}})
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
	p.exec.due = min(p.exec.due, f.at)
	return nil
}

// injectDueFaults converts queued faults due before horizon into rack
// events and lowers due to the earliest fault left. Barrier context
// only; racks are scanned in index order and each rack's faults in
// registration order, so the injection schedule is a pure function of
// the registered faults.
func (x *podExec) injectDueFaults(horizon sim.Time) {
	for _, r := range x.p.racks {
		if len(r.pendingFaults) == 0 {
			continue
		}
		rest := r.pendingFaults[:0]
		for _, f := range r.pendingFaults {
			if f.at >= horizon {
				rest = append(rest, f)
				x.due = min(x.due, f.at)
				continue
			}
			x.p.injectFault(r, f)
		}
		r.pendingFaults = rest
	}
}

// injectFault schedules the fault's event(s) at its injection time.
// Exclusive context (barrier or parked engines): it may read ownership
// tables and schedule on more than one rack's engine. It decides one
// thing: a borrowed victim's port blackens in the lender's shard, the
// contents loss and recovery run in the borrower's — both at the kill
// instant.
func (p *Pod) injectFault(r *Rack, f *podFault) {
	markPort := true
	if f.killed && int(f.blade) >= 0 && int(f.blade) < len(r.mem) && r.remoteBlade(f.blade) {
		slot := r.mem[int(f.blade)]
		owner := p.racks[slot.owner]
		owner.eng.At(f.at, func() { owner.fab.SetNodeDead(slot.node, true) })
		markPort = false
	}
	r.eng.At(f.at, func() { f.run(r, markPort) })
}
