package core

// Pod-scale failure injection (§4.4 at pod scale): blade kills, blade
// drains and switch failovers scheduled at absolute virtual times on
// any rack of the pod, deterministic under the windowed executor.
//
// Under parallel execution a failure cannot simply be called from
// outside: the moment it lands relative to each shard's event schedule
// must be independent of the worker count. So scheduled faults follow
// the borrow-negotiation pattern (parexec.go): registration queues the
// fault on its rack as deferred barrier work; the window barrier — the
// pod's exclusive section, with every engine parked — converts faults
// due inside the next window into ordinary rack events at their exact
// injection times, scanning racks in index order. Serial and N-worker
// runs therefore produce bit-identical fault timelines. Registration is
// itself exclusive context, so a fault due before the next barrier is
// injected at once, and one at the current instant starts inline:
// these three functions are the only way into a membership event.
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

// podFault is one membership event: run starts it on its rack at at.
// A kill names its victim in kill (-1 otherwise) — the one fact the
// injector needs, because a borrowed victim's port is not its rack's to
// blacken.
type podFault struct {
	at   sim.Time
	kill ctrlplane.BladeID
	run  func(r *Rack)
}

// KillMemBladeAt schedules a memory-blade failure on rack's blade
// victim at virtual time at. done fires in the rack's event context
// when recovery completes (or immediately after at, with an error, if
// the blade is unknown, already dead or retired). The blade is named
// by the rack that registers it: a borrowed blade is addressed at its
// borrower, whose tables still know it — the lender retired its id
// when the lease was granted.
func (p *Pod) KillMemBladeAt(rack int, victim ctrlplane.BladeID, at sim.Time, done func(KillReport, error)) error {
	return p.scheduleFault(rack, podFault{at: at, kill: victim, run: func(r *Rack) {
		r.killMemBladeAsync(victim, done)
	}})
}

// DrainMemBladeAt schedules a graceful drain of rack's blade victim at
// virtual time at; done fires when the blade is empty and retired.
// Draining a borrowed blade is supported (see drainMemBladeAsync).
func (p *Pod) DrainMemBladeAt(rack int, victim ctrlplane.BladeID, at sim.Time, done func(DrainReport, error)) error {
	return p.scheduleFault(rack, podFault{at: at, kill: -1, run: func(r *Rack) {
		r.drainMemBladeAsync(victim, done)
	}})
}

// KillSwitchAt schedules a switch failover on rack at virtual time at;
// done fires when the backup data plane is live.
func (p *Pod) KillSwitchAt(rack int, at sim.Time, done func(SwitchFailoverReport, error)) error {
	return p.scheduleFault(rack, podFault{at: at, kill: -1, run: func(r *Rack) {
		r.killSwitchAsync(done)
	}})
}

// scheduleFault validates and registers one fault. Main-goroutine or
// barrier context only (engines parked), like AddTenant/SampleEvery:
// registration happens with every engine parked on the same instant,
// which is exactly barrier context. So a fault at that instant starts
// inline, before the call returns, and one due inside the executor's
// lookahead — before the next barrier would see it — is injected now.
// A 1-rack pod has no barriers and an unbounded lookahead, so there
// every later fault is simply an event. The rest wait in the rack's
// queue for the barrier.
func (p *Pod) scheduleFault(rack int, f podFault) error {
	if rack < 0 || rack >= len(p.racks) {
		return fmt.Errorf("core: pod has no rack %d", rack)
	}
	now := p.Now()
	if f.at < now {
		return fmt.Errorf("core: fault time %v is in the past (now %v)", f.at, now)
	}
	r := p.racks[rack]
	if f.at.Sub(now) < p.exec.window {
		p.injectFault(r, f, f.at == now)
		return nil
	}
	r.pendingFaults = append(r.pendingFaults, deferred{due: f.at, run: func() { p.injectFault(r, f, false) }})
	p.exec.due = min(p.exec.due, f.at)
	return nil
}

// injectFault starts the fault at its injection time: inline, or as
// rack events at f.at. Exclusive context (barrier or parked engines):
// it may read ownership tables and write or schedule on more than one
// rack. It decides one thing, and is the only code that blackens a lent
// blade's port: a borrowed victim's port blackens in the lender, the
// contents loss and recovery run in the borrower — both at the kill
// instant.
func (p *Pod) injectFault(r *Rack, f podFault, inline bool) {
	start := func(on *Rack, fn func()) {
		if inline {
			fn()
		} else {
			on.eng.At(f.at, fn)
		}
	}
	if v := int(f.kill); v >= 0 && v < len(r.mem) && r.remoteBlade(f.kill) {
		slot := r.mem[v]
		owner := p.racks[slot.owner]
		start(owner, func() { owner.fab.SetNodeDead(slot.node, true) })
	}
	start(r, func() { f.run(r) })
}
