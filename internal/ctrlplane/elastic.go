package ctrlplane

// This file implements the control-plane side of online memory
// elasticity: blade availability, the drain planner that relocates every
// allocation off a departing blade, and blade retirement (withdrawing
// the partition's translation rule so no address can ever again resolve
// to it). The data movement itself — page copies, directory resets, the
// throttle — is orchestrated by core's Rack.rehome; this layer only
// decides *where* each vma goes and keeps the TCAM consistent.

import (
	"errors"
	"fmt"
	"sort"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

// ErrNoSuchBlade is returned for operations on unknown blade ids.
var ErrNoSuchBlade = errors.New("ctrlplane: no such memory blade")

// ErrBladeBusy is returned when retiring a blade that still holds
// allocations.
var ErrBladeBusy = errors.New("ctrlplane: blade still holds allocations")

// ErrBladeUnavailable is returned by Migrate when the target blade is
// draining, failed or retired — a transient planning error: the caller
// should pick a fresh target and retry. Other Migrate errors are
// persistent.
var ErrBladeUnavailable = errors.New("ctrlplane: blade unavailable")

// MigrationStep is one unit of a drain plan: move the vma based at Base
// (Reserved bytes) from blade From to blade To.
type MigrationStep struct {
	Base     mem.VA
	Reserved uint64
	From     BladeID
	To       BladeID
}

func (a *Allocator) blade(id BladeID) (*bladeState, error) {
	if int(id) < 0 || int(id) >= len(a.blades) {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchBlade, id)
	}
	return a.blades[int(id)], nil
}

// SetBladeAvailable includes or excludes a blade from new placements.
// Draining and failed blades are excluded first, so foreground mmaps
// stop landing on them while their contents move.
func (a *Allocator) SetBladeAvailable(id BladeID, available bool) error {
	b, err := a.blade(id)
	if err != nil {
		return err
	}
	if b.retired && available {
		return fmt.Errorf("ctrlplane: blade %d is retired", id)
	}
	b.unavailable = !available
	return nil
}

// BladeAvailable reports whether id accepts new placements.
func (a *Allocator) BladeAvailable(id BladeID) bool {
	b, err := a.blade(id)
	return err == nil && !b.unavailable
}

// BladeRetired reports whether id has been retired.
func (a *Allocator) BladeRetired(id BladeID) bool {
	b, err := a.blade(id)
	return err == nil && b.retired
}

// AvailableBlades returns how many blades currently accept placements.
func (a *Allocator) AvailableBlades() int {
	n := 0
	for _, b := range a.blades {
		if !b.unavailable {
			n++
		}
	}
	return n
}

// BladeAllocatedBytes returns the reserved bytes currently placed on
// the blade — the allocation-free emptiness probe epoch loops use
// (AllocationsOn builds and sorts a slice).
func (a *Allocator) BladeAllocatedBytes(id BladeID) (uint64, error) {
	b, err := a.blade(id)
	if err != nil {
		return 0, err
	}
	return b.allocated, nil
}

// AllocationsOn returns the bases of every vma currently placed on the
// blade, in ascending order — the work list of a drain.
func (a *Allocator) AllocationsOn(id BladeID) []mem.VA {
	var out []mem.VA
	for base, al := range a.allocs {
		if al.blade == id {
			out = append(out, base)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pickLeastLoaded selects the least-loaded available blade other than
// victim (ties to the lowest id) that can fit reserved more bytes.
// extra (optional) adds projected load per blade — the drain planner's
// view of earlier steps completing. This is the single target-selection
// rule; PlanDrain and PickMigrationTarget must not diverge.
func (a *Allocator) pickLeastLoaded(victim BladeID, reserved uint64, extra map[BladeID]uint64) (BladeID, error) {
	to, ok := a.pickTarget(func(id BladeID) bool { return id == victim }, reserved, extra)
	if !ok {
		return 0, fmt.Errorf("ctrlplane: no surviving blade fits %d bytes: %w", reserved, ErrNoMemory)
	}
	return to, nil
}

// pickTarget is the generalized selection rule behind pickLeastLoaded:
// the least-loaded available blade not excluded by the predicate (ties
// to the lowest id) that can fit reserved more bytes, and false if none
// can. The promotion planner excludes every remote-homed blade and skips
// a vma nothing fits; drains exclude only the victim and report
// ErrNoMemory.
func (a *Allocator) pickTarget(exclude func(BladeID) bool, reserved uint64, extra map[BladeID]uint64) (BladeID, bool) {
	var best *bladeState
	var bestLoad uint64
	for _, b := range a.blades {
		if b.unavailable || exclude(b.id) {
			continue
		}
		load := b.allocated + extra[b.id]
		if load+reserved > b.partition.Size {
			continue
		}
		if best == nil || load < bestLoad {
			best, bestLoad = b, load
		}
	}
	if best == nil {
		return 0, false
	}
	return best.id, true
}

// PlanDrain computes a deterministic relocation plan for every vma on
// victim: steps are ordered by base address, and each step's target is
// the least-loaded available blade (excluding victim) with capacity for
// the vma, loads projected as earlier steps complete. The victim must
// already be unavailable (SetBladeAvailable(victim, false)) so the plan
// cannot race new placements. Executors use the plan as a feasibility
// check and re-pick each target (PickMigrationTarget) when its step
// actually runs — membership can change while a drain is in flight.
func (a *Allocator) PlanDrain(victim BladeID) ([]MigrationStep, error) {
	vb, err := a.blade(victim)
	if err != nil {
		return nil, err
	}
	if !vb.unavailable {
		return nil, fmt.Errorf("ctrlplane: drain of blade %d requires it be marked unavailable first", victim)
	}
	extra := make(map[BladeID]uint64)
	var steps []MigrationStep
	for _, base := range a.AllocationsOn(victim) {
		al := a.allocs[base]
		to, err := a.pickLeastLoaded(victim, al.reserved, extra)
		if err != nil {
			return nil, fmt.Errorf("ctrlplane: drain of blade %d: vma %#x: %w", victim, uint64(base), err)
		}
		steps = append(steps, MigrationStep{Base: base, Reserved: al.reserved, From: victim, To: to})
		extra[to] += al.reserved
	}
	if len(steps) == 0 {
		// Even an empty drain needs a survivor to retire onto.
		if _, err := a.pickLeastLoaded(victim, 0, nil); err != nil {
			return nil, err
		}
	}
	return steps, nil
}

// PickMigrationTarget chooses, at call time, the least-loaded available
// blade (excluding victim, ties to the lowest id) with capacity for the
// vma based at base. Drain executors call this after the area's reset
// completes — a plan computed earlier may be stale by then (the planned
// target can fail or retire while the reset runs).
func (a *Allocator) PickMigrationTarget(victim BladeID, base mem.VA) (BladeID, error) {
	al, ok := a.allocs[base]
	if !ok {
		return 0, ErrBadAddress
	}
	to, err := a.pickLeastLoaded(victim, al.reserved, nil)
	if err != nil {
		return 0, fmt.Errorf("ctrlplane: vma %#x: %w", uint64(base), err)
	}
	return to, nil
}

// RetireBlade withdraws a fully-drained blade from the rack: its
// partition translation rule is deleted from the TCAM, so the only
// entries that can resolve into its address range are the outlier rules
// of vmas that migrated away — translation can never again produce the
// retired blade id. The blade must hold no allocations.
func (a *Allocator) RetireBlade(id BladeID) error {
	b, err := a.blade(id)
	if err != nil {
		return err
	}
	if b.retired {
		return nil
	}
	if b.allocated != 0 {
		return fmt.Errorf("%w: blade %d has %d reserved bytes", ErrBladeBusy, id, b.allocated)
	}
	if err := a.asic.Translation.Delete(switchasic.WildcardPDID,
		uint64(b.partition.Base), b.partition.Size); err != nil {
		return fmt.Errorf("ctrlplane: withdraw partition rule for blade %d: %w", id, err)
	}
	b.unavailable = true
	b.retired = true
	return nil
}
