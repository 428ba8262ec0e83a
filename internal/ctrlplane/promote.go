package ctrlplane

// Pod-scale placement policy: blade lending (the control-plane side of
// cross-rack capacity borrowing) and the epoch-driven promotion planner
// that decides which remote-homed vmas migrate back to local memory.
// As with drains, this layer only decides *where* memory goes; the data
// movement is orchestrated by core.

import (
	"sort"

	"mind/internal/mem"
)

// LendableBlade returns a blade this rack can lend to another rack for
// a reservation of need bytes: available, retaining no allocations,
// with a partition of at least need bytes, and accepted by the
// eligible predicate (nil = all; the pod passes one that excludes
// blades this rack itself borrowed — re-lending would record the wrong
// physical owner) — provided at least one other available blade
// remains, so the lender cannot strand itself. Among candidates the
// highest id wins (low ids stay for local use), which keeps the choice
// deterministic.
func (a *Allocator) LendableBlade(need uint64, eligible func(BladeID) bool) (BladeID, bool) {
	avail := 0
	for _, b := range a.blades {
		if !b.unavailable {
			avail++
		}
	}
	if avail < 2 {
		return 0, false
	}
	for i := len(a.blades) - 1; i >= 0; i-- {
		b := a.blades[i]
		if b.unavailable || b.allocated != 0 || b.partition.Size < need {
			continue
		}
		if eligible != nil && !eligible(b.id) {
			continue
		}
		return b.id, true
	}
	return 0, false
}

// PromotionPolicy parameterizes PlanPromotions.
type PromotionPolicy struct {
	// Threshold is the minimum epoch heat a remote blade must show
	// before its vmas are considered hot.
	Threshold uint64
	// MaxVMAs bounds the plan length (0 = unbounded).
	MaxVMAs int
}

// Promotion is one planned vma migration from a remote-homed blade to a
// local one.
type Promotion struct {
	Base     mem.VA
	Reserved uint64
	From, To BladeID
}

// PlanPromotions computes a deterministic promotion plan: remote blades
// whose epoch heat reached the policy threshold are visited hottest
// first (ties to the lower id), and each of their vmas (ascending base)
// is assigned the least-loaded *local* available blade with capacity,
// loads projected as earlier steps complete. vmas with no local fit are
// skipped — they retry next epoch, when promotions may have freed
// space.
func (a *Allocator) PlanPromotions(isRemote func(BladeID) bool, heat func(BladeID) uint64, pol PromotionPolicy) []Promotion {
	type hotBlade struct {
		id BladeID
		h  uint64
	}
	var hot []hotBlade
	for i := range a.blades {
		id := BladeID(i)
		b := a.blades[i]
		// An unavailable blade is draining or failed: its vmas are owned
		// by that recovery flow — planning a promotion off it too would
		// race two freeze→copy→Migrate chains over the same vma.
		if b.retired || b.unavailable || b.allocated == 0 || !isRemote(id) {
			continue
		}
		if h := heat(id); h > 0 && h >= pol.Threshold {
			hot = append(hot, hotBlade{id, h})
		}
	}
	if len(hot) == 0 {
		// The common idle epoch: nothing hot, nothing allocated.
		return nil
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].h != hot[j].h {
			return hot[i].h > hot[j].h
		}
		return hot[i].id < hot[j].id
	})
	extra := make(map[BladeID]uint64)
	var out []Promotion
	for _, hb := range hot {
		for _, base := range a.AllocationsOn(hb.id) {
			if pol.MaxVMAs > 0 && len(out) >= pol.MaxVMAs {
				return out
			}
			al := a.allocs[base]
			to, ok := a.pickTarget(func(id BladeID) bool {
				return id == hb.id || isRemote(id)
			}, al.reserved, extra)
			if !ok {
				continue
			}
			out = append(out, Promotion{Base: base, Reserved: al.reserved, From: hb.id, To: to})
			extra[to] += al.reserved
		}
	}
	return out
}
