package coherence

import (
	"fmt"
	"sort"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/switchasic"
)

// This file implements region management: the ctrlplane.RegionDirectory
// interface consumed by the Bounded Splitting algorithm (§5), plus the
// reset recovery mechanism (§4.4) and directory entry removal (§6.3).
//
// All iteration runs over the block-indexed region table, whose natural
// order is ascending base address — the deterministic order the old
// map-based code had to sort into explicitly.

var _ ctrlplane.RegionDirectory = (*Directory)(nil)

// EachRegion calls fn with each live region's current-epoch counters,
// in ascending base order.
func (d *Directory) EachRegion(fn func(ctrlplane.RegionStat)) {
	d.rt.forEach(func(r *Region) {
		fn(ctrlplane.RegionStat{
			Base:          r.Base,
			Size:          r.Size,
			FalseInvals:   uint64(r.falseInvals),
			Invalidations: uint64(r.invalsEpoch),
		})
	})
}

// ResetEpochCounters zeroes per-epoch false invalidation counters.
func (d *Directory) ResetEpochCounters() {
	d.rt.forEach(func(r *Region) {
		r.falseInvals = 0
		r.invalsEpoch = 0
	})
}

// SlotsInUse returns current directory SRAM occupancy.
func (d *Directory) SlotsInUse() int { return d.asic.Directory.InUse() }

// SlotCapacity returns the directory SRAM capacity (0 = unlimited).
func (d *Directory) SlotCapacity() int { return d.asic.Directory.Capacity() }

// --- Migration freezes (online elasticity) ---

// FreezeRange gates new page requests inside r: they bounce with Retry
// until UnfreezeRange. The mover resets the covered regions next, so
// by the time data moves no blade caches any page of r.
func (d *Directory) FreezeRange(r mem.Range) { d.frozen = append(d.frozen, r) }

// UnfreezeRange lifts the gate installed by FreezeRange (exact match).
func (d *Directory) UnfreezeRange(r mem.Range) {
	for i, f := range d.frozen {
		if f == r {
			d.frozen = append(d.frozen[:i], d.frozen[i+1:]...)
			return
		}
	}
}

// SetFreezeAll gates every page request (switch-failover blackout).
func (d *Directory) SetFreezeAll(on bool) { d.freezeAll = on }

// FrozenRanges returns how many range freezes are active (diagnostics).
func (d *Directory) FrozenRanges() int { return len(d.frozen) }

func (d *Directory) isFrozen(va mem.VA) bool {
	for _, f := range d.frozen {
		if f.Contains(va) {
			return true
		}
	}
	return false
}

// frozenOverlaps reports whether any frozen range overlaps [base,
// base+size).
func (d *Directory) frozenOverlaps(base mem.VA, size uint64) bool {
	if d.freezeAll {
		return true
	}
	r := mem.Range{Base: base, Size: size}
	for _, f := range d.frozen {
		if f.Overlaps(r) {
			return true
		}
	}
	return false
}

// RegionsOverlapping returns the bases of live regions overlapping r, in
// ascending order — the reset work list of a migration or failover.
func (d *Directory) RegionsOverlapping(r mem.Range) []mem.VA {
	var out []mem.VA
	d.rt.forEach(func(reg *Region) {
		if r.Overlaps(mem.Range{Base: reg.Base, Size: reg.Size}) {
			out = append(out, reg.Base)
		}
	})
	return out
}

// AllRegionBases returns every live region base in ascending order.
func (d *Directory) AllRegionBases() []mem.VA {
	out := make([]mem.VA, 0, d.rt.count)
	d.rt.forEach(func(r *Region) { out = append(out, r.Base) })
	return out
}

// SplitRegion splits the region based at base into two halves, allocating
// one extra SRAM slot. Children conservatively inherit the parent's
// coherence state and sharers. Busy regions cannot split (§6.3 performs
// directory updates atomically between transitions).
func (d *Directory) SplitRegion(base mem.VA) error {
	r := d.rt.exact(base)
	if r == nil {
		return ErrNoRegion
	}
	if r.busy || r.nwait > 0 || r.resetting {
		return ErrRegionBusy
	}
	if d.frozenOverlaps(r.Base, r.Size) {
		// The region is about to be reset by a migration; granularity
		// changes mid-flight would orphan half the reset.
		return ErrRegionBusy
	}
	if r.Size <= mem.PageSize {
		return fmt.Errorf("coherence: region %#x already at page size", uint64(base))
	}
	slot, err := d.asic.Directory.Alloc()
	if err != nil {
		return err
	}
	half := r.Size / 2
	sibling := d.allocRegion()
	sibling.Base, sibling.Size = r.Base+mem.VA(half), half
	sibling.state, sibling.owner, sibling.slot = r.state, r.owner, int32(slot)
	sibling.sharers = r.sharers
	r.Size = half
	// Split the epoch's signal between the halves; it re-accumulates with
	// real traffic next epoch.
	sibling.falseInvals = r.falseInvals / 2
	r.falseInvals -= sibling.falseInvals
	sibling.invalsEpoch = r.invalsEpoch / 2
	r.invalsEpoch -= sibling.invalsEpoch

	d.rt.insert(sibling)
	d.col.IncH(d.hSplits, 1)
	return nil
}

// MergeRegion merges the region based at lo with its (same-size) buddy,
// releasing one slot. If the buddy address range has no directory entry
// at all, the region simply expands over the empty space (no slot is
// freed). Merging fails when either side is mid-transition, when the
// result would exceed the top-level size, or when coherence states are
// incompatible (two different Modified owners).
func (d *Directory) MergeRegion(lo mem.VA) error {
	r := d.rt.exact(lo)
	if r == nil {
		return ErrNoRegion
	}
	if r.busy || r.nwait > 0 || r.resetting {
		return ErrRegionBusy
	}
	if r.Size*2 > d.cfg.TopLevelSize {
		return fmt.Errorf("coherence: merge would exceed top-level size")
	}
	if d.frozenOverlaps(lo^mem.VA(r.Size), r.Size) || d.frozenOverlaps(lo, r.Size) {
		return ErrRegionBusy
	}
	buddyBase := lo ^ mem.VA(r.Size)
	buddy := d.rt.exact(buddyBase)
	if buddy == nil {
		// Expansion into uncovered space (either side): legal only if
		// nothing overlaps the buddy range.
		if d.rt.overlaps(buddyBase, r.Size) {
			return fmt.Errorf("coherence: buddy range partially covered")
		}
		if buddyBase < lo {
			// The region's base moves down; rekey it.
			d.rt.remove(lo)
			r.Base = buddyBase
			d.rt.insert(r)
		}
		r.Size *= 2
		return nil
	}
	if buddyBase < lo {
		// Normalize pair merges onto the lower half.
		return d.MergeRegion(buddyBase)
	}
	if buddy.Size != r.Size {
		return fmt.Errorf("coherence: buddy sizes differ (%d vs %d)", r.Size, buddy.Size)
	}
	if buddy.busy || buddy.nwait > 0 || buddy.resetting {
		return ErrRegionBusy
	}
	st, owner, err := mergeStates(r, buddy)
	if err != nil {
		return err
	}
	r.state, r.owner = st, int32(owner)
	r.sharers |= buddy.sharers
	r.falseInvals = satAdd(r.falseInvals, buddy.falseInvals)
	r.invalsEpoch = satAdd(r.invalsEpoch, buddy.invalsEpoch)
	r.Size *= 2
	slot := buddy.slot
	d.dropRegion(buddy)
	if err := d.asic.Directory.Release(switchasic.SlotID(slot)); err != nil {
		panic(fmt.Sprintf("coherence: releasing buddy slot: %v", err))
	}
	d.col.IncH(d.hMerges, 1)
	return nil
}

// mergeStates combines two buddies' coherence state conservatively; the
// merged region's sharers are the union of theirs. Two Modified owners,
// or an owner beside a foreign sharer, cannot merge.
func mergeStates(a, b *Region) (State, int, error) {
	switch {
	case a.state == Invalid && b.state == Invalid:
		return Invalid, 0, nil
	case a.state != Modified && b.state != Modified:
		return Shared, 0, nil
	case a.state == Modified && b.state == Modified:
		if a.owner != b.owner {
			return 0, 0, ErrCannotMerge
		}
		return Modified, int(a.owner), nil
	case a.state == Modified:
		if b.sharers.OnlyMember(int(a.owner)) {
			return Modified, int(a.owner), nil
		}
		return 0, 0, ErrCannotMerge
	default: // b Modified
		if a.sharers.OnlyMember(int(b.owner)) {
			return Modified, int(b.owner), nil
		}
		return 0, 0, ErrCannotMerge
	}
}

// mergeable reports whether two buddies' coherence states can merge.
func mergeable(a, b *Region) bool {
	_, _, err := mergeStates(a, b)
	return err == nil
}

// emergencyMerge coarsens the coldest mergeable buddy pair to free one
// slot when region creation finds the SRAM full. Returns false if nothing
// can merge.
func (d *Directory) emergencyMerge() bool {
	var (
		bestLo   mem.VA
		bestHeat uint64
		found    bool
	)
	d.rt.forEach(func(r *Region) {
		if r.busy || r.nwait > 0 || r.Size*2 > d.cfg.TopLevelSize {
			return
		}
		buddyBase := r.Base ^ mem.VA(r.Size)
		if buddyBase < r.Base {
			return
		}
		buddy := d.rt.exact(buddyBase)
		if buddy == nil || buddy.Size != r.Size || buddy.busy || buddy.nwait > 0 {
			return
		}
		if !mergeable(r, buddy) {
			return
		}
		heat := uint64(r.falseInvals) + uint64(buddy.falseInvals)
		if !found || heat < bestHeat || (heat == bestHeat && r.Base < bestLo) {
			found, bestLo, bestHeat = true, r.Base, heat
		}
	})
	if !found {
		return false
	}
	return d.MergeRegion(bestLo) == nil
}

// SwapASIC repoints the directory at a backup data plane after failover
// (§4.4). The directory must be empty — all regions reset — since SRAM
// slot ids are not portable across ASICs.
func (d *Directory) SwapASIC(a *switchasic.ASIC) {
	if d.rt.count != 0 {
		panic("coherence: SwapASIC with live regions; reset them first")
	}
	d.asic = a
}

// RemoveRegion deletes a directory entry outright (munmap / reset path,
// §6.3 "removing a directory entry follows the reverse procedure"). The
// region must be idle.
func (d *Directory) RemoveRegion(base mem.VA) error {
	r := d.rt.exact(base)
	if r == nil {
		return ErrNoRegion
	}
	if r.busy || r.nwait > 0 {
		return ErrRegionBusy
	}
	slot := r.slot
	d.dropRegion(r)
	if err := d.asic.Directory.Release(switchasic.SlotID(slot)); err != nil {
		panic(fmt.Sprintf("coherence: releasing slot: %v", err))
	}
	return nil
}

// ResetRegion implements the §4.4 recovery path: when a compute blade
// exhausts retransmissions for an address, it asks the control plane to
// reset. All compute blades flush their data for the region, pending
// requests are failed with Retry, and the directory entry is removed.
// done fires when the reset is complete.
func (d *Directory) ResetRegion(va mem.VA, done func()) {
	r, err := d.Lookup(va)
	if err != nil {
		// Nothing tracked: reset is trivially complete.
		d.eng.Schedule(0, done)
		return
	}
	d.col.IncH(d.hResets, 1)
	r.resetting = true
	r.holds++ // until removeAfterReset

	// Answer every request on the region with Retry, in key order: the
	// queued waiters and the in-flight transition (if any), which is
	// abandoned — its completion is superseded. All of them are in the
	// in-flight table.
	r.takeWaiters()
	var retry []*pending
	for _, p := range d.inFlight {
		if r.Contains(p.key.page) {
			retry = append(retry, p)
		}
	}
	sort.Slice(retry, func(i, j int) bool {
		a, b := retry[i].key, retry[j].key
		if a.page != b.page {
			return a.page < b.page
		}
		if a.blade != b.blade {
			return a.blade < b.blade
		}
		return a.want < b.want
	})
	for _, p := range retry {
		d.bounce(p, Completion{Retry: true})
	}

	// Force every registered compute blade, in ascending order, to flush
	// and drop the region. Unlike data-plane invalidations, the reset
	// travels over the control plane's reliable TCP connections (§4.4,
	// §6.1) — it must make progress even when the data path is lossy,
	// otherwise recovery itself could wedge.
	inv := Invalidation{Region: r.Range(), Requested: mem.PageBase(va), Reset: true}
	half := sim.Duration(int64(d.fab.Config().CtrlRTT) / 2)
	remaining := 0
	for _, port := range d.blades {
		if port == nil {
			continue
		}
		remaining++
		d.eng.Schedule(half, func() {
			port.HandleInvalidation(inv, func(info AckInfo) {
				d.eng.Schedule(half, func() {
					d.col.IncH(d.hFlushed, uint64(info.FlushedDirty))
					remaining--
					if remaining == 0 {
						d.removeAfterReset(r)
						done()
					}
				})
			})
		})
	}
	if remaining == 0 {
		d.removeAfterReset(r)
		d.eng.Schedule(0, done)
	}
}

func (d *Directory) removeAfterReset(r *Region) {
	r.busy = false
	// Requests that slipped into the waiter queue during the reset are
	// bounced with Retry (their retransmissions were deduped against the
	// in-flight table, so they must be answered, not dropped).
	for _, p := range r.takeWaiters() {
		d.bounce(p, Completion{Retry: true})
	}
	r.resetting = false
	// A second reset of the same region finds it gone, or replaced by a
	// newer region a request built after the first reset finished.
	if d.rt.exact(r.Base) == r {
		_ = d.RemoveRegion(r.Base)
	}
	d.unholdRegion(r)
}
