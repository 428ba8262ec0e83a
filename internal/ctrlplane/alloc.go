// Package ctrlplane implements MIND's switch control plane (§3.2, §6.3):
// memory allocation with balanced placement across memory blades and
// per-blade first-fit address-space management (§4.1), vma-granularity
// protection-table compilation into power-of-two TCAM entries with
// coalescing (§4.2), process/thread management (§6.1), and the Bounded
// Splitting algorithm that dynamically sizes cache-directory regions
// (§5).
//
// The control plane runs on the switch CPU; it pushes policy into the
// switch ASIC data plane (package switchasic) and is the single point
// with a global view of allocations and memory traffic (principle P2).
package ctrlplane

import (
	"errors"
	"fmt"
	"sort"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

// ErrNoMemory is returned when no memory blade can satisfy an allocation
// (maps to Linux ENOMEM at the syscall shim, §6.1).
var ErrNoMemory = errors.New("ctrlplane: out of disaggregated memory (ENOMEM)")

// ErrBadAddress is returned for frees/lookups of unknown vmas (EINVAL).
var ErrBadAddress = errors.New("ctrlplane: no vma at address (EINVAL)")

// BladeID identifies a memory blade.
type BladeID int

// freeRange is one hole in a blade's partition.
type freeRange struct {
	base mem.VA
	size uint64
}

// freeList is a first-fit allocator over one blade's address partition —
// the traditional virtual-memory allocation scheme the paper adopts to
// minimize external fragmentation (§4.1, [57]).
type freeList struct {
	holes []freeRange // sorted by base, non-adjacent
}

func newFreeList(r mem.Range) *freeList {
	return &freeList{holes: []freeRange{{base: r.Base, size: r.Size}}}
}

// allocAligned carves the first size-aligned chunk of the given
// power-of-two size, returning false if no hole fits one.
func (f *freeList) allocAligned(size uint64) (mem.VA, bool) {
	for i, h := range f.holes {
		start := mem.AlignUp(h.base, size)
		if uint64(start-h.base) >= h.size || h.size-uint64(start-h.base) < size {
			continue
		}
		end := start + mem.VA(size)
		holeEnd := h.base + mem.VA(h.size)
		// Replace hole with up to two remainders.
		var repl []freeRange
		if start > h.base {
			repl = append(repl, freeRange{base: h.base, size: uint64(start - h.base)})
		}
		if end < holeEnd {
			repl = append(repl, freeRange{base: end, size: uint64(holeEnd - end)})
		}
		f.holes = append(f.holes[:i], append(repl, f.holes[i+1:]...)...)
		return start, true
	}
	return 0, false
}

// canAlloc reports whether allocAligned would succeed, without mutating.
func (f *freeList) canAlloc(size uint64) bool {
	for _, h := range f.holes {
		start := mem.AlignUp(h.base, size)
		if uint64(start-h.base) < h.size && h.size-uint64(start-h.base) >= size {
			return true
		}
	}
	return false
}

// free returns a chunk, coalescing with neighbors.
func (f *freeList) free(base mem.VA, size uint64) {
	i := sort.Search(len(f.holes), func(i int) bool { return f.holes[i].base > base })
	f.holes = append(f.holes, freeRange{})
	copy(f.holes[i+1:], f.holes[i:])
	f.holes[i] = freeRange{base: base, size: size}
	// Coalesce with successor, then predecessor.
	if i+1 < len(f.holes) && f.holes[i].base+mem.VA(f.holes[i].size) == f.holes[i+1].base {
		f.holes[i].size += f.holes[i+1].size
		f.holes = append(f.holes[:i+1], f.holes[i+2:]...)
	}
	if i > 0 && f.holes[i-1].base+mem.VA(f.holes[i-1].size) == f.holes[i].base {
		f.holes[i-1].size += f.holes[i].size
		f.holes = append(f.holes[:i], f.holes[i+1:]...)
	}
}

// allocation records one live vma with its reserved (power-of-two)
// footprint and current home blade.
type allocation struct {
	vma      mem.VMA
	reserved uint64
	blade    BladeID
	migrated bool // has outlier translation entries
}

type bladeState struct {
	id        BladeID
	partition mem.Range
	free      *freeList
	allocated uint64 // reserved bytes currently placed on this blade

	// unavailable excludes the blade from new placements (it is draining
	// or has failed); retired additionally means its partition rule has
	// been withdrawn from the TCAM (see RetireBlade).
	unavailable bool
	retired     bool
}

// Allocator owns the global virtual address space: it range-partitions
// the space across memory blades (one translation entry per blade, §4.1),
// places allocations for load balance, and manages each partition with a
// first-fit allocator.
type Allocator struct {
	asic *switchasic.ASIC

	blades []*bladeState
	nextVA mem.VA
	// limitVA is the exclusive end of this allocator's addresses: its
	// stripe's end (see SetAddressStripe), and never past mem.VALimit.
	limitVA mem.VA
	allocs  map[mem.VA]*allocation // by vma base
	nAllocs uint64
}

// NewAllocator creates an allocator that installs translation rules into
// asic. The address space begins at 4 GB to keep low addresses (null
// page, legacy mappings) unused, and ends at mem.VALimit.
func NewAllocator(asic *switchasic.ASIC) *Allocator {
	return &Allocator{
		asic:    asic,
		nextVA:  mem.VA(1) << 32,
		limitVA: mem.VALimit,
		allocs:  make(map[mem.VA]*allocation),
	}
}

// AddBlade registers a memory blade with the given capacity (a power of
// two). The blade is assigned a contiguous partition of the global
// virtual address space and a single translation TCAM entry — mappings
// change only when blades join or retire or memory migrates (§4.1).
func (a *Allocator) AddBlade(capacity uint64) (BladeID, error) {
	if !mem.IsPow2(capacity) || capacity < mem.PageSize {
		return 0, fmt.Errorf("ctrlplane: blade capacity %#x must be a power of two >= page size", capacity)
	}
	id := BladeID(len(a.blades))
	base := mem.AlignUp(a.nextVA, capacity)
	part := mem.Range{Base: base, Size: capacity}
	if base >= a.limitVA || uint64(a.limitVA-base) < capacity {
		return 0, fmt.Errorf("ctrlplane: blade partition [%#x,+%#x) exceeds the allocator's address range (ends %#x): %w",
			uint64(base), capacity, uint64(a.limitVA), ErrNoMemory)
	}
	if err := a.asic.Translation.Insert(switchasic.Entry{
		PDID:  switchasic.WildcardPDID,
		Base:  uint64(part.Base),
		Size:  part.Size,
		Value: int64(id),
	}); err != nil {
		return 0, fmt.Errorf("ctrlplane: install translation for blade %d: %w", id, err)
	}
	a.blades = append(a.blades, &bladeState{id: id, partition: part, free: newFreeList(part)})
	a.nextVA = part.End()
	return id, nil
}

// SetAddressStripe confines the allocator to [base, base+size) of the
// global virtual address space — a pod gives each rack's allocator a
// disjoint stripe so addresses are pod-unique, and AddBlade refuses to
// grow past the stripe's end (otherwise a fully-loaded or long-churned
// rack could silently spill into its neighbour's stripe and a lent page
// store would see aliased addresses). A stripe past mem.VALimit is cut
// there. Must be called before any blade is registered.
func (a *Allocator) SetAddressStripe(base mem.VA, size uint64) {
	if len(a.blades) != 0 {
		panic("ctrlplane: SetAddressStripe after blades registered")
	}
	if base < mem.VA(1)<<32 {
		base = mem.VA(1) << 32
	}
	a.nextVA = base
	a.limitVA = min(base+mem.VA(size), mem.VALimit)
}

// Blades returns the number of registered memory blades.
func (a *Allocator) Blades() int { return len(a.blades) }

// BladeCapacity returns the partition size of blade id.
func (a *Allocator) BladeCapacity(id BladeID) (uint64, error) {
	b, err := a.blade(id)
	if err != nil {
		return 0, err
	}
	return b.partition.Size, nil
}

// BladeLoad returns the reserved bytes currently placed on each blade —
// the loads Figure 8 (right) feeds into Jain's fairness index.
func (a *Allocator) BladeLoad() []float64 {
	out := make([]float64, len(a.blades))
	for i, b := range a.blades {
		out[i] = float64(b.allocated)
	}
	return out
}

// Alloc reserves an area of at least length bytes for the given
// protection domain. The reservation is rounded up to a power of two and
// aligned to its size so that the vma is representable as a single TCAM
// protection entry (§4.2). It returns the vma, Linux-style.
func (a *Allocator) Alloc(pdid mem.PDID, length uint64, perm mem.Perm) (mem.VMA, error) {
	if length == 0 {
		return mem.VMA{}, fmt.Errorf("ctrlplane: zero-length allocation: %w", ErrBadAddress)
	}
	if length > 1<<63 {
		// No power of two holds it, and no address space could.
		return mem.VMA{}, ErrNoMemory
	}
	size := mem.NextPow2(length)
	if size < mem.PageSize {
		size = mem.PageSize
	}
	// Balanced placement (§4.1): the least-loaded available blade with
	// physical room and an aligned hole of size in its own partition.
	id, ok := a.pickTarget(func(id BladeID) bool { return !a.blades[id].free.canAlloc(size) }, size, nil)
	if !ok {
		return mem.VMA{}, ErrNoMemory
	}
	b := a.blades[id]
	base, _ := b.free.allocAligned(size) // canAlloc saw the hole
	v := mem.VMA{Base: base, Len: length, PDID: pdid, Perm: perm}
	a.allocs[base] = &allocation{vma: v, reserved: size, blade: b.id}
	b.allocated += size
	a.nAllocs++
	return v, nil
}

// outlierRanges returns the TCAM ranges that carry a migrated vma's
// outlier entries. Normally this is the power-of-two split of its
// reserved footprint; a vma spanning its entire home partition would
// collide with the partition rule (same base and size, so LPM cannot
// prefer it), and is represented as two half-partition entries instead.
// Migrate and Free must agree on this shape.
func (a *Allocator) outlierRanges(base mem.VA, reserved uint64) []mem.Range {
	ranges := mem.SplitPow2(base, reserved)
	home := a.homeBlade(base)
	if home != nil && len(ranges) == 1 && ranges[0] == home.partition && ranges[0].Size > mem.PageSize {
		half := ranges[0].Size / 2
		return []mem.Range{
			{Base: ranges[0].Base, Size: half},
			{Base: ranges[0].Base + mem.VA(half), Size: half},
		}
	}
	return ranges
}

// Free releases the vma based at base. Outlier translation entries for
// migrated areas are removed.
func (a *Allocator) Free(base mem.VA) error {
	al, ok := a.allocs[base]
	if !ok {
		return ErrBadAddress
	}
	if al.migrated {
		for _, r := range a.outlierRanges(base, al.reserved) {
			_ = a.asic.Translation.Delete(switchasic.WildcardPDID, uint64(r.Base), r.Size)
		}
	}
	// The space always returns to the home partition's free list.
	home := a.homeBlade(base)
	home.free.free(base, al.reserved)
	a.bladeByID(al.blade).allocated -= al.reserved
	delete(a.allocs, base)
	return nil
}

// homeBlade returns the blade whose partition contains va.
func (a *Allocator) homeBlade(va mem.VA) *bladeState {
	for _, b := range a.blades {
		if b.partition.Contains(va) {
			return b
		}
	}
	return nil
}

func (a *Allocator) bladeByID(id BladeID) *bladeState { return a.blades[int(id)] }

// Lookup returns the allocation covering va. A vma base is one map
// probe; any other address scans the allocations.
func (a *Allocator) Lookup(va mem.VA) (mem.VMA, BladeID, error) {
	if al, ok := a.allocs[va]; ok {
		return al.vma, al.blade, nil
	}
	for base, al := range a.allocs {
		if va >= base && va < base+mem.VA(al.reserved) {
			return al.vma, al.blade, nil
		}
	}
	return mem.VMA{}, 0, ErrBadAddress
}

// Reserved returns the reserved (power-of-two) footprint of the vma at
// base.
func (a *Allocator) Reserved(base mem.VA) (uint64, error) {
	al, ok := a.allocs[base]
	if !ok {
		return 0, ErrBadAddress
	}
	return al.reserved, nil
}

// Migrate moves the vma at base to blade to, modelling OS page migration
// (§4.1 "Transparency via outlier entries"): the area keeps its virtual
// addresses, and more-specific outlier translation entries route it to
// the new blade via the TCAM's LPM property.
func (a *Allocator) Migrate(base mem.VA, to BladeID) error {
	al, ok := a.allocs[base]
	if !ok {
		return ErrBadAddress
	}
	if int(to) < 0 || int(to) >= len(a.blades) {
		return fmt.Errorf("ctrlplane: no blade %d", to)
	}
	if a.blades[int(to)].unavailable {
		// Retired, draining or failed: data must not be routed there —
		// a drain whose planned target died retries with the pages still
		// safe on the source.
		return fmt.Errorf("%w: blade %d", ErrBladeUnavailable, to)
	}
	if al.blade == to {
		return nil
	}
	ranges := a.outlierRanges(base, al.reserved)
	// Remove any previous outliers; home-partition routing resumes below.
	wasMigrated := al.migrated
	if wasMigrated {
		for _, r := range ranges {
			_ = a.asic.Translation.Delete(switchasic.WildcardPDID, uint64(r.Base), r.Size)
		}
		al.migrated = false
	}
	home := a.homeBlade(base)
	if to != home.id {
		// All-or-nothing install: a mid-loop failure must not leave the
		// vma half-rerouted, so installed entries are rolled back and the
		// previous routing restored (the freed entries guarantee the
		// restore fits).
		var installed []mem.Range
		rollback := func() {
			for _, u := range installed {
				_ = a.asic.Translation.Delete(switchasic.WildcardPDID, uint64(u.Base), u.Size)
			}
			if wasMigrated {
				for _, r := range ranges {
					_ = a.asic.Translation.Insert(switchasic.Entry{
						PDID:  switchasic.WildcardPDID,
						Base:  uint64(r.Base),
						Size:  r.Size,
						Value: int64(al.blade),
					})
				}
				al.migrated = true
			}
		}
		for _, r := range ranges {
			if err := a.asic.Translation.Insert(switchasic.Entry{
				PDID:  switchasic.WildcardPDID,
				Base:  uint64(r.Base),
				Size:  r.Size,
				Value: int64(to),
			}); err != nil {
				rollback()
				return fmt.Errorf("ctrlplane: install outlier entry: %w", err)
			}
			installed = append(installed, r)
		}
		al.migrated = true
	}
	a.bladeByID(al.blade).allocated -= al.reserved
	a.bladeByID(to).allocated += al.reserved
	al.blade = to
	return nil
}

// Translate resolves va to the memory blade currently holding it, the
// data-plane fast path (§4.1). It consults the TCAM so outlier entries
// take precedence via LPM.
func (a *Allocator) Translate(va mem.VA) (BladeID, error) {
	v, err := a.asic.Translation.Lookup(switchasic.WildcardPDID, uint64(va))
	if err != nil {
		return 0, fmt.Errorf("ctrlplane: translate %#x: %w", uint64(va), ErrBadAddress)
	}
	return BladeID(v), nil
}

// VMAs returns all live vmas in deterministic order (by base).
func (a *Allocator) VMAs() []mem.VMA {
	bases := make([]mem.VA, 0, len(a.allocs))
	for b := range a.allocs {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	out := make([]mem.VMA, len(bases))
	for i, b := range bases {
		out[i] = a.allocs[b].vma
	}
	return out
}

// LiveAllocations returns the number of live vmas.
func (a *Allocator) LiveAllocations() int { return len(a.allocs) }

// TotalAllocated returns the sum of reserved bytes across blades.
func (a *Allocator) TotalAllocated() uint64 {
	var n uint64
	for _, b := range a.blades {
		n += b.allocated
	}
	return n
}

// CheckNonOverlap validates the isolation invariant (§4.1): no two live
// vmas overlap. It is O(n log n) and intended for tests.
func (a *Allocator) CheckNonOverlap() error {
	vmas := a.VMAs()
	for i := 1; i < len(vmas); i++ {
		prev, err := a.Reserved(vmas[i-1].Base)
		if err != nil {
			return err
		}
		if vmas[i-1].Base+mem.VA(prev) > vmas[i].Base {
			return fmt.Errorf("ctrlplane: overlap between %v and %v", vmas[i-1], vmas[i])
		}
	}
	return nil
}
