// Package coherence implements MIND's in-network cache-coherence layer
// (§4.3, §6.3): a directory-based MSI protocol whose directory lives in
// the switch data plane, tracks dynamically-sized memory regions (the
// storage/performance trade-off of §4.3.1), invalidates sharers through
// the switch's native multicast with egress pruning (§4.3.2), and
// recovers from communication failures with ACKs, timeouts and a reset
// mechanism (§4.4).
//
// The directory also implements ctrlplane.RegionDirectory, so the control
// plane's Bounded Splitting algorithm (§5) drives region granularity.
package coherence

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mind/internal/mem"
	"mind/internal/sim"
)

// State is a stable MSI directory state (§2.1).
type State uint8

// MSI states.
const (
	Invalid  State = iota // no cache holds the region
	Shared                // >= 1 caches hold read-only copies
	Modified              // exactly one cache owns the region read-write
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrRegionBusy is returned when a split/merge is attempted while a
// transition is in flight on the region.
var ErrRegionBusy = errors.New("coherence: region transition in flight")

// ErrNoRegion is returned when no directory entry covers an address.
var ErrNoRegion = errors.New("coherence: no directory entry")

// ErrCannotMerge is returned when buddy regions have incompatible
// coherence state (e.g. two different owners in Modified).
var ErrCannotMerge = errors.New("coherence: buddy states incompatible")

// MaxBlades is the number of compute blades one directory can track: a
// sharer set is one 64-bit word over blade ids 0..63. A MIND rack is one
// switch, so this bounds the compute blades of a rack.
const MaxBlades = 64

// bladeSet is a set of compute-blade ids 0..MaxBlades-1, one bit each: a
// sharer bitmap as the switch keeps it, so every sharer-set update and
// test is one word operation.
type bladeSet uint64

// bladeOf returns the set {i}.
func bladeOf(i int) bladeSet { return 1 << uint(i) }

// Add inserts blade i.
func (s *bladeSet) Add(i int) { *s |= bladeOf(i) }

// Has reports whether blade i is a member.
func (s bladeSet) Has(i int) bool { return s&bladeOf(i) != 0 }

// Count returns the number of members.
func (s bladeSet) Count() int { return bits.OnesCount64(uint64(s)) }

// OnlyMember reports whether the set is empty or exactly {only}.
func (s bladeSet) OnlyMember(only int) bool { return s&^bladeOf(only) == 0 }

// AppendTo appends the members in ascending order to dst.
func (s bladeSet) AppendTo(dst []int) []int {
	for w := uint64(s); w != 0; w &= w - 1 {
		dst = append(dst, bits.TrailingZeros64(w))
	}
	return dst
}

// Region is one directory entry: a power-of-two, size-aligned virtual
// address range tracked as a unit by the coherence protocol. Pages are
// cached individually at compute blades; the region is the invalidation
// granularity (§4.3.1 "Decoupling cache access & directory entry
// granularities").
//
// Like an entry in the switch's SRAM it is a fixed-width record, 64
// bytes (one cache line, TestRegionSize): the range, the MSI state and
// flags, the owner, the sharer word, two per-epoch counters, and the
// waiter count inline, with the waiter queue behind a pointer.
type Region struct {
	Base mem.VA
	Size uint64

	state State
	// busy serializes transitions: while a transition is collecting ACKs
	// or data, conflicting requests queue in waiters.
	busy bool
	// resetting marks a §4.4 reset in progress: new requests bounce with
	// Retry until the entry is removed.
	resetting bool
	// holds counts what can reach the region outside the table: the
	// request whose transition claimed it, until that request is
	// recycled, and each §4.4 reset in progress on it. dropped marks a
	// region taken out of the table. A dropped region nothing holds is
	// recycled for the next directory entry; gen counts its identities.
	dropped bool
	gen     uint32
	holds   int32

	owner int32 // valid when state == Modified
	// slot is the region's SRAM slot in the ASIC's directory store; a
	// merge or removal releases it there, so a wrong value would leak
	// or double-free a slot. The store hands out its lowest free ids,
	// so an id stays below the peak entry count rounded up to 64.
	slot int32

	// invalsEpoch counts invalidation deliveries for the region this
	// epoch (the merge policy's hotness signal); falseInvals counts
	// dirty pages flushed beyond the requested page (the signal Bounded
	// Splitting consumes, §5.1). Both are zeroed each splitter epoch;
	// a run without the splitter never zeroes them, so they saturate
	// (satAdd) instead of wrapping.
	invalsEpoch uint32
	falseInvals uint32

	// nwait is how many requests wait in waiters. The count lives in the
	// entry so that the common case, no waiters, never follows the
	// pointer.
	nwait uint32
	// sharers is the set of compute blades possibly holding pages.
	sharers bladeSet
	// waiters is the FIFO of requests that reached the region while it
	// was busy, made on the first push and kept, empty, when the region
	// is recycled. Its ring is bounded by the queue's deepest point, not
	// by how many requests have passed through it — a hot region under
	// slow cross-rack faults can keep its queue non-empty for a whole
	// run.
	waiters *sim.Queue[pending]
}

// satAdd returns a+b, saturating at the largest uint32.
func satAdd(a, b uint32) uint32 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint32
}

// pushWaiter queues p behind the region's transition in flight.
func (r *Region) pushWaiter(p *pending) {
	if r.waiters == nil {
		r.waiters = new(sim.Queue[pending])
	}
	r.waiters.Push(p)
	r.nwait++
}

// popWaiter removes and returns the oldest waiter, or nil.
func (r *Region) popWaiter() *pending {
	if r.nwait == 0 {
		return nil
	}
	r.nwait--
	return r.waiters.Pop()
}

// takeWaiters empties the queue and returns its requests in FIFO order.
func (r *Region) takeWaiters() []*pending {
	if r.nwait == 0 {
		return nil
	}
	r.nwait = 0
	return r.waiters.TakeAll()
}

// State returns the region's MSI state.
func (r *Region) State() State { return r.state }

// Owner returns the owning blade (meaningful in Modified).
func (r *Region) Owner() int { return int(r.owner) }

// Sharers returns the blades currently listed as sharers, ascending.
func (r *Region) Sharers() []int { return r.sharers.AppendTo(nil) }

// Range returns the region's address range.
func (r *Region) Range() mem.Range { return mem.Range{Base: r.Base, Size: r.Size} }

// Contains reports whether va falls inside the region.
func (r *Region) Contains(va mem.VA) bool {
	return va >= r.Base && va < r.Base+mem.VA(r.Size)
}

func (r *Region) String() string {
	return fmt.Sprintf("region{%#x +%#x %v owner=%d sharers=%d}",
		uint64(r.Base), r.Size, r.state, r.owner, r.sharers.Count())
}
