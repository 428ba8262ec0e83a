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

	"mind/internal/bitset"
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

// Region is one directory entry: a power-of-two, size-aligned virtual
// address range tracked as a unit by the coherence protocol. Pages are
// cached individually at compute blades; the region is the invalidation
// granularity (§4.3.1 "Decoupling cache access & directory entry
// granularities").
type Region struct {
	Base mem.VA
	Size uint64

	state State
	// busy serializes transitions: while a transition is collecting ACKs
	// or data, conflicting requests queue in waiters, a ring whose
	// buffer is bounded by the queue's deepest point, not by how many
	// requests have passed through it — a hot region under slow
	// cross-rack faults can keep its queue non-empty for a whole run.
	busy bool
	// resetting marks a §4.4 reset in progress: new requests bounce with
	// Retry until the entry is removed.
	resetting bool
	// holds counts what can reach the region outside the table: the
	// request whose transition claimed it, until that request is
	// recycled, and each §4.4 reset in progress on it. dropped marks a
	// region taken out of the table. A dropped region nothing holds is
	// recycled for the next directory entry; gen counts its identities.
	// (The small fields share one word: a Region is 120 bytes.)
	dropped bool
	gen     uint32
	holds   int

	owner int // valid when state == Modified
	// sharers is the set of compute blades possibly holding pages, as a
	// bitmap over blade IDs — one uint64 word covers a 64-blade rack, so
	// sharer-set updates and the egress-pruning intersection are
	// word-parallel instead of per-member map operations.
	sharers bitset.Set

	waiters sim.Queue[pending]

	// falseInvals counts dirty pages flushed beyond the requested page
	// during this epoch — the signal Bounded Splitting consumes (§5.1).
	falseInvals uint64
	// invalsEpoch counts invalidation deliveries for the region this
	// epoch (the merge policy's hotness signal).
	invalsEpoch uint64

	slot int // SRAM slot id (diagnostic)
}

// State returns the region's MSI state.
func (r *Region) State() State { return r.state }

// Owner returns the owning blade (meaningful in Modified).
func (r *Region) Owner() int { return r.owner }

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
