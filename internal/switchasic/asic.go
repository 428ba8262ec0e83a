package switchasic

import (
	"fmt"
	"math/bits"

	"mind/internal/bitset"
)

// DefaultSlotCapacity is the directory budget measured on the paper's
// Tofino testbed (§7.2): 30k SRAM slots reserved for cache-directory
// entries. The same measurement puts the match-action rule budget for
// translation + protection at about 45k; the simulator counts rules
// (ASIC.Rules) but does not cap them.
const DefaultSlotCapacity = 30000

// Config sizes an ASIC instance.
type Config struct {
	// SlotCapacity bounds directory entries (0 = unlimited).
	SlotCapacity int
}

// DefaultConfig returns the Tofino-calibrated directory budget.
func DefaultConfig() Config {
	return Config{SlotCapacity: DefaultSlotCapacity}
}

// ASIC bundles the data-plane stores MIND programs: the translation
// table, the protection table, the directory slot SRAM, and the
// materialized MSI state-transition table (§6.3). It also accounts for
// multicast replication and egress pruning (§4.3.2).
type ASIC struct {
	cfg Config

	// Translation maps virtual addresses to memory blade IDs: one
	// wildcard-PDID range rule per blade partition plus outlier LPM
	// entries (§4.1).
	Translation *TCAM
	// Protection maps (PDID, va-range) to a permission class (§4.2).
	Protection *TCAM
	// Directory is the SRAM slot store for region directory entries.
	Directory *SlotStore

	// sttEntries counts rules in the materialized state-transition table;
	// it is a small constant for MSI but grows for MOESI-class protocols
	// (§8), so we account for it.
	sttEntries int

	// The one multicast group (§4.3.2): its id (-1 before SetGroup) and
	// its member ports (compute blades) as one word, bit p for port p. A
	// rack has at most 64 compute blades, so one word holds any group,
	// and egress pruning is one AND with the sharer word.
	groupID int
	members uint64

	// Accounting.
	recirculations  uint64
	multicasts      uint64
	prunedCopies    uint64
	deliveredCopies uint64
}

// New constructs an ASIC with the given directory budget. The rule
// tables are unbounded: their combined size is reported by Rules.
func New(cfg Config) *ASIC {
	a := &ASIC{
		cfg:         cfg,
		Translation: NewTCAM("translation", 0),
		Protection:  NewTCAM("protection", 0),
		Directory:   NewSlotStore(cfg.SlotCapacity),
		groupID:     -1,
	}
	return a
}

// Rules returns the combined installed match-action rule count.
func (a *ASIC) Rules() int { return a.Translation.Len() + a.Protection.Len() + a.sttEntries }

// InstallSTT records the materialized state-transition table for the
// coherence protocol: one rule per (state, request-type) pair (§6.3).
func (a *ASIC) InstallSTT(entries int) { a.sttEntries = entries }

// STTEntries returns the installed transition-table size.
func (a *ASIC) STTEntries() int { return a.sttEntries }

// SetGroup installs the multicast group (all compute blades in the
// rack, §4.3.2), replacing any group installed before. Group ids are
// non-negative, and ports lie in [0, 64): a rack's directory tracks at
// most 64 compute blades. Replication is in ascending port order, so
// every event ordering downstream of a multicast is a function of the
// member set, not of update history.
func (a *ASIC) SetGroup(id int, ports []int) {
	var m uint64
	for _, p := range ports {
		if p < 0 || p >= 64 {
			panic(fmt.Sprintf("switchasic: multicast port %d outside [0, 64)", p))
		}
		m |= 1 << p
	}
	a.groupID, a.members = id, m
}

// PruneMulticastBitmap resolves one multicast send: the packet is
// replicated to every group member, and copies whose output port does
// not lead to a blade in the sharer bitmap are dropped in the egress
// pipeline (§4.3.2). The replicate-and-prune is one AND of the sharer
// bitmap's first word with the group's membership; sharers past port 63
// are never members. The ports that receive a copy are appended to dst
// (reset to length zero; nil allocates) in ascending order.
func (a *ASIC) PruneMulticastBitmap(dst []int, group int, sharers *bitset.Set) ([]int, error) {
	if group < 0 || group != a.groupID {
		return nil, fmt.Errorf("switchasic: unknown multicast group %d", group)
	}
	a.multicasts++
	var s uint64
	if sw := sharers.Words(); len(sw) > 0 {
		s = sw[0]
	}
	out := dst[:0]
	for w := a.members & s; w != 0; w &= w - 1 {
		out = append(out, bits.TrailingZeros64(w))
	}
	a.deliveredCopies += uint64(len(out))
	a.prunedCopies += uint64(bits.OnesCount64(a.members) - len(out))
	return out, nil
}

// Recirculated increments the recirculation counter (one per directory
// state transition, §6.3).
func (a *ASIC) Recirculated() { a.recirculations++ }

// Accounting returns cumulative data-plane counters.
func (a *ASIC) Accounting() (recircs, multicasts, pruned, delivered uint64) {
	return a.recirculations, a.multicasts, a.prunedCopies, a.deliveredCopies
}

// CloneState deep-copies all data-plane state into a fresh ASIC — this is
// the backup-switch reconstruction path for switch failover (§4.4): the
// control plane replays its state into the backup's data plane.
func (a *ASIC) CloneState() *ASIC {
	b := New(a.cfg)
	for _, e := range a.Translation.Entries() {
		if err := b.Translation.Insert(e); err != nil {
			panic(fmt.Sprintf("switchasic: clone translation: %v", err))
		}
	}
	for _, e := range a.Protection.Entries() {
		if err := b.Protection.Insert(e); err != nil {
			panic(fmt.Sprintf("switchasic: clone protection: %v", err))
		}
	}
	b.sttEntries = a.sttEntries
	b.groupID, b.members = a.groupID, a.members
	return b
}
