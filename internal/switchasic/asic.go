package switchasic

import (
	"fmt"
	"math/bits"
	"sort"

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

	// Multicast group membership: group id -> ports (compute blades),
	// kept sorted, plus the same membership as a bitmap for the egress
	// pruning fast path (word-parallel intersection with sharer
	// bitmaps).
	groups    map[int][]int
	groupBits map[int]*bitset.Set

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
		groups:      make(map[int][]int),
		groupBits:   make(map[int]*bitset.Set),
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

// SetGroup installs multicast group membership (all compute blades in the
// rack, §4.3.2). Membership is kept sorted so replication order — and
// with it every event ordering downstream of a multicast — is a function
// of the member set, not of update history.
func (a *ASIC) SetGroup(id int, ports []int) {
	cp := make([]int, len(ports))
	copy(cp, ports)
	sort.Ints(cp)
	a.groups[id] = cp
	b := a.groupBits[id]
	if b == nil {
		b = &bitset.Set{}
		a.groupBits[id] = b
	}
	b.Clear()
	for _, p := range cp {
		b.Add(p)
	}
}

// Group returns a copy of a group's membership (sorted). Callers may
// hold it across membership updates without aliasing the live table.
func (a *ASIC) Group(id int) []int {
	members := a.groups[id]
	if members == nil {
		return nil
	}
	cp := make([]int, len(members))
	copy(cp, members)
	return cp
}

// AddGroupMember installs one port into a multicast group, keeping
// membership sorted so replication order is deterministic regardless of
// the sequence of membership updates — the control plane builds the
// invalidation group through this path, one rule install per compute
// blade. Adding an existing member is a no-op. (The inverse operation
// arrives with compute-blade retirement; memory blades are never group
// members, so nothing removes entries today.)
func (a *ASIC) AddGroupMember(id, port int) {
	members := a.groups[id]
	i := sort.SearchInts(members, port)
	if i < len(members) && members[i] == port {
		return
	}
	members = append(members, 0)
	copy(members[i+1:], members[i:])
	members[i] = port
	a.groups[id] = members
	b := a.groupBits[id]
	if b == nil {
		b = &bitset.Set{}
		a.groupBits[id] = b
	}
	b.Add(port)
}

// PruneMulticastInto resolves one multicast send: the packet is
// replicated to every group member, and copies whose output port does
// not lead to a blade in the sharer list are dropped in the egress
// pipeline (§4.3.2). It returns the ports that actually receive a copy,
// appended into the caller-owned dst (reset to length zero; nil
// allocates). The directory uses PruneMulticastBitmap; this map form is
// the reference that path is tested against.
func (a *ASIC) PruneMulticastInto(dst []int, group int, sharers map[int]bool) ([]int, error) {
	members, ok := a.groups[group]
	if !ok {
		return nil, fmt.Errorf("switchasic: unknown multicast group %d", group)
	}
	a.multicasts++
	out := dst[:0]
	for _, p := range members {
		if sharers[p] {
			out = append(out, p)
			a.deliveredCopies++
		} else {
			a.prunedCopies++
		}
	}
	return out, nil
}

// PruneMulticastBitmap is the egress-pruning fast path consumed by the
// coherence directory: identical semantics to PruneMulticastInto, but
// the sharer list arrives as a bitmap, so the replicate-and-prune
// resolves as a word-parallel intersection with the group's membership
// bitmap instead of a per-member map probe. Ports are appended to dst
// (reset to length zero) in ascending order — the same order the sorted
// member walk produces.
func (a *ASIC) PruneMulticastBitmap(dst []int, group int, sharers *bitset.Set) ([]int, error) {
	members, ok := a.groups[group]
	if !ok {
		return nil, fmt.Errorf("switchasic: unknown multicast group %d", group)
	}
	a.multicasts++
	out := dst[:0]
	gw := a.groupBits[group].Words()
	sw := sharers.Words()
	n := len(gw)
	if len(sw) < n {
		n = len(sw)
	}
	for wi := 0; wi < n; wi++ {
		w := gw[wi] & sw[wi]
		for w != 0 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	a.deliveredCopies += uint64(len(out))
	a.prunedCopies += uint64(len(members) - len(out))
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
	for id, ports := range a.groups {
		b.SetGroup(id, ports)
	}
	return b
}
