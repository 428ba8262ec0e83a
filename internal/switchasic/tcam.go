// Package switchasic models the programmable switch data plane that MIND
// programs: TCAM tables with longest-prefix-match semantics over
// power-of-two address ranges (used for address translation and
// vma-granularity memory protection, §4.1-4.2), SRAM register slots (the
// cache-directory store, §6.3), a native multicast engine with egress
// sharer-list pruning (§4.3.2), and resource accounting against the
// paper's Tofino measurements (§7.2): the 30k directory slots are a hard
// cap, while match-action rules (~45k on Tofino) are only counted
// (ASIC.Rules, plotted by Figure 8 center).
package switchasic

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// ErrTCAMFull is returned when inserting would exceed the TCAM's rule
// capacity.
var ErrTCAMFull = errors.New("switchasic: TCAM rule capacity exhausted")

// ErrNoEntry is returned by lookups that match nothing.
var ErrNoEntry = errors.New("switchasic: no matching TCAM entry")

// WildcardPDID matches any protection domain; used by the translation
// table, where entries are shared across all processes (§4.1).
const WildcardPDID uint32 = 0

// Entry is one TCAM rule: it matches addresses in [Base, Base+Size) —
// Size a power of two, Base Size-aligned (the TCAM's power-of-two range
// restriction, §4.2) — optionally qualified by an exact-match protection
// domain ID. Value is rule output (a memory blade ID for translation, a
// permission class for protection).
type Entry struct {
	PDID  uint32 // WildcardPDID to match every domain
	Base  uint64
	Size  uint64
	Value int64
}

func (e Entry) String() string {
	return fmt.Sprintf("tcam{pdid=%d [%#x,+%#x) -> %d}", e.PDID, e.Base, e.Size, e.Value)
}

// TCAM is a longest-prefix-match table over power-of-two ranges. The most
// specific (smallest) matching range wins, which is exactly the LPM
// property the paper relies on for outlier translation entries (§4.1).
//
// Rules are grouped by range size: levels[log2(size)] holds every rule of
// that size, and inUse lists the non-empty levels in ascending order, so
// a lookup probes the smallest ranges first and stops at the first hit.
// A probe is one (pdid, base) key in one level's table.
type TCAM struct {
	name     string
	capacity int
	levels   [64]*table // log2(size) -> rules of that size
	inUse    []int      // sorted levels holding at least one rule
	count    int
	lookups  uint64
}

// tcamSlot is one rule of a level; used marks an occupied slot (pdid 0
// and base 0 are both valid keys, so no key value can mark an empty one).
type tcamSlot struct {
	base  uint64
	value int64
	pdid  uint32
	used  bool
}

// table holds the rules of one TCAM level, open-addressed by (pdid,
// base): multiplicative hashing into the top bits, linear probing and
// backward-shift deletion, so the table never accumulates tombstones. It
// is allocated on its level's first insert at tableMinSize slots,
// doubles when an insert would pass load 1/2, and keeps its slots when
// its last rule is deleted (the level only leaves inUse). Unlike the
// blade cache's page index, whose 4-byte slot keeps only a fingerprint
// and a record index and reads the page from the record, a rule's key
// is a 32-bit pdid plus a full 64-bit base, kept in the slot, and base 0
// is a valid key.
type table struct {
	slots []tcamSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

const tableMinSize = 8 // power of two

// home is the slot where the probe for (pdid, base) starts. Bases are
// aligned to the level's size, so their low bits are zero; the top bits
// of the product mix in every bit above them.
func (tb *table) home(pdid uint32, base uint64) int {
	return int(((base ^ uint64(pdid)*0x9e3779b97f4a7c15) * 0x9e3779b97f4a7c15) >> tb.shift)
}

// find returns the slot holding (pdid, base), or -1. A table exists only
// once put has sized it, and load stays at most 1/2, so the probe always
// reaches an empty slot.
func (tb *table) find(pdid uint32, base uint64) int {
	m := len(tb.slots) - 1
	for i := tb.home(pdid, base); ; i = (i + 1) & m {
		s := &tb.slots[i]
		if !s.used {
			return -1
		}
		if s.base == base && s.pdid == pdid {
			return i
		}
	}
}

// put inserts a rule whose (pdid, base) is not present.
func (tb *table) put(pdid uint32, base uint64, v int64) {
	if 2*(tb.n+1) > len(tb.slots) {
		tb.grow()
	}
	m := len(tb.slots) - 1
	i := tb.home(pdid, base)
	for tb.slots[i].used {
		i = (i + 1) & m
	}
	tb.slots[i] = tcamSlot{base: base, value: v, pdid: pdid, used: true}
	tb.n++
}

// grow rehashes into a table twice the size (or the first one).
func (tb *table) grow() {
	old := tb.slots
	size := max(tableMinSize, 2*len(old))
	tb.slots = make([]tcamSlot, size)
	tb.shift = uint(64 - bits.TrailingZeros(uint(size)))
	tb.n = 0
	for _, s := range old {
		if s.used {
			tb.put(s.pdid, s.base, s.value)
		}
	}
}

// del empties slot i, pulling back any displaced rules in its probe chain.
func (tb *table) del(i int) {
	m := len(tb.slots) - 1
	tb.n--
	for {
		tb.slots[i] = tcamSlot{}
		j := i
		for {
			j = (j + 1) & m
			s := &tb.slots[j]
			if !s.used {
				return
			}
			// The rule at j may move into the hole at i iff its home
			// lies outside the (cyclic) range (i, j].
			if (j-tb.home(s.pdid, s.base))&m >= (j-i)&m {
				tb.slots[i] = *s
				i = j
				break
			}
		}
	}
}

// NewTCAM creates a table with the given rule capacity; capacity <= 0
// means unlimited (used by the PSO+ "infinite switch capacity" variant).
func NewTCAM(name string, capacity int) *TCAM {
	return &TCAM{name: name, capacity: capacity}
}

// Name returns the table's diagnostic name.
func (t *TCAM) Name() string { return t.name }

// Len returns the number of installed rules.
func (t *TCAM) Len() int { return t.count }

// Capacity returns the rule capacity (0 = unlimited).
func (t *TCAM) Capacity() int { return t.capacity }

// Lookups returns the number of Lookup calls served (data-plane load).
func (t *TCAM) Lookups() uint64 { return t.lookups }

func checkPo2Range(base, size uint64) error {
	if size == 0 || size&(size-1) != 0 {
		return fmt.Errorf("switchasic: size %#x is not a power of two", size)
	}
	if base&(size-1) != 0 {
		return fmt.Errorf("switchasic: base %#x is not aligned to size %#x", base, size)
	}
	return nil
}

func level(size uint64) int { return bits.TrailingZeros64(size) }

// Insert installs a rule. It fails if the range is not a power-of-two
// aligned range, if an identical (PDID, range) rule exists, or if the
// table is full. A refused rule leaves the table untouched.
func (t *TCAM) Insert(e Entry) error {
	if err := checkPo2Range(e.Base, e.Size); err != nil {
		return err
	}
	lvl := level(e.Size)
	tb := t.levels[lvl]
	if tb != nil && tb.find(e.PDID, e.Base) >= 0 {
		return fmt.Errorf("switchasic: duplicate rule %v", e)
	}
	if t.capacity > 0 && t.count >= t.capacity {
		return ErrTCAMFull
	}
	if tb == nil {
		tb = &table{}
		t.levels[lvl] = tb
	}
	if tb.n == 0 {
		t.inUse = insertSortedUnique(t.inUse, lvl)
	}
	tb.put(e.PDID, e.Base, e.Value)
	t.count++
	return nil
}

// Delete removes the rule exactly matching (pdid, base, size). It returns
// ErrNoEntry if absent.
func (t *TCAM) Delete(pdid uint32, base, size uint64) error {
	if err := checkPo2Range(base, size); err != nil {
		return err
	}
	lvl := level(size)
	tb := t.levels[lvl]
	if tb == nil {
		return ErrNoEntry
	}
	i := tb.find(pdid, base)
	if i < 0 {
		return ErrNoEntry
	}
	tb.del(i)
	t.count--
	if tb.n == 0 {
		t.inUse = removeSorted(t.inUse, lvl)
	}
	return nil
}

// Lookup returns the value of the most specific rule matching (pdid,
// addr). Rules qualified with the exact pdid take precedence over
// wildcard rules of the same size; smaller ranges always beat larger
// ones (LPM).
func (t *TCAM) Lookup(pdid uint32, addr uint64) (int64, error) {
	t.lookups++
	for _, lvl := range t.inUse {
		tb := t.levels[lvl]
		base := addr &^ (uint64(1)<<lvl - 1)
		if pdid != WildcardPDID {
			if i := tb.find(pdid, base); i >= 0 {
				return tb.slots[i].value, nil
			}
		}
		if i := tb.find(WildcardPDID, base); i >= 0 {
			return tb.slots[i].value, nil
		}
	}
	return 0, ErrNoEntry
}

// Entries returns all installed rules in deterministic order (by size,
// then base, then PDID) — used to replicate data-plane state to a backup
// switch (§4.4).
func (t *TCAM) Entries() []Entry {
	out := make([]Entry, 0, t.count)
	for _, lvl := range t.inUse {
		from := len(out)
		for _, s := range t.levels[lvl].slots {
			if s.used {
				out = append(out, Entry{PDID: s.pdid, Base: s.base, Size: 1 << lvl, Value: s.value})
			}
		}
		rules := out[from:]
		sort.Slice(rules, func(i, j int) bool {
			if rules[i].Base != rules[j].Base {
				return rules[i].Base < rules[j].Base
			}
			return rules[i].PDID < rules[j].PDID
		})
	}
	return out
}

// Clear removes every rule.
func (t *TCAM) Clear() {
	t.levels = [64]*table{}
	t.inUse = nil
	t.count = 0
}

func insertSortedUnique(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
