package computeblade

import (
	"fmt"

	"mind/internal/mem"
)

// pageIndex is the cache's page index: an open-addressed table from a
// cached page to the index of its record, on the hit path of every
// simulated memory access. It is the package's one hash table: the
// blade's in-flight faults are a scanned slice (Blade.live), since a
// blade holds a few dozen at most (when it starts a fault, at most 3
// are live on rack_gc, 25 on panel_sweep, none on the pod workloads),
// against the thousands of pages a cache indexes. A slot is one uint32:
// an 8-bit fingerprint of the page in the high bits and the record
// index (from 1, so an empty slot is 0) in the low idxBits. The page
// itself lives only in its record: a probe compares the page against
// the record of each slot whose fingerprint matches, a record the hit
// reads anyway, and del and grow read a slot's page from its record, so
// every method takes the record store. Linear probing from a
// fibonacci-hashed home slot and backward-shift deletion keep a lookup
// to a few pointer-free slots with no tombstones and no per-entry
// allocation. The index starts at minIndexSlots on the first insert and
// doubles when an insert would pass load 1/2, so a cache that fills
// ends at the smallest power of two >= twice its capacity. Nothing
// observable depends on the table's size — it is never iterated.
type pageIndex struct {
	slots []uint32
	n     int
}

// A slot's low idxBits bits are a record index, which also bounds the
// cache's capacity (MaxCachePages) and fills the LRU links of a record.
const (
	idxBits = 24
	idxMask = 1<<idxBits - 1
)

const minIndexSlots = 16 // power of two

// hashMul is the fibonacci hashing multiplier: page numbers are dense, so
// the low bits alone would cluster.
const hashMul = 0x9e3779b97f4a7c15

// fpMask selects a slot's fingerprint bits.
const fpMask = ^uint32(idxMask)

// pageHash returns the home slot hash of va's page (the high half of its
// page number times hashMul) and its fingerprint, in place in a slot:
// bits 24-31 of the same product, which do not overlap the home bits.
func pageHash(va mem.VA) (home uint64, fp uint32) {
	h := mem.PageIndex(va) * hashMul
	return h >> 32, uint32(h) & fpMask
}

// get returns the index of the record holding va's page, or 0. A slot
// matches when its top byte is the fingerprint (the slot xor the hash
// leaves only index bits) and its record's page holds va (a record's VA
// is page-aligned, so the two differ only in va's offset bits).
func (t *pageIndex) get(recs []PageState, va mem.VA) uint32 {
	if t.n == 0 {
		return 0
	}
	h, m := uint64(va>>mem.PageShift)*hashMul, uint64(len(t.slots)-1)
	for i := h >> 32; ; i++ {
		s := t.slots[i&m]
		if s == 0 {
			return 0
		}
		if s^uint32(h) <= idxMask && recs[s&idxMask].VA^va < mem.PageSize {
			return s & idxMask
		}
	}
}

// put indexes record idx as holding va's page, which must not be
// present; recs is the store, whose records' pages a rehash reads.
func (t *pageIndex) put(recs []PageState, va mem.VA, idx uint32) {
	if va >= mem.VALimit || idx == 0 || idx > idxMask {
		panic(fmt.Sprintf("computeblade: page index entry (%#x, %d) outside the address space or %d-bit indices",
			uint64(va), idx, idxBits))
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow(recs)
	}
	home, fp := pageHash(va)
	t.place(home, fp|idx)
	t.n++
}

// place stores slot s in the first free slot of the probe chain from
// home.
func (t *pageIndex) place(home uint64, s uint32) {
	m := uint64(len(t.slots) - 1)
	i := home & m
	for t.slots[i] != 0 {
		i = (i + 1) & m
	}
	t.slots[i] = s
}

// grow rehashes into a table twice the size (or the first one).
func (t *pageIndex) grow(recs []PageState) {
	old := t.slots
	t.slots = make([]uint32, max(minIndexSlots, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			home, _ := pageHash(recs[s&idxMask].VA)
			t.place(home, s)
		}
	}
}

// del removes record idx's page, which must be present. Backward-shift
// deletion: the vacated slot pulls back any displaced entries in its
// probe chain, so the index never accumulates tombstones.
func (t *pageIndex) del(recs []PageState, idx uint32) {
	m := uint64(len(t.slots) - 1)
	home, _ := pageHash(recs[idx].VA)
	i := home & m
	for s := t.slots[i]; s&idxMask != idx; s = t.slots[i] {
		if s == 0 {
			panic(fmt.Sprintf("computeblade: record %d (page %#x) missing from the page index", idx, uint64(recs[idx].VA)))
		}
		i = (i + 1) & m
	}
	t.n--
	for {
		t.slots[i] = 0
		// Shift back any entry whose home position precedes the hole.
		j := i
		for {
			j = (j + 1) & m
			s := t.slots[j]
			if s == 0 {
				return
			}
			home, _ := pageHash(recs[s&idxMask].VA)
			// Entry j may move into the hole i iff its home position is
			// outside the (cyclic) range (i, j].
			if (j-(home&m))&m >= (j-i)&m {
				t.slots[i] = s
				i = j
				break
			}
		}
	}
}
