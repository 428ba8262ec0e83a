package computeblade

import (
	"fmt"

	"mind/internal/mem"
)

// A wordTable slot packs an entry into one word: its key in the high
// keyBits bits and the index of its record in the low idxBits. Record
// indices start at 1, so a nonzero slot is an entry and zero marks an
// empty slot, whatever the key (page 0 is a legal page).
const (
	idxBits = 24
	idxMask = 1<<idxBits - 1
	keyBits = 64 - idxBits
)

// pageKey is a cached page's key: the page number of any address in it.
func pageKey(va mem.VA) uint64 { return mem.PageIndex(va) }

// faultKey is an in-flight fault's key: the page number and the wanted
// permission class (Perm is 1 or 2) in the low two bits. It fits keyBits
// because every VA lies below mem.VALimit: ctrlplane.Allocator.AddBlade
// refuses a blade partition that would reach it, in a one-rack pod and
// in each rack's stripe of a larger one, so no config reaches a wider
// key (the constant below fails to compile if the two widths part).
func faultKey(page mem.VA, want mem.Perm) uint64 { return mem.PageIndex(page)<<2 | uint64(want) }

const _ uint64 = 1<<keyBits - uint64(mem.VALimit>>mem.PageShift)<<2

// wordTable is an open-addressed hash table from keys below 2^keyBits to
// record indices: the blade's in-flight-fault dedup table ("is this page
// already faulting?"). The cache's page index is its own table of 4-byte
// slots (pageindex.go), which keeps the page in the record instead of
// the slot. One uint64 per slot makes a probe one cache-line touch and
// the table pointer-free, so the garbage collector never scans it.
// Linear probing with backward-shift deletion keeps a lookup to a few
// slots with no runtime map hashing, no tombstone decay and no per-entry
// allocation. The table starts at wordTableMinSize slots on the first
// insert and doubles when an insert would pass load 1/2, so its
// footprint follows what was inserted, not what might be: a blade that
// sees a few hundred faults never pays for more. Nothing observable
// depends on the table's size — it is never iterated.
type wordTable struct {
	slots []uint64
	n     int
}

const wordTableMinSize = 16 // power of two

func (t *wordTable) mask() uint64 { return uint64(len(t.slots) - 1) }

// hashMul is the fibonacci hashing multiplier: page numbers are dense, so
// the low bits alone would cluster.
const hashMul = 0x9e3779b97f4a7c15

// hashWord mixes a key into its home slot hash.
func hashWord(k uint64) uint64 { return (k * hashMul) >> 32 }

// get returns the record index for k, or 0.
func (t *wordTable) get(k uint64) uint32 {
	if t.n == 0 {
		return 0
	}
	m := t.mask()
	for i := hashWord(k) & m; ; i = (i + 1) & m {
		s := t.slots[i]
		if s == 0 {
			return 0
		}
		if s>>idxBits == k {
			return uint32(s & idxMask)
		}
	}
}

// put inserts k -> idx (k must not be present, idx must be nonzero).
func (t *wordTable) put(k uint64, idx uint32) {
	if k>>keyBits != 0 || idx == 0 || idx > idxMask {
		panic(fmt.Sprintf("computeblade: table entry (%#x, %d) outside %d-bit keys and %d-bit indices",
			k, idx, keyBits, idxBits))
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.place(k<<idxBits | uint64(idx))
	t.n++
}

// place stores slot s in the first free slot of its probe chain.
func (t *wordTable) place(s uint64) {
	m := t.mask()
	i := hashWord(s>>idxBits) & m
	for t.slots[i] != 0 {
		i = (i + 1) & m
	}
	t.slots[i] = s
}

// grow rehashes into a table twice the size (or the first one).
func (t *wordTable) grow() {
	old := t.slots
	t.slots = make([]uint64, max(wordTableMinSize, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			t.place(s)
		}
	}
}

// del removes k; absent keys are a no-op. Backward-shift deletion: the
// vacated slot pulls back any displaced entries in its probe chain, so
// the table never accumulates tombstones.
func (t *wordTable) del(k uint64) {
	if t.n == 0 {
		return
	}
	m := t.mask()
	i := hashWord(k) & m
	for ; ; i = (i + 1) & m {
		s := t.slots[i]
		if s == 0 {
			return
		}
		if s>>idxBits == k {
			break
		}
	}
	t.n--
	for {
		t.slots[i] = 0
		// Shift back any entry whose home position precedes the hole.
		j := i
		for {
			j = (j + 1) & m
			if t.slots[j] == 0 {
				return
			}
			home := hashWord(t.slots[j]>>idxBits) & m
			// Entry j may move into the hole i iff its home position is
			// outside the (cyclic) range (i, j].
			if (j-home)&m >= (j-i)&m {
				t.slots[i] = t.slots[j]
				i = j
				break
			}
		}
	}
}
