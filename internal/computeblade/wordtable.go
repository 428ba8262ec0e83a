package computeblade

import (
	"mind/internal/mem"
)

// Keys are an identity packed into one nonzero word, so zero can mark an
// empty table slot. Pages are 4 KB aligned, which leaves a page base's
// low 12 bits free: a cached page sets the low bit (VA 0 is a legal page
// base), a fault carries the wanted permission class there (Perm is 1 or
// 2).

func packPageKey(base mem.VA) uint64 { return uint64(base) | 1 }

func packFaultKey(page mem.VA, want mem.Perm) uint64 { return uint64(page) | uint64(want) }

// wordTable is an open-addressed hash table from packed nonzero keys to
// records: the cache's page index, on the hit path of every simulated
// memory access, and the blade's in-flight-fault dedup table ("is this
// page already faulting?"). Linear probing with backward-shift deletion
// keeps a lookup to a few cache-line touches with no runtime map
// hashing, no tombstone decay and no per-entry allocation. The table
// starts at wordTableMinSize slots on the first insert and doubles when
// an insert would pass load 1/2, so its footprint follows what was
// inserted, not what might be: a cache that fills ends at the smallest
// power of two >= twice its capacity, one that sees a few hundred faults
// never pays for more. Nothing observable depends on the table's size —
// it is never iterated.
type wordTable[V any] struct {
	keys []uint64
	vals []*V
	n    int
}

const wordTableMinSize = 16 // power of two

func (t *wordTable[V]) mask() uint64 { return uint64(len(t.keys) - 1) }

// hashWord mixes a packed key (fibonacci hashing; page bases are aligned
// so the low bits alone would collide structurally).
func hashWord(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> 32 }

// get returns the record for k, or nil.
func (t *wordTable[V]) get(k uint64) *V {
	if t.n == 0 {
		return nil
	}
	m := t.mask()
	for i := hashWord(k) & m; ; i = (i + 1) & m {
		switch t.keys[i] {
		case k:
			return t.vals[i]
		case 0:
			return nil
		}
	}
}

// put inserts k -> v (k must not be present).
func (t *wordTable[V]) put(k uint64, v *V) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	m := t.mask()
	i := hashWord(k) & m
	for t.keys[i] != 0 {
		i = (i + 1) & m
	}
	t.keys[i] = k
	t.vals[i] = v
	t.n++
}

// grow rehashes into a table twice the size (or the first one).
func (t *wordTable[V]) grow() {
	oldK, oldV := t.keys, t.vals
	size := max(wordTableMinSize, 2*len(oldK))
	t.keys = make([]uint64, size)
	t.vals = make([]*V, size)
	t.n = 0
	for i, k := range oldK {
		if k != 0 {
			t.put(k, oldV[i])
		}
	}
}

// del removes k; absent keys are a no-op. Backward-shift deletion: the
// vacated slot pulls back any displaced entries in its probe chain, so
// the table never accumulates tombstones.
func (t *wordTable[V]) del(k uint64) {
	if t.n == 0 {
		return
	}
	m := t.mask()
	i := hashWord(k) & m
	for t.keys[i] != k {
		if t.keys[i] == 0 {
			return
		}
		i = (i + 1) & m
	}
	t.n--
	for {
		t.keys[i] = 0
		t.vals[i] = nil
		// Shift back any entry whose home position precedes the hole.
		j := i
		for {
			j = (j + 1) & m
			if t.keys[j] == 0 {
				return
			}
			home := hashWord(t.keys[j]) & m
			// Entry j may move into the hole i iff its home position is
			// outside the (cyclic) range (i, j].
			if (j-home)&m >= (j-i)&m {
				t.keys[i] = t.keys[j]
				t.vals[i] = t.vals[j]
				i = j
				break
			}
		}
	}
}
