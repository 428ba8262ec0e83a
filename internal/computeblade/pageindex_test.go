package computeblade

import (
	"strings"
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
)

// indexOps replays an op sequence against a pageIndex and a map oracle,
// three bytes per op: the kind (put-if-absent twice as likely as delete
// or lookup) and a 16-bit page number. A put stores the page in a fresh
// record, so a slot that kept a stale entry's index shows. After every op the touched page and the count
// must agree; check compares everything.
type indexOps struct {
	t      *testing.T
	idx    pageIndex
	recs   []PageState // record 0 is never indexed, as in a Cache
	oracle map[mem.VA]uint32
}

func runIndexOps(t *testing.T, ops []byte) *indexOps {
	r := &indexOps{t: t, recs: make([]PageState, 1), oracle: map[mem.VA]uint32{}}
	for ; len(ops) >= 3; ops = ops[3:] {
		va := mem.VA(uint64(ops[1])<<8|uint64(ops[2])) << mem.PageShift
		size := len(r.idx.slots)
		switch ops[0] % 4 {
		case 0, 1:
			if r.oracle[va] == 0 {
				i := uint32(len(r.recs))
				r.recs = append(r.recs, PageState{VA: va})
				r.oracle[va] = i
				r.idx.put(r.recs, va, i)
			}
		case 2:
			if i := r.oracle[va]; i != 0 {
				delete(r.oracle, va)
				r.idx.del(r.recs, i)
			}
		}
		// Any address in the page names it.
		if got := r.idx.get(r.recs, va|mem.VA(ops[2])<<4); got != r.oracle[va] {
			t.Fatalf("get(%#x) = %d, oracle %d", uint64(va), got, r.oracle[va])
		}
		if r.idx.n != len(r.oracle) {
			t.Fatalf("n = %d, oracle holds %d", r.idx.n, len(r.oracle))
		}
		if len(r.idx.slots) != size {
			r.check() // just rehashed
		}
	}
	r.check()
	return r
}

// check verifies the whole index: geometry (power of two, load <= 1/2),
// every oracle page found with its record, and every slot holding an
// oracle page's record under that page's fingerprint.
func (r *indexOps) check() {
	r.t.Helper()
	size := len(r.idx.slots)
	if size&(size-1) != 0 || 2*r.idx.n > size {
		r.t.Fatalf("geometry: %d slots, %d entries", size, r.idx.n)
	}
	for va, i := range r.oracle {
		if got := r.idx.get(r.recs, va); got != i {
			r.t.Fatalf("get(%#x) = %d, oracle %d", uint64(va), got, i)
		}
	}
	full := 0
	for j, s := range r.idx.slots {
		if s == 0 {
			continue
		}
		full++
		i := s & idxMask
		va := r.recs[i].VA
		if _, fp := pageHash(va); r.oracle[va] != i || s&fpMask != fp {
			r.t.Fatalf("slot %d holds record %d (page %#x) under fingerprint %#x, oracle %d, fingerprint %#x",
				j, i, uint64(va), s>>idxBits, r.oracle[va], fp>>idxBits)
		}
	}
	if full != len(r.oracle) {
		r.t.Fatalf("%d slots in use, oracle holds %d", full, len(r.oracle))
	}
}

// randomTableOps draws n ops over a universe of `pages` page numbers.
func randomTableOps(seed uint64, n, pages int) []byte {
	rng := sim.NewRNG(seed, "wordtable")
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		p := rng.Intn(pages)
		ops = append(ops, byte(rng.Intn(4)), byte(p>>8), byte(p))
	}
	return ops
}

// wrappedChainOps builds the case an index that grows adds: nine pages
// whose home slot in the 32-slot index is one of its last two. The
// ninth insert is the first rehash (16 -> 32), after which the chain
// runs 30, 31, 0, 1, ... 6 — and the deletes that follow, oldest first,
// each backward-shift entries across the wrap.
func wrappedChainOps() []byte {
	var pages []int
	for p := 0; len(pages) < 9; p++ {
		if home, _ := pageHash(mem.VA(p) << mem.PageShift); home&31 >= 30 {
			pages = append(pages, p)
		}
	}
	var ops []byte
	for _, p := range pages {
		ops = append(ops, 0, byte(p>>8), byte(p))
	}
	for _, p := range pages {
		ops = append(ops, 2, byte(p>>8), byte(p))
	}
	return ops
}

// collidingChainOps builds the case the fingerprint adds: a probe chain
// in which several pages share both their home slot and their
// fingerprint, so only the record tells them apart. It finds the four
// pages homed on slot 31 of a 32-slot table with the most common
// fingerprint there, and inserts three of them among nine pages homed
// on the table's last two slots: the ninth insert is the first rehash
// (16 -> 32), after which the chain runs 30, 31, 0, 1, ... 6. The fourth
// colliding page is looked up while the three are in the chain and
// again after each delete. The deletes follow, oldest first, each
// backward-shifting entries across the colliders and the wrap.
func collidingChainOps() (ops []byte, colliders []mem.VA) {
	byFP := map[uint32][]mem.VA{}
	var others []mem.VA
	for p := 0; p < 1<<16; p++ {
		va := mem.VA(p) << mem.PageShift
		switch home, fp := pageHash(va); home & 31 {
		case 31:
			byFP[fp] = append(byFP[fp], va)
		case 30:
			others = append(others, va)
		}
	}
	for _, vas := range byFP {
		if len(vas) > len(colliders) || len(vas) == len(colliders) && vas[0] < colliders[0] {
			colliders = vas
		}
	}
	colliders = colliders[:4]
	op := func(kind byte, va mem.VA) {
		p := mem.PageIndex(va)
		ops = append(ops, kind, byte(p>>8), byte(p))
	}
	pages := []mem.VA{others[0], colliders[0], others[1], colliders[1], others[2], others[3], colliders[2], others[4], others[5]}
	for _, va := range pages {
		op(0, va)
	}
	op(3, colliders[3])
	for _, va := range pages {
		op(2, va)
		op(3, colliders[3])
	}
	return ops, colliders
}

// TestPageIndexAgainstMap drives the page index through growth against a
// map: random put/get/del from 16 slots past four doublings, a small
// universe that churns at one size, the wrapped probe chain right after
// a rehash, and that chain with pages that share home slot and
// fingerprint.
func TestPageIndexAgainstMap(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := runIndexOps(t, randomTableOps(seed, 6000, 400))
		if len(r.idx.slots) < 16<<4 {
			t.Fatalf("seed %d: index ended at %d slots, want at least four doublings", seed, len(r.idx.slots))
		}
	}
	runIndexOps(t, randomTableOps(99, 6000, 24))
	runIndexOps(t, wrappedChainOps())

	ops, colliders := collidingChainOps()
	r := runIndexOps(t, ops[:3*9])
	if len(r.idx.slots) != 32 || r.idx.slots[31] == 0 || r.idx.slots[0] == 0 {
		t.Fatalf("after nine inserts: %d slots, slot 31 = %#x, slot 0 = %#x; want a chain wrapped around a 32-slot table",
			len(r.idx.slots), r.idx.slots[31], r.idx.slots[0])
	}
	home, fp := pageHash(colliders[0])
	for _, va := range colliders[1:] {
		if h, f := pageHash(va); h&31 != home&31 || f != fp {
			t.Fatalf("page %#x: home %d fingerprint %#x, want %d and %#x", uint64(va), h&31, f, home&31, fp)
		}
	}
	runIndexOps(t, ops)
}

// FuzzPageIndex feeds arbitrary op sequences to the same oracle check.
func FuzzPageIndex(f *testing.F) {
	ops, _ := collidingChainOps()
	f.Add(ops)
	f.Add(wrappedChainOps())
	f.Add(randomTableOps(1, 600, 400))
	f.Add(randomTableOps(2, 600, 24))
	f.Fuzz(func(t *testing.T, ops []byte) { runIndexOps(t, ops) })
}

// TestTablePutRangeChecks reaches each refusal of the page index's put:
// an index of 0 (it would read as an empty slot), an index wider than
// idxBits, and a page at or above mem.VALimit. Each panic names the
// entry. A del of a record the index does not hold panics too.
func TestTablePutRangeChecks(t *testing.T) {
	recs := []PageState{{}, {VA: 0x1000}, {VA: 0x2000}}
	for _, c := range []struct {
		name, want string
		put        func()
	}{
		{"pageIndex index 0", "(0x1000, 0)", func() { new(pageIndex).put(recs, 0x1000, 0) }},
		{"pageIndex index above idxMask", "(0x1000, 16777216)", func() { new(pageIndex).put(recs, 0x1000, idxMask+1) }},
		{"pageIndex page at VALimit", "(0x4000000000000, 1)", func() { new(pageIndex).put(recs, mem.VALimit, 1) }},
		{"pageIndex del of an absent record", "record 1 (page 0x1000)", func() {
			var idx pageIndex
			idx.put(recs, recs[2].VA, 2)
			idx.del(recs, 1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q, want one naming %s", msg, c.want)
				}
			}()
			c.put()
		})
	}
}
