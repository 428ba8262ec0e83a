package computeblade

import (
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
)

// tableOps replays an op sequence against a wordTable and a map oracle,
// three bytes per op: the kind (put-if-absent twice as likely as delete
// or lookup) and a 16-bit page number. A put stores a fresh index, so a
// slot that kept a stale entry's index shows. After every op the touched
// key and the count must agree; check compares everything.
type tableOps struct {
	t      *testing.T
	tab    wordTable
	oracle map[uint64]uint32
	puts   uint32
}

func runTableOps(t *testing.T, ops []byte) *tableOps {
	r := &tableOps{t: t, oracle: map[uint64]uint32{}}
	for ; len(ops) >= 3; ops = ops[3:] {
		k := pageKey(mem.VA(uint64(ops[1])<<8|uint64(ops[2])) << 12)
		size := len(r.tab.slots)
		switch ops[0] % 4 {
		case 0, 1:
			if r.oracle[k] == 0 {
				r.puts++
				r.oracle[k] = r.puts
				r.tab.put(k, r.puts)
			}
		case 2:
			delete(r.oracle, k)
			r.tab.del(k)
		}
		if got := r.tab.get(k); got != r.oracle[k] {
			t.Fatalf("get(%#x) = %d, oracle %d", k, got, r.oracle[k])
		}
		if r.tab.n != len(r.oracle) {
			t.Fatalf("n = %d, oracle holds %d", r.tab.n, len(r.oracle))
		}
		if len(r.tab.slots) != size {
			r.check() // just rehashed
		}
	}
	r.check()
	return r
}

// check verifies the whole table: geometry (power of two, load <= 1/2),
// every oracle key found with its index, and no slot holding anything
// the oracle does not.
func (r *tableOps) check() {
	r.t.Helper()
	size := len(r.tab.slots)
	if size&(size-1) != 0 || 2*r.tab.n > size {
		r.t.Fatalf("geometry: %d slots, %d entries", size, r.tab.n)
	}
	for k, v := range r.oracle {
		if got := r.tab.get(k); got != v {
			r.t.Fatalf("get(%#x) = %d, oracle %d", k, got, v)
		}
	}
	full := 0
	for i, s := range r.tab.slots {
		if s == 0 {
			continue
		}
		full++
		if k, v := s>>idxBits, uint32(s&idxMask); r.oracle[k] != v {
			r.t.Fatalf("slot %d holds (%#x, %d), oracle %d", i, k, v, r.oracle[k])
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

// wrappedChainOps builds the case a table that grows adds: nine keys
// whose home slot in the 32-slot table is one of its last two. The
// ninth insert is the first rehash (16 -> 32), after which the chain
// runs 30, 31, 0, 1, ... 6 — and the deletes that follow, oldest first,
// each backward-shift entries across the wrap.
func wrappedChainOps() []byte {
	var pages []int
	for p := 0; len(pages) < 9; p++ {
		if home := hashWord(pageKey(mem.VA(p)<<12)) & 31; home >= 30 {
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

// TestWordTableAgainstMap drives the table through growth against a map:
// random put/get/del from 16 slots past four doublings, and the wrapped
// probe chain right after a rehash.
func TestWordTableAgainstMap(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := runTableOps(t, randomTableOps(seed, 6000, 400))
		if len(r.tab.slots) < 16<<4 {
			t.Fatalf("seed %d: table ended at %d slots, want at least four doublings", seed, len(r.tab.slots))
		}
	}
	// A small universe keeps the table churning at one size.
	runTableOps(t, randomTableOps(99, 6000, 24))

	ops := wrappedChainOps()
	r := runTableOps(t, ops[:3*9])
	if len(r.tab.slots) != 32 || r.tab.slots[31] == 0 || r.tab.slots[0] == 0 {
		t.Fatalf("after nine inserts: %d slots, slot 31 = %#x, slot 0 = %#x; want a chain wrapped around a 32-slot table",
			len(r.tab.slots), r.tab.slots[31], r.tab.slots[0])
	}
	runTableOps(t, ops)
}

// FuzzPageTable feeds arbitrary op sequences to the same oracle check.
func FuzzPageTable(f *testing.F) {
	f.Add(wrappedChainOps())
	f.Add(randomTableOps(1, 600, 400))
	f.Add(randomTableOps(2, 600, 24))
	f.Fuzz(func(t *testing.T, ops []byte) { runTableOps(t, ops) })
}
