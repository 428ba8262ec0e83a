package switchasic

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTCAMInsertLookup(t *testing.T) {
	tc := NewTCAM("t", 0)
	if err := tc.Insert(Entry{PDID: WildcardPDID, Base: 0x10000, Size: 0x10000, Value: 3}); err != nil {
		t.Fatal(err)
	}
	v, err := tc.Lookup(7, 0x1abcd)
	if err != nil || v != 3 {
		t.Fatalf("lookup = %d, %v", v, err)
	}
	if _, err := tc.Lookup(7, 0x20000); !errors.Is(err, ErrNoEntry) {
		t.Errorf("out-of-range lookup should miss, got %v", err)
	}
}

func TestTCAMLPMMostSpecificWins(t *testing.T) {
	tc := NewTCAM("t", 0)
	// Outlier-entry semantics (§4.1): a specific migrated range overrides
	// the blade-partition range that covers it.
	must(t, tc.Insert(Entry{Base: 0, Size: 1 << 30, Value: 1}))         // blade partition
	must(t, tc.Insert(Entry{Base: 0x100000, Size: 0x1000, Value: 2}))   // migrated 4KB page
	must(t, tc.Insert(Entry{Base: 0x100000, Size: 0x100000, Value: 3})) // 1MB outlier
	if v, _ := tc.Lookup(0, 0x100800); v != 2 {
		t.Errorf("most specific (4KB) should win, got %d", v)
	}
	if v, _ := tc.Lookup(0, 0x150000); v != 3 {
		t.Errorf("1MB outlier should win over partition, got %d", v)
	}
	if v, _ := tc.Lookup(0, 0x5000); v != 1 {
		t.Errorf("partition should match elsewhere, got %d", v)
	}
}

func TestTCAMPDIDPrecedence(t *testing.T) {
	tc := NewTCAM("t", 0)
	must(t, tc.Insert(Entry{PDID: WildcardPDID, Base: 0x1000, Size: 0x1000, Value: 1}))
	must(t, tc.Insert(Entry{PDID: 42, Base: 0x1000, Size: 0x1000, Value: 2}))
	if v, _ := tc.Lookup(42, 0x1800); v != 2 {
		t.Errorf("exact PDID should beat wildcard, got %d", v)
	}
	if v, _ := tc.Lookup(7, 0x1800); v != 1 {
		t.Errorf("other PDID should fall to wildcard, got %d", v)
	}
}

func TestTCAMAlignmentValidation(t *testing.T) {
	tc := NewTCAM("t", 0)
	if err := tc.Insert(Entry{Base: 0x1000, Size: 0x3000}); err == nil {
		t.Error("non-po2 size accepted")
	}
	if err := tc.Insert(Entry{Base: 0x800, Size: 0x1000}); err == nil {
		t.Error("misaligned base accepted")
	}
	if err := tc.Insert(Entry{Base: 0, Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestTCAMDuplicateRejected(t *testing.T) {
	tc := NewTCAM("t", 0)
	e := Entry{PDID: 1, Base: 0x2000, Size: 0x1000, Value: 5}
	must(t, tc.Insert(e))
	if err := tc.Insert(e); err == nil {
		t.Error("duplicate accepted")
	}
	// Same range, different PDID is fine.
	e.PDID = 2
	must(t, tc.Insert(e))
}

func TestTCAMCapacity(t *testing.T) {
	tc := NewTCAM("t", 2)
	must(t, tc.Insert(Entry{Base: 0x0000, Size: 0x1000, Value: 1}))
	must(t, tc.Insert(Entry{Base: 0x1000, Size: 0x1000, Value: 2}))
	err := tc.Insert(Entry{Base: 0x2000, Size: 0x1000, Value: 3})
	if !errors.Is(err, ErrTCAMFull) {
		t.Errorf("want ErrTCAMFull, got %v", err)
	}
	// Delete then insert succeeds again.
	must(t, tc.Delete(WildcardPDID, 0x0000, 0x1000))
	must(t, tc.Insert(Entry{Base: 0x2000, Size: 0x1000, Value: 3}))
}

func TestTCAMDelete(t *testing.T) {
	tc := NewTCAM("t", 0)
	must(t, tc.Insert(Entry{Base: 0x4000, Size: 0x1000, Value: 9}))
	if err := tc.Delete(WildcardPDID, 0x4000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Lookup(0, 0x4800); !errors.Is(err, ErrNoEntry) {
		t.Error("deleted rule still matches")
	}
	if err := tc.Delete(WildcardPDID, 0x4000, 0x1000); !errors.Is(err, ErrNoEntry) {
		t.Errorf("double delete should fail, got %v", err)
	}
	if tc.Len() != 0 {
		t.Errorf("len = %d after delete", tc.Len())
	}
}

func TestTCAMEntriesDeterministic(t *testing.T) {
	tc := NewTCAM("t", 0)
	ins := []Entry{
		{Base: 0x3000, Size: 0x1000, Value: 1},
		{Base: 0x1000, Size: 0x1000, Value: 2},
		{PDID: 5, Base: 0x1000, Size: 0x1000, Value: 3},
		{Base: 0x0, Size: 0x10000, Value: 4},
	}
	for _, e := range ins {
		must(t, tc.Insert(e))
	}
	a := tc.Entries()
	b := tc.Entries()
	if len(a) != 4 {
		t.Fatalf("entries = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Entries() not deterministic")
		}
	}
	// Smallest size first, then base, then PDID.
	if a[0].Base != 0x1000 || a[0].PDID != 0 {
		t.Errorf("order wrong: %v", a)
	}
	if a[3].Size != 0x10000 {
		t.Errorf("largest last: %v", a)
	}
}

func TestTCAMClear(t *testing.T) {
	tc := NewTCAM("t", 0)
	must(t, tc.Insert(Entry{Base: 0, Size: 4096, Value: 1}))
	tc.Clear()
	if tc.Len() != 0 {
		t.Error("clear failed")
	}
	if _, err := tc.Lookup(0, 100); !errors.Is(err, ErrNoEntry) {
		t.Error("lookup after clear matched")
	}
}

func TestTCAMLookupEntry(t *testing.T) {
	tc := NewTCAM("t", 0)
	must(t, tc.Insert(Entry{PDID: 3, Base: 0x8000, Size: 0x2000, Value: 7}))
	e, err := tc.LookupEntry(3, 0x9fff)
	if err != nil {
		t.Fatal(err)
	}
	if e.Base != 0x8000 || e.Size != 0x2000 || e.Value != 7 || e.PDID != 3 {
		t.Errorf("entry = %v", e)
	}
}

// Property: for any set of nested po2 ranges, Lookup returns the value of
// the smallest range containing the address.
func TestTCAMLPMProperty(t *testing.T) {
	f := func(addrSeed uint32, levels uint8) bool {
		tc := NewTCAM("p", 0)
		addr := uint64(addrSeed) << 12
		nl := int(levels%8) + 1
		// Insert nested ranges of sizes 4K<<i all containing addr.
		for i := 0; i < nl; i++ {
			size := uint64(4096) << (2 * i)
			base := addr &^ (size - 1)
			_ = tc.Insert(Entry{Base: base, Size: size, Value: int64(i)})
		}
		v, err := tc.Lookup(0, addr)
		return err == nil && v == 0 // smallest range (i=0) must win
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: insert then delete leaves the table exactly as before.
func TestTCAMInsertDeleteInverseProperty(t *testing.T) {
	f := func(bases []uint16) bool {
		tc := NewTCAM("p", 0)
		must2 := func(err error) bool { return err == nil }
		// Fixed background rule.
		if !must2(tc.Insert(Entry{Base: 0, Size: 1 << 40, Value: 99})) {
			return false
		}
		inserted := map[uint64]bool{}
		for _, b := range bases {
			base := uint64(b) << 12
			if inserted[base] {
				continue
			}
			if tc.Insert(Entry{Base: base, Size: 4096, Value: int64(b)}) == nil {
				inserted[base] = true
			}
		}
		for base := range inserted {
			if tc.Delete(WildcardPDID, base, 4096) != nil {
				return false
			}
		}
		if tc.Len() != 1 {
			return false
		}
		v, err := tc.Lookup(0, 12345)
		return err == nil && v == 99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// tcamOracle is the brute-force reference FuzzTCAM holds a TCAM to: a
// flat rule list, scanned whole on every lookup.
type tcamOracle struct {
	rules []Entry
}

func (o *tcamOracle) find(pdid uint32, base, size uint64) int {
	for i, e := range o.rules {
		if e.PDID == pdid && e.Base == base && e.Size == size {
			return i
		}
	}
	return -1
}

// lookup returns the longest-prefix match: the smallest matching range,
// and at one size the exact-pdid rule before the wildcard one.
func (o *tcamOracle) lookup(pdid uint32, addr uint64) (Entry, bool) {
	best := -1
	for i, e := range o.rules {
		if addr&^(e.Size-1) != e.Base || (e.PDID != WildcardPDID && e.PDID != pdid) {
			continue
		}
		if best < 0 || e.Size < o.rules[best].Size || e.Size == o.rules[best].Size && e.PDID != WildcardPDID {
			best = i
		}
	}
	if best < 0 {
		return Entry{}, false
	}
	return o.rules[best], true
}

// sorted returns the rules in Entries() order: size, then base, then pdid.
func (o *tcamOracle) sorted() []Entry {
	out := append([]Entry(nil), o.rules...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.Base != b.Base {
			return a.Base < b.Base
		}
		return a.PDID < b.PDID
	})
	return out
}

// tcamFuzzLevels are the range sizes (log2) FuzzTCAM draws from: single
// addresses, two page-scale sizes that nest, and the half-space level
// whose only bases are 0 and 1<<63.
var tcamFuzzLevels = [4]int{0, 12, 14, 63}

const tcamFuzzCapacity = 12

// runTCAMOps reads ops as 3-byte records (kind|pdid, level|high-bit,
// address byte) and applies each to a TCAM and to the oracle, checking
// returned values, errors, Len() and Lookups() after every op and the
// Entries() order before every Clear and at the end.
func runTCAMOps(t *testing.T, ops []byte) *TCAM {
	t.Helper()
	tc := NewTCAM("fuzz", tcamFuzzCapacity)
	o := &tcamOracle{}
	var lookups uint64
	for i := 0; i+2 < len(ops); i += 3 {
		b0, b1, b2 := ops[i], ops[i+1], ops[i+2]
		pdid := uint32(b0>>4) % 3
		size := uint64(1) << tcamFuzzLevels[b1&3]
		addr := uint64(b2)<<10 | uint64(b1>>7)<<63
		base := addr &^ (size - 1)
		switch kind := b0 & 15; {
		case kind < 6:
			e := Entry{PDID: pdid, Base: base, Size: size, Value: int64(i)}
			err := tc.Insert(e)
			switch {
			case o.find(pdid, base, size) >= 0:
				if err == nil || errors.Is(err, ErrTCAMFull) {
					t.Fatalf("op %d: Insert(%v) of a duplicate = %v, want a duplicate error", i, e, err)
				}
			case len(o.rules) >= tcamFuzzCapacity:
				if !errors.Is(err, ErrTCAMFull) {
					t.Fatalf("op %d: Insert(%v) into a full table = %v, want ErrTCAMFull", i, e, err)
				}
			default:
				if err != nil {
					t.Fatalf("op %d: Insert(%v) = %v", i, e, err)
				}
				o.rules = append(o.rules, e)
			}
		case kind < 9:
			err := tc.Delete(pdid, base, size)
			if j := o.find(pdid, base, size); j >= 0 {
				if err != nil {
					t.Fatalf("op %d: Delete(%d, %#x, %#x) = %v", i, pdid, base, size, err)
				}
				o.rules = append(o.rules[:j], o.rules[j+1:]...)
			} else if !errors.Is(err, ErrNoEntry) {
				t.Fatalf("op %d: Delete(%d, %#x, %#x) of an absent rule = %v, want ErrNoEntry", i, pdid, base, size, err)
			}
		case kind < 13:
			v, err := tc.Lookup(pdid, addr)
			lookups++
			want, ok := o.lookup(pdid, addr)
			if ok && (err != nil || v != want.Value) || !ok && !errors.Is(err, ErrNoEntry) {
				t.Fatalf("op %d: Lookup(%d, %#x) = (%d, %v), oracle (%v, %v)", i, pdid, addr, v, err, want, ok)
			}
		case kind < 15:
			got, err := tc.LookupEntry(pdid, addr)
			lookups++
			want, ok := o.lookup(pdid, addr)
			if ok && (err != nil || got != want) || !ok && !errors.Is(err, ErrNoEntry) {
				t.Fatalf("op %d: LookupEntry(%d, %#x) = (%v, %v), oracle (%v, %v)", i, pdid, addr, got, err, want, ok)
			}
		default:
			checkTCAMEntries(t, i, tc, o)
			tc.Clear()
			o.rules = o.rules[:0]
		}
		if tc.Len() != len(o.rules) || tc.Lookups() != lookups {
			t.Fatalf("op %d: Len() = %d, Lookups() = %d; oracle %d, %d", i, tc.Len(), tc.Lookups(), len(o.rules), lookups)
		}
	}
	checkTCAMEntries(t, len(ops), tc, o)
	return tc
}

// checkTCAMEntries compares Entries() with the oracle's rules in order.
func checkTCAMEntries(t *testing.T, op int, tc *TCAM, o *tcamOracle) {
	t.Helper()
	got, want := tc.Entries(), o.sorted()
	if len(got) != len(want) {
		t.Fatalf("op %d: Entries() has %d rules, oracle %d", op, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("op %d: Entries()[%d] = %v, oracle %v", op, j, got[j], want[j])
		}
	}
}

// randomTCAMOps draws n op records over the first span address bytes,
// with Clear made rare, so tables fill to capacity and drain again
// between clears; a small span makes deletes and duplicates hit.
func randomTCAMOps(seed int64, n, span int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		b0 := byte(rng.Intn(256))
		if b0&15 == 15 && rng.Intn(8) != 0 {
			b0 &^= 1
		}
		ops = append(ops, b0, byte(rng.Intn(256)), byte(rng.Intn(span)))
	}
	return ops
}

// wrappedTCAMOps inserts three wildcard page-size rules whose probes all
// start at the last slot of a fresh table, so the chain wraps to slots 0
// and 1; it then looks each up, deletes the rule at the chain's head
// (backward shift across the wrap) and the other two.
func wrappedTCAMOps() []byte {
	fresh := &table{shift: 64 - 3} // tableMinSize slots
	var keys []byte
	for b2 := 0; b2 < 256 && len(keys) < 3; b2 += 4 {
		if fresh.home(WildcardPDID, uint64(b2)<<10) == tableMinSize-1 {
			keys = append(keys, byte(b2))
		}
	}
	var ops []byte
	for _, kind := range []byte{0, 9, 13, 6, 9, 13, 6} { // insert, lookups, delete
		for _, k := range keys {
			ops = append(ops, kind, 1, k)
		}
	}
	return ops
}

func TestTCAMTableWrappedChain(t *testing.T) {
	ops := wrappedTCAMOps()
	tc := runTCAMOps(t, ops[:9])
	tb := tc.levels[12]
	if len(ops) != 3*21 || len(tb.slots) != tableMinSize || !tb.slots[tableMinSize-1].used || !tb.slots[0].used || !tb.slots[1].used {
		t.Fatalf("after three inserts: %d ops, %d slots; want a chain wrapped around an %d-slot table", len(ops), len(tb.slots), tableMinSize)
	}
	if tc = runTCAMOps(t, ops); tc.Len() != 0 || len(tc.inUse) != 0 {
		t.Fatalf("after deleting every rule: Len() = %d, inUse = %v", tc.Len(), tc.inUse)
	}
}

// TestTCAMRejectedInsertLeavesNoLevel pins that a refused insert — a full
// table or a duplicate — adds no level for every later lookup to probe.
func TestTCAMRejectedInsertLeavesNoLevel(t *testing.T) {
	tc := NewTCAM("t", 1)
	must(t, tc.Insert(Entry{Base: 0, Size: 1 << 12, Value: 1}))
	for lvl := 13; lvl <= 17; lvl++ {
		if err := tc.Insert(Entry{Base: 0, Size: 1 << lvl, Value: 2}); !errors.Is(err, ErrTCAMFull) {
			t.Fatalf("insert at level %d into a full table = %v, want ErrTCAMFull", lvl, err)
		}
	}
	if err := tc.Insert(Entry{Base: 0, Size: 1 << 12, Value: 3}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if len(tc.inUse) != 1 || tc.inUse[0] != 12 {
		t.Errorf("inUse = %v after refused inserts, want [12]", tc.inUse)
	}
}

// FuzzTCAM holds Insert/Delete/Lookup/LookupEntry/Clear on a small-
// capacity TCAM to the brute-force LPM oracle.
func FuzzTCAM(f *testing.F) {
	f.Add(wrappedTCAMOps())
	f.Add(randomTCAMOps(1, 150, 256))
	f.Add(randomTCAMOps(2, 150, 16))
	f.Add([]byte{0x00, 0x01, 0x10, 0x10, 0x01, 0x10, 0x0a, 0x00, 0x13, 0x1a, 0x00, 0x13, 0x2d, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) { runTCAMOps(t, ops) })
}

// TestTCAMLookupZeroAlloc pins the data-plane lookup allocation-free on
// hits and misses, wildcard and pdid-qualified, over one to three levels.
func TestTCAMLookupZeroAlloc(t *testing.T) {
	tc := NewTCAM("t", 0)
	for i, e := range []Entry{
		{Base: 0, Size: 1 << 30, Value: 1},
		{PDID: 7, Base: 0x100000, Size: 0x100000, Value: 2},
		{Base: 0x100000, Size: 0x1000, Value: 3},
	} {
		must(t, tc.Insert(e))
		for _, q := range []struct {
			pdid uint32
			addr uint64
		}{{0, 0x100800}, {7, 0x150000}, {7, 0x5000}, {9, 1 << 31}, {0, 1 << 40}} {
			if avg := testing.AllocsPerRun(1000, func() {
				_, _ = tc.Lookup(q.pdid, q.addr)
				_, _ = tc.LookupEntry(q.pdid, q.addr)
			}); avg != 0 {
				t.Errorf("%d levels: lookup (%d, %#x) allocates %v/op, want 0", i+1, q.pdid, q.addr, avg)
			}
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTCAMLookup(b *testing.B) {
	tc := NewTCAM("b", 0)
	for i := 0; i < 1000; i++ {
		_ = tc.Insert(Entry{Base: uint64(i) << 20, Size: 1 << 20, Value: int64(i)})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tc.Lookup(0, uint64(i%1000)<<20+4096)
	}
}
