package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPageHelpers(t *testing.T) {
	if PageBase(0x1fff) != 0x1000 {
		t.Errorf("PageBase = %#x", uint64(PageBase(0x1fff)))
	}
	if PageIndex(0x2abc) != 2 {
		t.Errorf("PageIndex = %d", PageIndex(0x2abc))
	}
}

func TestPermAllows(t *testing.T) {
	cases := []struct {
		have, want Perm
		ok         bool
	}{
		{PermReadWrite, PermRead, true},
		{PermReadWrite, PermReadWrite, true},
		{PermRead, PermRead, true},
		{PermRead, PermReadWrite, false},
		{PermNone, PermRead, false},
		{PermReadWrite, PermNone, false}, // "no access required" is not an access
	}
	for _, c := range cases {
		if got := c.have.Allows(c.want); got != c.ok {
			t.Errorf("%v allows %v = %v, want %v", c.have, c.want, got, c.ok)
		}
	}
}

func TestPermString(t *testing.T) {
	if PermRead.String() != "r--" || PermReadWrite.String() != "rw-" || PermNone.String() != "none" {
		t.Error("perm strings wrong")
	}
	if Perm(9).String() == "" {
		t.Error("unknown perm should still format")
	}
}

func TestVMA(t *testing.T) {
	v := VMA{Base: 0x1000, Len: 0x2000, PDID: 1, Perm: PermRead}
	if v.End() != 0x3000 {
		t.Errorf("End = %#x", uint64(v.End()))
	}
	if !v.Contains(0x1000) || !v.Contains(0x2fff) || v.Contains(0x3000) || v.Contains(0xfff) {
		t.Error("Contains wrong")
	}
	o := VMA{Base: 0x2fff, Len: 1}
	if !v.Overlaps(o) || !o.Overlaps(v) {
		t.Error("Overlaps wrong")
	}
	o = VMA{Base: 0x3000, Len: 0x1000}
	if v.Overlaps(o) {
		t.Error("adjacent should not overlap")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[uint64]uint64{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 4095: 4096, 4096: 4096, 4097: 8192}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestAlign(t *testing.T) {
	if AlignUp(0x1001, 0x1000) != 0x2000 {
		t.Error("AlignUp")
	}
	if AlignUp(0x1000, 0x1000) != 0x1000 {
		t.Error("AlignUp exact")
	}
	if AlignDown(0x1fff, 0x1000) != 0x1000 {
		t.Error("AlignDown")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-po2 align should panic")
		}
	}()
	AlignUp(1, 3)
}

func TestSplitPow2Simple(t *testing.T) {
	// Aligned po2 range -> single entry.
	rs := SplitPow2(0x4000, 0x4000)
	if len(rs) != 1 || rs[0].Base != 0x4000 || rs[0].Size != 0x4000 {
		t.Errorf("aligned po2: %v", rs)
	}
	// The paper's example: a 1KB area at an arbitrary base.
	rs = SplitPow2(0x7f84b862d400, 0x400)
	total := uint64(0)
	for _, r := range rs {
		total += r.Size
	}
	if total != 0x400 {
		t.Errorf("coverage = %#x", total)
	}
}

// Property: SplitPow2 exactly tiles the input range with aligned
// power-of-two pieces, using at most 2*log2(len)+2 pieces.
func TestSplitPow2Property(t *testing.T) {
	f := func(baseSeed, lenSeed uint32) bool {
		base := VA(baseSeed) << 10
		length := uint64(lenSeed)%(1<<24) + 1
		rs := SplitPow2(base, length)
		cur := base
		for _, r := range rs {
			if r.Base != cur {
				return false // gap or overlap
			}
			if !IsPow2(r.Size) {
				return false
			}
			if uint64(r.Base)&(r.Size-1) != 0 {
				return false // misaligned
			}
			cur = r.End()
		}
		if cur != base+VA(length) {
			return false
		}
		return len(rs) <= 2*Log2(NextPow2(length))+2
	}
	seed := time.Now().UnixNano() // to replay a failure, pin the logged seed here
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestSplitPow2BaseZero(t *testing.T) {
	rs := SplitPow2(0, 12288) // 3 pages from zero
	if len(rs) != 2 {
		t.Fatalf("got %v", rs)
	}
	if rs[0].Size != 8192 || rs[1].Size != 4096 {
		t.Errorf("decomposition = %v", rs)
	}
}

func TestLog2(t *testing.T) {
	if Log2(1) != 0 || Log2(4096) != 12 || Log2(6000) != 12 {
		t.Error("Log2 wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(0) should panic")
		}
	}()
	Log2(0)
}

func TestRangeContains(t *testing.T) {
	r := Range{Base: 0x1000, Size: 0x1000}
	if !r.Contains(0x1000) || r.Contains(0x2000) {
		t.Error("Range.Contains wrong")
	}
	if r.End() != 0x2000 {
		t.Error("Range.End wrong")
	}
}

// TestStoreBuffer: a page written twice is held until both writes
// drain, draining one page leaves the others, and the length counts
// writes, not pages.
func TestStoreBuffer(t *testing.T) {
	const a, b, c VA = 0x1000, 0x2000, 0x3000
	var buf StoreBuffer
	for i, step := range []struct {
		add   bool
		page  VA
		held  []VA // pages Holds must report, of a, b and c
		total int
	}{
		{true, a, []VA{a}, 1},
		{true, b, []VA{a, b}, 2},
		{true, a, []VA{a, b}, 3},
		{true, c, []VA{a, b, c}, 4},
		{false, a, []VA{a, b, c}, 3},
		{false, b, []VA{a, c}, 2},
		{false, a, []VA{c}, 1},
		{true, b, []VA{b, c}, 2},
		{false, c, []VA{b}, 1},
		{false, b, nil, 0},
	} {
		if step.add {
			buf.Add(step.page)
		} else {
			buf.Drain(step.page)
		}
		for _, p := range []VA{a, b, c} {
			want := false
			for _, h := range step.held {
				want = want || h == p
			}
			if buf.Holds(p) != want {
				t.Fatalf("step %d: Holds(%#x) = %v, want %v (buffer %v)", i, uint64(p), !want, want, buf)
			}
		}
		if len(buf) != step.total {
			t.Fatalf("step %d: %d writes outstanding, want %d", i, len(buf), step.total)
		}
	}
}
