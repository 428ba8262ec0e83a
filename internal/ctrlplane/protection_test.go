package ctrlplane

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

func newProt(t *testing.T) (*ProtectionTable, *switchasic.ASIC) {
	t.Helper()
	asic := switchasic.New(switchasic.DefaultConfig())
	return NewProtectionTable(asic), asic
}

func TestProtectionAssignCheck(t *testing.T) {
	p, _ := newProt(t)
	if err := p.Assign(1, 0x10000, 0x4000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(1, 0x12000, mem.PermRead); err != nil {
		t.Errorf("read check failed: %v", err)
	}
	if err := p.Check(1, 0x12000, mem.PermReadWrite); !errors.Is(err, ErrPermission) {
		t.Errorf("write on read-only: %v", err)
	}
	if err := p.Check(2, 0x12000, mem.PermRead); !errors.Is(err, ErrPermission) {
		t.Errorf("other domain: %v", err)
	}
	if err := p.Check(1, 0x14000, mem.PermRead); !errors.Is(err, ErrPermission) {
		t.Errorf("outside range: %v", err)
	}
	if p.Rejects() != 3 {
		t.Errorf("rejects = %d", p.Rejects())
	}
}

func TestProtectionSingleEntryForAlignedPow2(t *testing.T) {
	p, asic := newProt(t)
	// A po2-size, size-aligned vma costs exactly one TCAM entry (§4.2).
	if err := p.Assign(1, 0x40000, 0x40000, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if asic.Protection.Len() != 1 {
		t.Errorf("entries = %d, want 1", asic.Protection.Len())
	}
}

func TestProtectionSplitBound(t *testing.T) {
	p, asic := newProt(t)
	// Arbitrary 3-page area: entries bounded by ~2*log2(s).
	if err := p.Assign(1, 0x7000, 3*4096, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	n := asic.Protection.Len()
	if n == 0 || n > 2*mem.Log2(mem.NextPow2(3*4096))+2 {
		t.Errorf("entries = %d, exceeds split bound", n)
	}
	// Every page in the area must check out; neighbours must not.
	for off := uint64(0); off < 3*4096; off += 4096 {
		if err := p.Check(1, mem.VA(0x7000+off), mem.PermRead); err != nil {
			t.Errorf("page +%#x: %v", off, err)
		}
	}
	if err := p.Check(1, 0x6fff, mem.PermRead); err == nil {
		t.Error("below range allowed")
	}
	if err := p.Check(1, mem.VA(0x7000+3*4096), mem.PermRead); err == nil {
		t.Error("above range allowed")
	}
}

func TestProtectionCoalescing(t *testing.T) {
	p, asic := newProt(t)
	// Two adjacent same-permission buddy areas coalesce into one entry.
	if err := p.Assign(1, 0x8000, 0x1000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(1, 0x9000, 0x1000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if asic.Protection.Len() != 1 {
		t.Errorf("entries = %d, want 1 after coalescing", asic.Protection.Len())
	}
	if err := p.Check(1, 0x8800, mem.PermRead); err != nil {
		t.Error(err)
	}
	if err := p.Check(1, 0x9800, mem.PermRead); err != nil {
		t.Error(err)
	}
}

func TestProtectionNoCoalesceAcrossPerms(t *testing.T) {
	p, asic := newProt(t)
	if err := p.Assign(1, 0x8000, 0x1000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(1, 0x9000, 0x1000, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if asic.Protection.Len() != 2 {
		t.Errorf("entries = %d, want 2 (different perms)", asic.Protection.Len())
	}
}

func TestProtectionNoCoalesceNonBuddies(t *testing.T) {
	p, asic := newProt(t)
	// 0x9000 and 0xA000 are adjacent but not buddies (0x9000^0x1000 =
	// 0x8000); they must not merge into a misaligned entry.
	if err := p.Assign(1, 0x9000, 0x1000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(1, 0xA000, 0x1000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if asic.Protection.Len() != 2 {
		t.Errorf("entries = %d, want 2 (not buddies)", asic.Protection.Len())
	}
}

func TestProtectionCascadingCoalesce(t *testing.T) {
	p, asic := newProt(t)
	// Four consecutive 4K buddy pages collapse to a single 16K entry.
	for i := uint64(0); i < 4; i++ {
		if err := p.Assign(1, mem.VA(0x10000+i*0x1000), 0x1000, mem.PermRead); err != nil {
			t.Fatal(err)
		}
	}
	if asic.Protection.Len() != 1 {
		t.Errorf("entries = %d, want 1 after cascading coalesce", asic.Protection.Len())
	}
}

func TestProtectionRevoke(t *testing.T) {
	p, _ := newProt(t)
	if err := p.Assign(1, 0x10000, 0x10000, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := p.Revoke(1, 0x10000, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(1, 0x14000, mem.PermRead); err == nil {
		t.Error("revoked range still allowed")
	}
	if p.Entries(1) != 0 {
		t.Errorf("entries = %d after revoke", p.Entries(1))
	}
}

func TestProtectionPartialRevokeSplitsEntry(t *testing.T) {
	p, _ := newProt(t)
	if err := p.Assign(1, 0x20000, 0x10000, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	// Revoke the middle 4K page of the 64K area.
	if err := p.Revoke(1, 0x24000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(1, 0x24800, mem.PermRead); err == nil {
		t.Error("revoked page still allowed")
	}
	for _, va := range []mem.VA{0x20000, 0x23fff, 0x25000, 0x2ffff} {
		if err := p.Check(1, va, mem.PermReadWrite); err != nil {
			t.Errorf("retained part %#x rejected: %v", uint64(va), err)
		}
	}
}

func TestProtectionMProtectOverride(t *testing.T) {
	p, _ := newProt(t)
	if err := p.Assign(1, 0x30000, 0x4000, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	// Downgrade to read-only: latest assignment wins.
	if err := p.Assign(1, 0x30000, 0x4000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(1, 0x31000, mem.PermReadWrite); err == nil {
		t.Error("downgrade not applied")
	}
	if err := p.Check(1, 0x31000, mem.PermRead); err != nil {
		t.Error(err)
	}
}

func TestProtectionMultiDomainSameRange(t *testing.T) {
	p, _ := newProt(t)
	// Session-style domains (§4.2): two domains, disjoint rights on one
	// area.
	if err := p.Assign(10, 0x50000, 0x10000, mem.PermReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(11, 0x50000, 0x10000, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := p.Check(10, 0x55000, mem.PermReadWrite); err != nil {
		t.Error(err)
	}
	if err := p.Check(11, 0x55000, mem.PermReadWrite); err == nil {
		t.Error("read-only session wrote")
	}
	if err := p.Check(11, 0x55000, mem.PermRead); err != nil {
		t.Error(err)
	}
}

// Property: after Assign(pdid, base, len, perm), every address in the
// range checks out for perm and the entry count respects the split bound;
// addresses outside (by one byte) do not match.
func TestProtectionCoverageProperty(t *testing.T) {
	f := func(baseSeed uint16, pages uint8) bool {
		asic := switchasic.New(switchasic.DefaultConfig())
		p := NewProtectionTable(asic)
		base := mem.VA(baseSeed) << 12
		n := uint64(pages%16) + 1
		length := n * 4096
		if p.Assign(1, base, length, mem.PermReadWrite) != nil {
			return false
		}
		for off := uint64(0); off < length; off += 4096 {
			if p.Check(1, base+mem.VA(off), mem.PermReadWrite) != nil {
				return false
			}
		}
		if base > 0 && p.Check(1, base-1, mem.PermRead) == nil {
			return false
		}
		if p.Check(1, base+mem.VA(length), mem.PermRead) == nil {
			return false
		}
		return asic.Protection.Len() <= 2*mem.Log2(mem.NextPow2(length))+2
	}
	seed := time.Now().UnixNano() // to replay a failure, pin the logged seed here
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestProtectionEntriesAllDomains(t *testing.T) {
	p, _ := newProt(t)
	_ = p.Assign(1, 0x1000, 4096, mem.PermRead)
	_ = p.Assign(2, 0x2000, 4096, mem.PermRead)
	if p.Entries(0) != 2 {
		t.Errorf("total entries = %d", p.Entries(0))
	}
}

// protFuzzBase is the first page of FuzzProtection's 64-page window. It
// is aligned to the window's size, so buddy coalescing can reach one
// entry covering the whole window.
const (
	protFuzzPages  = 64
	protFuzzBase   = mem.VA(protFuzzPages * mem.PageSize)
	protFuzzMaxOps = 16
)

// runProtectionOps reads ops as 3-byte Assign/Revoke ops over a 64-page
// window and pdids {1, 2, 3}: the first byte holds the kind (bit 0,
// Revoke if set), the perm (bit 1, read-write if set) and the pdid (the
// bits above); the next two are the first page and the page count less
// one. After every op, Check of every page, pdid and wanted perm must
// agree with a per-page permission oracle, Rejects must count the
// refusals, and Entries(0) must equal the TCAM's rule count. Only the
// first protFuzzMaxOps ops run: each costs ~400 checks, and a refused
// check formats its error.
func runProtectionOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) > 3*protFuzzMaxOps {
		ops = ops[:3*protFuzzMaxOps]
	}
	asic := switchasic.New(switchasic.DefaultConfig())
	p := NewProtectionTable(asic)
	var oracle [4][protFuzzPages]mem.Perm // pdid 1..3; PermNone is unmapped
	var rejects uint64
	for i := 0; i+2 < len(ops); i += 3 {
		ctl := ops[i]
		pdid := mem.PDID(ctl>>2)%3 + 1
		perm := mem.PermRead
		if ctl&2 != 0 {
			perm = mem.PermReadWrite
		}
		first := uint64(ops[i+1]) % protFuzzPages
		n := uint64(ops[i+2])%(protFuzzPages-first) + 1
		base := protFuzzBase + mem.VA(first*mem.PageSize)
		length := n * mem.PageSize
		if ctl&1 == 0 {
			if err := p.Assign(pdid, base, length, perm); err != nil {
				t.Fatalf("op %d: Assign(%d, %#x, %#x, %v) = %v", i/3, pdid, uint64(base), length, perm, err)
			}
		} else {
			if err := p.Revoke(pdid, base, length); err != nil {
				t.Fatalf("op %d: Revoke(%d, %#x, %#x) = %v", i/3, pdid, uint64(base), length, err)
			}
			perm = mem.PermNone
		}
		for pg := first; pg < first+n; pg++ {
			oracle[pdid][pg] = perm
		}
		for d := mem.PDID(1); d <= 3; d++ {
			for pg := uint64(0); pg < protFuzzPages; pg++ {
				// An address inside the page, not only its first byte.
				va := protFuzzBase + mem.VA(pg*mem.PageSize+pg*61)
				for _, want := range []mem.Perm{mem.PermRead, mem.PermReadWrite} {
					err := p.Check(d, va, want)
					if ok := oracle[d][pg].Allows(want); ok != (err == nil) {
						t.Fatalf("op %d: Check(%d, page %d, %v) = %v, oracle has %v", i/3, d, pg, want, err, oracle[d][pg])
					}
					if err != nil {
						rejects++
					}
				}
			}
			for _, va := range []mem.VA{protFuzzBase - 1, protFuzzBase + protFuzzPages*mem.PageSize} {
				if p.Check(d, va, mem.PermRead) == nil {
					t.Fatalf("op %d: Check(%d, %#x) outside the window allowed", i/3, d, uint64(va))
				}
				rejects++
			}
		}
		if p.Rejects() != rejects {
			t.Fatalf("op %d: Rejects() = %d, want %d", i/3, p.Rejects(), rejects)
		}
		if got, want := p.Entries(0), asic.Protection.Len(); got != want {
			t.Fatalf("op %d: Entries(0) = %d, TCAM holds %d rules", i/3, got, want)
		}
	}
}

func randomProtectionOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 3*n)
	rng.Read(ops)
	return ops
}

// FuzzProtection holds Assign/Revoke — range splitting, buddy coalescing
// and the split-down of partly revoked rules — to a per-page oracle.
func FuzzProtection(f *testing.F) {
	f.Add([]byte{
		0x00, 0, 63, // pdid 1: the whole window read-only
		0x01, 20, 2, // pdid 1: revoke pages 20..22
		0x02, 16, 15, // pdid 1: pages 16..31 read-write
		0x02, 0, 15, // pdid 1: pages 0..15 read-write, the buddy of 16..31
		0x04, 7, 40, // pdid 2: pages 7..47 read-only, unaligned
		0x0a, 5, 0, // pdid 3: page 5 read-write
		0x01, 0, 63, // pdid 1: revoke the whole window
	})
	f.Add(randomProtectionOps(1, protFuzzMaxOps))
	f.Add(randomProtectionOps(2, protFuzzMaxOps))
	f.Fuzz(func(t *testing.T, ops []byte) { runProtectionOps(t, ops) })
}
