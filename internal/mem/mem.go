// Package mem defines the shared vocabulary of the MIND reproduction:
// virtual addresses in the single global address space (§4.1), pages,
// power-of-two range arithmetic for TCAM entries (§4.2), protection
// domains and permission classes, and virtual memory areas (vmas).
package mem

import (
	"fmt"
	"math/bits"
)

// VA is a virtual address in MIND's single global virtual address space
// shared by all processes (§4.1).
type VA uint64

// Page geometry: MIND performs page-level remote accesses at 4 KB (§3.2).
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KB
)

// VALimit bounds the global virtual address space: every address the
// allocator hands out lies below it (ctrlplane.Allocator refuses a blade
// partition that would reach it), so a page number fits in 38 bits; a
// compute blade's page index refuses a page at or above it.
const VALimit VA = 1 << 50

// PageBase returns the address of the page containing va.
func PageBase(va VA) VA { return va &^ (PageSize - 1) }

// PageIndex returns the page number containing va.
func PageIndex(va VA) uint64 { return uint64(va) >> PageShift }

// StoreBuffer is a PSO thread's store buffer (§6.1): the page of each
// asynchronous write still propagating, one entry per write, so its
// length is the number of writes outstanding. A thread stalls before it
// holds more than its store-buffer depth (16 by default), so scanning
// it beats hashing.
type StoreBuffer []VA

// Add records one outstanding write to page.
func (b *StoreBuffer) Add(page VA) { *b = append(*b, page) }

// Holds reports whether a write to page is still outstanding.
func (b StoreBuffer) Holds(page VA) bool {
	for _, p := range b {
		if p == page {
			return true
		}
	}
	return false
}

// Drain retires one outstanding write to page, the page it was added
// with. Entries keep no order.
func (b *StoreBuffer) Drain(page VA) {
	s := *b
	for i, p := range s {
		if p == page {
			s[i] = s[len(s)-1]
			*b = s[:len(s)-1]
			return
		}
	}
}

// PDID identifies a protection domain (§4.2). For existing applications
// MIND uses the process identifier as the PDID.
type PDID uint32

// Perm is a permission class (§4.2). Linux-compatible classes are
// provided; richer application-defined classes can use higher values.
type Perm uint8

// Permission classes.
const (
	PermNone      Perm = 0
	PermRead      Perm = 1
	PermReadWrite Perm = 2
)

// Allows reports whether a holder of p may perform an access requiring
// want.
func (p Perm) Allows(want Perm) bool { return p >= want && want != PermNone }

func (p Perm) String() string {
	switch p {
	case PermNone:
		return "none"
	case PermRead:
		return "r--"
	case PermReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("perm(%d)", uint8(p))
	}
}

// VMA is a virtual memory area: the basic unit of protection in MIND
// (§4.1), identified by its base address and length.
type VMA struct {
	Base VA
	Len  uint64
	PDID PDID
	Perm Perm
}

// End returns the first address past the area.
func (v VMA) End() VA { return v.Base + VA(v.Len) }

// Contains reports whether va falls inside the area.
func (v VMA) Contains(va VA) bool { return va >= v.Base && va < v.End() }

// Overlaps reports whether two areas intersect.
func (v VMA) Overlaps(o VMA) bool { return v.Base < o.End() && o.Base < v.End() }

func (v VMA) String() string {
	return fmt.Sprintf("vma{%#x +%#x pdid=%d %s}", uint64(v.Base), v.Len, v.PDID, v.Perm)
}

// Range is a power-of-two sized, size-aligned address range — what one
// TCAM entry can match (§4.2).
type Range struct {
	Base VA
	Size uint64
}

// End returns the first address past the range.
func (r Range) End() VA { return r.Base + VA(r.Size) }

// Contains reports whether va falls inside the range.
func (r Range) Contains(va VA) bool { return va >= r.Base && va < r.End() }

// Overlaps reports whether the half-open ranges r and s share any
// address.
func (r Range) Overlaps(s Range) bool { return r.Base < s.End() && s.Base < r.End() }

// IsPow2 reports whether x is a power of two.
func IsPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }

// NextPow2 returns the smallest power of two >= x (x=0 yields 1). It
// panics if x exceeds 2^63 (not representable).
func NextPow2(x uint64) uint64 {
	if x <= 1 {
		return 1
	}
	if x > 1<<63 {
		panic("mem: NextPow2 overflow")
	}
	return 1 << (64 - bits.LeadingZeros64(x-1))
}

// AlignUp rounds va up to the next multiple of the power-of-two align.
func AlignUp(va VA, align uint64) VA {
	if !IsPow2(align) {
		panic("mem: AlignUp with non-power-of-two alignment")
	}
	return (va + VA(align) - 1) &^ VA(align-1)
}

// AlignDown rounds va down to a multiple of the power-of-two align.
func AlignDown(va VA, align uint64) VA {
	if !IsPow2(align) {
		panic("mem: AlignDown with non-power-of-two alignment")
	}
	return va &^ VA(align-1)
}

// SplitPow2 decomposes [base, base+length) into the minimal sequence of
// power-of-two sized, size-aligned ranges — the standard binary
// decomposition used to install an arbitrary range as TCAM entries
// (§4.2). The number of ranges is at most 2·log2(length).
func SplitPow2(base VA, length uint64) []Range {
	var out []Range
	for length > 0 {
		// Largest power of two that both divides the current base
		// alignment and fits in the remaining length.
		maxByAlign := uint64(1) << 63
		if base != 0 {
			maxByAlign = uint64(base) & (^uint64(base) + 1) // lowest set bit
		}
		maxByLen := uint64(1) << (63 - bits.LeadingZeros64(length))
		size := maxByAlign
		if maxByLen < size {
			size = maxByLen
		}
		out = append(out, Range{Base: base, Size: size})
		base += VA(size)
		length -= size
	}
	return out
}

// Log2 returns floor(log2(x)); x must be non-zero.
func Log2(x uint64) int {
	if x == 0 {
		panic("mem: Log2(0)")
	}
	return 63 - bits.LeadingZeros64(x)
}
