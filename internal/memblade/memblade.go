// Package memblade models a MIND memory blade (§6.2): a passive page
// store served entirely by one-sided RDMA — no CPU involvement beyond
// one-time registration. All timing (NIC serialization, DMA service) is
// modelled in the fabric and the directory's protocol path; this package
// only holds bytes.
package memblade

import (
	"sort"

	"mind/internal/mem"
)

// Blade is one memory blade's page store. Pages materialize lazily: a
// page read before any write returns zeroes without allocating, so
// metadata-only simulations (synthetic traces over hundreds of thousands
// of pages) stay cheap while functional workloads (the KVS) get real
// bytes.
type Blade struct {
	id    int
	pages map[uint64][]byte // page index -> 4 KB contents

	reads  uint64
	writes uint64

	// dead marks a killed blade (failure injection): its contents are
	// gone and every subsequent access is lost.
	dead bool
}

// New creates an empty blade.
func New(id int) *Blade {
	return &Blade{id: id, pages: make(map[uint64][]byte)}
}

// ID returns the blade id.
func (b *Blade) ID() int { return b.id }

// ReadPageInto copies the page containing va into dst — allocating a
// fresh page buffer only when dst is nil, so the result is never the
// blade's own — and returns it, or nil if the page was never materialized
// (all-zero; dst is then untouched and stays the caller's to reuse). A
// dead blade serves nothing.
func (b *Blade) ReadPageInto(va mem.VA, dst []byte) []byte {
	if b.dead {
		return nil
	}
	b.reads++
	p, ok := b.pages[mem.PageIndex(va)]
	if !ok {
		return nil
	}
	if dst == nil {
		dst = make([]byte, mem.PageSize)
	}
	copy(dst, p)
	return dst
}

// WritePage stores the page containing va. A nil data writes nothing (a
// never-materialized page stays zero) — used by barrier writebacks.
func (b *Blade) WritePage(va mem.VA, data []byte) {
	if b.dead {
		return
	}
	b.writes++
	if data == nil {
		return
	}
	idx := mem.PageIndex(va)
	p, ok := b.pages[idx]
	if !ok {
		p = make([]byte, mem.PageSize)
		b.pages[idx] = p
	}
	copy(p, data)
}

// MaterializedPages returns how many pages hold real bytes.
func (b *Blade) MaterializedPages() int { return len(b.pages) }

// Ops returns served one-sided reads and writes.
func (b *Blade) Ops() (reads, writes uint64) { return b.reads, b.writes }

// PageCopy is one migrated page: its virtual address and contents.
type PageCopy struct {
	VA   mem.VA
	Data []byte
}

// TakePagesIn removes and returns up to max materialized pages whose
// addresses fall in [base, base+size), in ascending address order — one
// drain batch. The returned slices are the blade's own buffers (the
// blade no longer references them). max <= 0 means no limit.
func (b *Blade) TakePagesIn(base mem.VA, size uint64, max int) []PageCopy {
	lo, hi := mem.PageIndex(base), mem.PageIndex(base+mem.VA(size)-1)
	idxs := make([]uint64, 0, 16)
	for idx := range b.pages {
		if idx >= lo && idx <= hi {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	if max > 0 && len(idxs) > max {
		idxs = idxs[:max]
	}
	out := make([]PageCopy, 0, len(idxs))
	for _, idx := range idxs {
		out = append(out, PageCopy{VA: mem.VA(idx) * mem.PageSize, Data: b.pages[idx]})
		delete(b.pages, idx)
	}
	return out
}

// InstallPage stores a migrated page's bytes directly: the drain path's
// receive side, or the source taking back a page whose transfer failed (no
// RDMA accounting — timing is modelled by the fabric). A no-op on a dead
// blade (crash semantics).
func (b *Blade) InstallPage(p PageCopy) {
	if b.dead {
		return
	}
	b.pages[mem.PageIndex(p.VA)] = p.Data
}

// DropAll discards every materialized page (the final purge of a drain:
// anything left after all live vmas migrated is garbage from freed
// vmas). Returns how many pages were dropped.
func (b *Blade) DropAll() int {
	n := len(b.pages)
	b.pages = make(map[uint64][]byte)
	return n
}

// Kill marks the blade failed and discards its contents. Returns how
// many materialized pages were lost.
func (b *Blade) Kill() int {
	lost := len(b.pages)
	b.pages = make(map[uint64][]byte)
	b.dead = true
	return lost
}

// Dead reports whether the blade has been killed.
func (b *Blade) Dead() bool { return b.dead }
