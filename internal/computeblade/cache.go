// Package computeblade models a MIND compute blade (§6.1): a traditional
// server whose local DRAM acts as a page cache over disaggregated memory.
// It implements page-fault-driven remote access, a local page table with
// writable-page tracking, the invalidation handler that flushes dirty
// pages and performs TLB shootdowns on coherence events, and the
// ACK/timeout/reset recovery protocol of §4.4.
package computeblade

import (
	"fmt"

	"mind/internal/mem"
	"mind/internal/sim"
)

// PageState describes one locally cached page: a 16-byte, pointer-free
// record in the cache's record store. A *PageState points into that
// store, so it stays valid only until the next Insert of a page the
// cache does not hold (which may grow the store and move every record);
// and once the page is evicted or removed, the record belongs to the
// cache's free chain and is reused by such an Insert. Finish with a
// record before inserting. The page's bytes, if any, are kept beside
// the record (Cache.Data).
type PageState struct {
	VA mem.VA
	// prev and next hold record indices in their low idxBits bits: they
	// link the record into the LRU ring (record 0 is the ring's
	// sentinel), and a free record chains the free list through next.
	// The top bits of next are the page's flags (dirtyBit, writableBit),
	// which every link update keeps. The record's own index is not
	// stored: the cache reads it from the predecessor's next while the
	// record is in the ring, and a record that has left the ring keeps
	// it in prev (Cache.index).
	prev, next uint32
}

// The flag bits of PageState.next, above its idxBits-bit link.
const (
	dirtyBit    = 1 << 31
	writableBit = 1 << 30
)

// Dirty reports whether the cached copy holds writes its memory blade
// has not seen.
func (p *PageState) Dirty() bool { return p.next&dirtyBit != 0 }

// Writable reports whether the page is cached with write permission.
func (p *PageState) Writable() bool { return p.next&writableBit != 0 }

// SetDirty sets or clears Dirty.
func (p *PageState) SetDirty(dirty bool) { p.setFlag(dirtyBit, dirty) }

// SetWritable sets or clears Writable.
func (p *PageState) SetWritable(writable bool) { p.setFlag(writableBit, writable) }

func (p *PageState) setFlag(bit uint32, on bool) {
	if on {
		p.next |= bit
	} else {
		p.next &^= bit
	}
}

// setNext points p's link at record i, keeping p's flags.
func (p *PageState) setNext(i uint32) { p.next = p.next&^idxMask | i }

// Cache is the compute blade's local DRAM page cache: virtually addressed
// and permission-carrying (§3.2). The zero value is not usable; use
// NewCache.
type Cache struct {
	capacity int // pages
	// pages indexes the cached records by page: an open-addressed table
	// of 4-byte slots that grows with occupancy, so the per-access lookup
	// never pays runtime map hashing (see pageindex.go).
	pages pageIndex
	// recs is the record store, addressed by index. recs[0] is the LRU
	// ring's sentinel: recs[0].next is most recent, recs[0].prev least
	// recent. The store is made by the first insert and doubles as pages
	// arrive, up to capacity records beside the sentinel, so a cache that
	// never fills never pays for its capacity; evicted records go to the
	// free chain headed by free and are reused before the store grows
	// again.
	recs []PageState
	free uint32
	// data holds each record's materialized bytes, by record index. It is
	// created when the cache first stores bytes, so timing-only runs
	// never pay for it, and a buffer stays with its record across reuse.
	data [][]byte

	scratch []*PageState // PagesIn result buffer, reused per call
}

// recordMinCap is the record store's first size, sentinel included.
const recordMinCap = 16

// MaxCachePages is the largest cache capacity: the page index names a
// record in idxBits bits, and record 0 is the LRU sentinel.
const MaxCachePages = idxMask

// NewCache creates a cache holding at most capacity pages. Construction
// is O(1): the record store and the page index grow as pages arrive.
func NewCache(capacity int) *Cache {
	if capacity < 1 || capacity > MaxCachePages {
		panic(fmt.Sprintf("computeblade: cache capacity %d outside [1, %d]", capacity, MaxCachePages))
	}
	return &Cache{capacity: capacity}
}

// index returns the index of record p. A record in the LRU ring is its
// predecessor's successor; one that has left the ring keeps its own
// index in prev, and its predecessor's link (its own free-chain link)
// never names it.
func (c *Cache) index(p *PageState) uint32 {
	if i := c.recs[p.prev].next & idxMask; &c.recs[i] == p {
		return i
	}
	return p.prev
}

// unlink removes record i from the LRU ring.
func (c *Cache) unlink(i uint32) {
	p := &c.recs[i]
	next := p.next & idxMask
	c.recs[p.prev].setNext(next)
	c.recs[next].prev = p.prev
}

// pushFront makes record i the most recently used.
func (c *Cache) pushFront(i uint32) {
	p, head := &c.recs[i], &c.recs[0] // the sentinel carries no flags
	p.prev = 0
	p.setNext(head.next)
	c.recs[head.next].prev = i
	head.next = i
}

// Capacity returns the page capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.pages.n }

// touch makes record i the most recently used.
func (c *Cache) touch(i uint32) {
	if c.recs[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// Lookup returns the page if cached, bumping recency.
func (c *Cache) Lookup(va mem.VA) (*PageState, bool) {
	i := c.pages.get(c.recs, va)
	if i == 0 {
		return nil, false
	}
	c.touch(i)
	return &c.recs[i], true
}

// Peek returns the page without recency effects.
func (c *Cache) Peek(va mem.VA) (*PageState, bool) {
	if i := c.pages.get(c.recs, va); i != 0 {
		return &c.recs[i], true
	}
	return nil, false
}

// Insert adds a page (evicting if needed is the caller's job — use
// NeedsEviction/EvictLRU first). Inserting an existing page updates it.
func (c *Cache) Insert(va mem.VA, writable bool) *PageState {
	if i := c.pages.get(c.recs, va); i != 0 {
		p := &c.recs[i]
		p.SetWritable(writable)
		c.touch(i)
		return p
	}
	if c.pages.n >= c.capacity {
		panic(fmt.Sprintf("computeblade: insert over capacity (%d)", c.capacity))
	}
	i := c.newRecord()
	// Reinitialize, but keep a reused record's bytes: the blade's fill
	// either overwrites them in place or replaces them with nil, so
	// steady-state cache churn over materialized pages recycles page
	// buffers instead of allocating. Stale bytes never leak — the buffer
	// is unreachable until the fill stores the page's own.
	p := &c.recs[i]
	p.VA, p.next = mem.PageBase(va), 0
	p.SetWritable(writable)
	c.pushFront(i)
	c.pages.put(c.recs, p.VA, i)
	return p
}

// newRecord takes a record off the free chain or, when none is free,
// appends one to the store, doubling it if full.
func (c *Cache) newRecord() uint32 {
	if i := c.free; i != 0 {
		c.free = c.recs[i].next & idxMask
		return i
	}
	// The free chain is empty, so every record is in the table: the
	// store never outgrows capacity plus the sentinel. The first insert
	// makes the store, with the sentinel as record 0.
	if len(c.recs) == cap(c.recs) {
		grown := make([]PageState, max(len(c.recs), 1), min(max(2*cap(c.recs), recordMinCap), c.capacity+1))
		copy(grown, c.recs)
		c.recs = grown
	}
	c.recs = append(c.recs, PageState{})
	return uint32(len(c.recs) - 1)
}

// NeedsEviction reports whether an insert requires evicting first.
func (c *Cache) NeedsEviction() bool { return c.pages.n >= c.capacity }

// EvictLRU removes and returns the least-recently-used page. Returns nil
// if the cache is empty. The returned record is recycled on the next
// insert: the caller must finish with it, and with its Data, before
// inserting.
func (c *Cache) EvictLRU() *PageState {
	if c.pages.n == 0 {
		return nil
	}
	i := c.recs[0].prev
	c.remove(i)
	return &c.recs[i]
}

// Remove drops a specific page (invalidation path). Returns false if not
// cached.
func (c *Cache) Remove(va mem.VA) bool {
	i := c.pages.get(c.recs, va)
	if i == 0 {
		return false
	}
	c.remove(i)
	return true
}

// remove takes record i out of the ring and the index and frees it; it
// keeps its page, its flags and, in prev, its own index.
func (c *Cache) remove(i uint32) {
	c.unlink(i)
	c.pages.del(c.recs, i)
	p := &c.recs[i]
	p.prev = i
	p.setNext(c.free)
	c.free = i
}

// Data returns the bytes stored for p's page, or nil when it holds no
// materialized bytes. Right after an Insert that reused a record, it is
// the previous page's buffer, for the fill to overwrite (see Insert).
func (c *Cache) Data(p *PageState) []byte {
	if i := c.index(p); int(i) < len(c.data) {
		return c.data[i]
	}
	return nil
}

// SetData stores data as p's page bytes; nil marks the page as never
// written (it reads as zero). The cache keeps the slice, not a copy.
func (c *Cache) SetData(p *PageState, data []byte) {
	i := c.index(p)
	if int(i) >= len(c.data) {
		if data == nil {
			return
		}
		c.data = append(c.data, make([][]byte, cap(c.recs)-len(c.data))...)
	}
	c.data[i] = data
}

// PagesIn returns the cached pages whose addresses fall in [base,
// base+size) — the invalidation handler's scan, whose order decides the
// order of its writebacks. When the range spans no more pages than the
// cache holds, it probes each page and returns them in ascending VA;
// otherwise it walks the LRU ring and returns them most recent first.
// The returned slice is a scratch buffer owned by the cache, valid until
// the next PagesIn or Insert call.
func (c *Cache) PagesIn(base mem.VA, size uint64) []*PageState {
	out := c.scratch[:0]
	end := base + mem.VA(size)
	if c.pages.n == 0 {
		return out
	}
	if size/mem.PageSize <= uint64(c.pages.n) {
		for va := base; va < end; va += mem.PageSize {
			if p, ok := c.Peek(va); ok {
				out = append(out, p)
			}
		}
	} else {
		for i := c.recs[0].next; i != 0; i = c.recs[i].next & idxMask {
			if p := &c.recs[i]; p.VA >= base && p.VA < end {
				out = append(out, p)
			}
		}
	}
	c.scratch = out
	return out
}

// HitLatency is the local DRAM access latency (< 100 ns, §7.2).
const HitLatency = 90 * sim.Nanosecond
