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

// PageState describes one locally cached page. Page records are pooled:
// evicted/invalidated pages return to the cache's free list and are
// reinitialized on the next insert, so steady-state cache churn does not
// allocate. Callers must treat a PageState as invalid once the page has
// been evicted or removed.
type PageState struct {
	VA       mem.VA
	Dirty    bool
	Writable bool
	Data     []byte // nil until real bytes are stored (lazy materialization)

	// Intrusive LRU ring links (sentinel-based; see Cache.head).
	prev, next *PageState
}

// Cache is the compute blade's local DRAM page cache: virtually addressed
// and permission-carrying (§3.2). The zero value is not usable; use
// NewCache.
type Cache struct {
	capacity int // pages
	// pages indexes the cached records by page base: an open-addressed
	// table that grows with occupancy, so the per-access lookup never
	// pays runtime map hashing (see wordtable.go).
	pages wordTable[PageState]
	// head is the LRU ring sentinel: head.next is most recent, head.prev
	// least recent.
	head PageState

	free    sim.Pool[PageState]
	scratch []*PageState // PagesIn result buffer, reused per call

	// arena is the uncarved rest of the current chunk of page records.
	// Records are carved arenaChunk at a time as the cache fills, so a
	// cold fill costs one allocation per chunk rather than per page, and
	// a cache that never fills never pays for its capacity (the free
	// list then recycles records forever).
	arena []PageState
}

// arenaChunk is how many page records the cache carves per allocation.
const arenaChunk = 256

// NewCache creates a cache holding at most capacity pages. Construction
// is O(1): the record arena and the page index grow as pages arrive.
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		panic("computeblade: cache needs at least one page")
	}
	c := &Cache{capacity: capacity}
	c.head.prev = &c.head
	c.head.next = &c.head
	return c
}

// unlink removes p from the LRU ring.
func (c *Cache) unlink(p *PageState) {
	p.prev.next = p.next
	p.next.prev = p.prev
	p.prev, p.next = nil, nil
}

// pushFront makes p the most-recently-used entry.
func (c *Cache) pushFront(p *PageState) {
	p.prev = &c.head
	p.next = c.head.next
	p.prev.next = p
	p.next.prev = p
}

// Capacity returns the page capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.pages.n }

// touch makes the cached page p the most recently used.
func (c *Cache) touch(p *PageState) {
	if c.head.next != p {
		c.unlink(p)
		c.pushFront(p)
	}
}

// Lookup returns the page if cached, bumping recency.
func (c *Cache) Lookup(va mem.VA) (*PageState, bool) {
	p, ok := c.Peek(va)
	if ok {
		c.touch(p)
	}
	return p, ok
}

// Peek returns the page without recency effects.
func (c *Cache) Peek(va mem.VA) (*PageState, bool) {
	p := c.pages.get(packPageKey(mem.PageBase(va)))
	return p, p != nil
}

// Insert adds a page (evicting if needed is the caller's job — use
// NeedsEviction/EvictLRU first). Inserting an existing page updates it.
func (c *Cache) Insert(va mem.VA, writable bool) *PageState {
	base := mem.PageBase(va)
	if p := c.pages.get(packPageKey(base)); p != nil {
		p.Writable = writable
		c.touch(p)
		return p
	}
	if c.pages.n >= c.capacity {
		panic(fmt.Sprintf("computeblade: insert over capacity (%d)", c.capacity))
	}
	p := c.free.Get()
	if p != nil {
		// Reinitialize, but keep the Data buffer: the blade's fill
		// either overwrites it in place or replaces it with nil, so
		// steady-state cache churn over materialized pages recycles page
		// buffers instead of allocating. Stale bytes never leak — the
		// buffer is unreachable until the fill assigns Data.
		p.Dirty = false
	} else {
		// The free list is empty, so every record carved so far is in
		// the table: the next chunk never exceeds what capacity allows.
		if len(c.arena) == 0 {
			c.arena = make([]PageState, min(arenaChunk, c.capacity-c.pages.n))
		}
		p = &c.arena[0]
		c.arena = c.arena[1:]
	}
	p.VA, p.Writable = base, writable
	c.pushFront(p)
	c.pages.put(packPageKey(base), p)
	return p
}

// NeedsEviction reports whether an insert requires evicting first.
func (c *Cache) NeedsEviction() bool { return c.pages.n >= c.capacity }

// EvictLRU removes and returns the least-recently-used page. Returns nil
// if the cache is empty. The returned record is recycled on the next
// insert: the caller must finish with it before inserting.
func (c *Cache) EvictLRU() *PageState {
	if c.head.prev == &c.head {
		return nil
	}
	p := c.head.prev
	c.remove(p)
	return p
}

// Remove drops a specific page (invalidation path). Returns false if not
// cached.
func (c *Cache) Remove(va mem.VA) bool {
	p := c.pages.get(packPageKey(mem.PageBase(va)))
	if p == nil {
		return false
	}
	c.remove(p)
	return true
}

func (c *Cache) remove(p *PageState) {
	c.unlink(p)
	c.pages.del(packPageKey(p.VA))
	c.free.Put(p)
}

// PagesIn returns the cached pages whose addresses fall in [base,
// base+size), in unspecified order — the invalidation handler's scan.
// The returned slice is a scratch buffer owned by the cache, valid until
// the next PagesIn call.
func (c *Cache) PagesIn(base mem.VA, size uint64) []*PageState {
	out := c.scratch[:0]
	end := base + mem.VA(size)
	// Probe per page when the range is small relative to occupancy,
	// otherwise walk the LRU ring (every cached page, recency order —
	// deterministic, unlike the map scan this replaced).
	pagesInRange := size / mem.PageSize
	if pagesInRange <= uint64(c.pages.n) {
		for va := base; va < end; va += mem.PageSize {
			if p := c.pages.get(packPageKey(va)); p != nil {
				out = append(out, p)
			}
		}
	} else {
		for p := c.head.next; p != &c.head; p = p.next {
			if p.VA >= base && p.VA < end {
				out = append(out, p)
			}
		}
	}
	c.scratch = out
	return out
}

// HitLatency is the local DRAM access latency (< 100 ns, §7.2).
const HitLatency = 90 * sim.Nanosecond
