package computeblade

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"mind/internal/mem"
	"mind/internal/sim"
)

func TestCacheInsertLookup(t *testing.T) {
	c := NewCache(4)
	p := c.Insert(0x1234, true)
	if p.VA != 0x1000 {
		t.Errorf("page base = %#x", uint64(p.VA))
	}
	got, ok := c.Lookup(0x1fff)
	if !ok || got != p {
		t.Error("lookup by any address in page should hit")
	}
	if _, ok := c.Lookup(0x2000); ok {
		t.Error("missing page hit")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(3)
	c.Insert(0x1000, false)
	c.Insert(0x2000, false)
	c.Insert(0x3000, false)
	// Touch 0x1000 so 0x2000 becomes LRU.
	c.Lookup(0x1000)
	if !c.NeedsEviction() {
		t.Fatal("cache should be full")
	}
	v := c.EvictLRU()
	if v.VA != 0x2000 {
		t.Errorf("evicted %#x, want 0x2000", uint64(v.VA))
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheInsertExistingUpdates(t *testing.T) {
	c := NewCache(2)
	c.Insert(0x1000, false)
	p := c.Insert(0x1000, true)
	if !p.Writable() {
		t.Error("reinsert should upgrade writability")
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheRemove(t *testing.T) {
	c := NewCache(2)
	c.Insert(0x1000, false)
	if !c.Remove(0x1800) {
		t.Error("remove by interior address failed")
	}
	if c.Remove(0x1000) {
		t.Error("double remove succeeded")
	}
	if c.EvictLRU() != nil {
		t.Error("evict from empty should be nil")
	}
}

func TestCachePagesIn(t *testing.T) {
	c := NewCache(16)
	for i := uint64(0); i < 8; i++ {
		c.Insert(mem.VA(i*0x1000), false)
	}
	got := c.PagesIn(0x2000, 0x3000) // pages 2,3,4
	if len(got) != 3 {
		t.Fatalf("pages in range = %d, want 3", len(got))
	}
	// A range larger than the occupancy takes the LRU walk.
	got = c.PagesIn(0, 1<<30)
	if len(got) != 8 {
		t.Errorf("pages in whole range = %d", len(got))
	}
	if got := c.PagesIn(0x100000, 0x1000); len(got) != 0 {
		t.Errorf("empty range returned %d", len(got))
	}
}

func TestCacheCapacityPanics(t *testing.T) {
	c := NewCache(1)
	c.Insert(0x1000, false)
	defer func() {
		if recover() == nil {
			t.Error("over-capacity insert should panic")
		}
	}()
	c.Insert(0x2000, false)
}

func TestNewCacheValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity cache should panic")
		}
	}()
	NewCache(0)
}

// TestCacheDataFollowsRecord: a page's bytes are found from its record
// wherever the record is — at either end of the LRU ring or inside it,
// and after it has left the ring by eviction or removal — until an
// insert reuses the record and hands the buffer on to the fill.
func TestCacheDataFollowsRecord(t *testing.T) {
	c := NewCache(4)
	for i := 0; i < 4; i++ {
		c.SetData(c.Insert(mem.VA(i)<<mem.PageShift, false), []byte{byte(i)})
	}
	c.Lookup(0x1000) // most recent first: pages 1, 3, 2, 0
	holds := func(what string, p *PageState, b byte) {
		t.Helper()
		if d := c.Data(p); len(d) != 1 || d[0] != b {
			t.Fatalf("%s: page %#x holds %v, want [%d]", what, uint64(p.VA), d, b)
		}
	}
	for i := 0; i < 4; i++ {
		p, _ := c.Peek(mem.VA(i) << mem.PageShift)
		holds("cached", p, byte(i))
	}
	holds("evicted", c.EvictLRU(), 0)
	two, _ := c.Peek(0x2000)
	c.Remove(0x2000)
	holds("removed", two, 2)
	// The free chain hands out page 2's record first, then page 0's.
	if p := c.Insert(0x5000, true); p != two {
		t.Fatal("insert did not reuse the last freed record")
	} else {
		holds("reused", p, 2)
		c.SetData(p, nil)
		if c.Data(p) != nil {
			t.Fatal("SetData(nil) left bytes")
		}
	}
	holds("reused", c.Insert(0x6000, true), 0)
}

// cacheScript runs one deterministic insert/lookup/remove/PagesIn script
// (evicting before an insert into a full cache, as the blade does) and
// returns everything a caller can observe, in order.
func cacheScript(c *Cache, steps int) []uint64 {
	rng := sim.NewRNG(11, "cache-geometry")
	pages := uint64(3 * c.Capacity())
	var out []uint64
	for i := 0; i < steps; i++ {
		va := mem.VA(rng.Uint64n(pages)) << 12
		switch rng.Intn(8) {
		case 0:
			if c.Remove(va) {
				out = append(out, uint64(va))
			}
		case 1:
			// A few pages (per-page probes) or most of the space (the LRU
			// walk, while the cache holds less than the range).
			size := (1 + rng.Uint64n(8)) * mem.PageSize
			if rng.Intn(2) == 0 {
				size = pages / 2 * mem.PageSize
			}
			for _, p := range c.PagesIn(va, size) {
				out = append(out, uint64(p.VA))
			}
		case 2, 3:
			if p, ok := c.Lookup(va); ok {
				out = append(out, uint64(p.VA))
			}
		default:
			if _, ok := c.Peek(va); !ok && c.NeedsEviction() {
				out = append(out, uint64(c.EvictLRU().VA))
			}
			c.Insert(va, i%2 == 0)
		}
		out = append(out, uint64(c.Len()))
	}
	return out
}

// TestCacheGeometryInvariant: nothing a caller sees depends on how far
// the page index and the record store have grown. The same script runs
// against a cache grown on demand and one that was filled to capacity
// and emptied first, and must return the same pages in the same order;
// and a cache that fills ends at the smallest power of two holding it at
// load 1/2, the geometry a table sized up front for capacity would have.
func TestCacheGeometryInvariant(t *testing.T) {
	const capacity = 600 // the record store doubles to 512, then stops at capacity
	grown, fresh := NewCache(capacity), NewCache(capacity)
	for i := 0; i < capacity; i++ {
		grown.Insert(mem.VA(i)<<12, false)
	}
	for i := 0; i < capacity; i++ {
		grown.Remove(mem.VA(i) << 12)
	}
	if len(grown.pages.slots) <= len(fresh.pages.slots) || grown.Len() != 0 {
		t.Fatalf("set-up: grown cache has %d slots and %d pages, fresh %d slots",
			len(grown.pages.slots), grown.Len(), len(fresh.pages.slots))
	}
	// Too few steps to fill the fresh cache's index to its final size.
	got, want := cacheScript(fresh, 400), cacheScript(grown, 400)
	if len(fresh.pages.slots) >= len(grown.pages.slots) {
		t.Fatalf("fresh cache already at %d slots: the script compares nothing", len(fresh.pages.slots))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a cache grown on demand and a pre-grown one diverge:\n got %v\nwant %v", got, want)
	}
	// Long enough to fill both and churn.
	if got, want := cacheScript(fresh, 5000), cacheScript(grown, 5000); !slices.Equal(got, want) {
		t.Fatal("a cache grown on demand and a pre-grown one diverge after filling")
	}
	size := 16
	for size < 2*capacity {
		size *= 2
	}
	if !fresh.NeedsEviction() || len(fresh.pages.slots) != size || cap(fresh.recs) != capacity+1 {
		t.Fatalf("filled cache: %d pages in %d slots and %d records, want %d in %d and %d",
			fresh.Len(), len(fresh.pages.slots), cap(fresh.recs), capacity, size, capacity+1)
	}
}

// TestPageStateSize: a cache record is 16 bytes, a page and two 4-byte
// links that carry the page's flags in their spare bits.
func TestPageStateSize(t *testing.T) {
	if got := unsafe.Sizeof(PageState{}); got != 16 {
		t.Errorf("unsafe.Sizeof(PageState{}) = %d, want 16", got)
	}
}

// TestCacheBytesPerPage holds caches of pages with no materialized bytes
// to their live heap bytes per cached page. A full cache pays a 16-byte
// record and two 4-byte index slots at load 1/2: 24. A cache holding 290
// of its 4 096 pages — a pod_mix blade's share, 73 864 pages over 256
// blades — also pays the slack of the store's and the index's last
// doubling (512 records and 1 024 slots): 42. Neither holds a pointer,
// so the garbage collector does not scan them either. (24-byte records
// and 8-byte slots held 38 and 69; a 56-byte record with three pointers
// and a two-word index slot held ~94 full.)
func TestCacheBytesPerPage(t *testing.T) {
	for _, c := range []struct {
		name                    string
		caches, capacity, pages int
		limit                   float64
	}{
		{"full", 1, 16384, 16384, 26},
		{"pod_mix blade", 64, 4096, 290, 44},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		caches := make([]*Cache, c.caches)
		for k := range caches {
			caches[k] = NewCache(c.capacity)
			for i := 0; i < c.pages; i++ {
				caches[k].Insert(mem.VA(i)<<mem.PageShift, i%2 == 0)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(caches)
		perPage := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(c.caches*c.pages)
		t.Logf("%s: %d caches of %d pages at capacity %d: %.1f live bytes per page", c.name, c.caches, c.pages, c.capacity, perPage)
		if caches[0].Len() != c.pages || perPage > c.limit {
			t.Errorf("%s: %d cached pages hold %.1f live bytes per page, limit %.0f", c.name, caches[0].Len(), perPage, c.limit)
		}
	}
}

// TestConstructionFootprint keeps worst-case preallocation out: an
// engine and a blade cache cost what they hold, not what they might (a
// 2.1 ms ring is ~193 KiB of bucket headers per rack engine; records and
// index sized up front for a 2^20-page cache are 16 + 8 MiB). An
// engine's ring of 16-byte bucket headers is 4 KiB of the 6 KiB allowed.
// TotalAlloc is process-wide, so an allocation elsewhere in the process
// during a build adds to its reading; a constructor allocates the same
// bytes on every build, so the least of several readings is its own.
func TestConstructionFootprint(t *testing.T) {
	var sink any
	for _, c := range []struct {
		name  string
		build func() any
		limit uint64
	}{
		{"sim.NewEngine", func() any { return sim.NewEngine() }, 6 << 10},
		{"computeblade.NewCache(1<<20)", func() any { return NewCache(1 << 20) }, 4 << 10},
	} {
		got := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sink = c.build()
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > c.limit {
			t.Errorf("%s allocates %d bytes, limit %d", c.name, got, c.limit)
		}
	}
	_ = sink
}

// cacheEntry is the reference model's view of one cached page.
type cacheEntry struct {
	va              mem.VA
	dirty, writable bool
}

// cacheModel is FuzzCache's reference: the cached pages, most recently
// used first.
type cacheModel struct{ mru []cacheEntry }

func (m *cacheModel) find(va mem.VA) int {
	for i, e := range m.mru {
		if e.va == mem.PageBase(va) {
			return i
		}
	}
	return -1
}

// touch moves entry i to the front and returns its new index, 0.
func (m *cacheModel) touch(i int) int {
	e := m.mru[i]
	copy(m.mru[1:i+1], m.mru[:i])
	m.mru[0] = e
	return 0
}

// pagesIn is Cache.PagesIn's documented order: ascending VA when the
// range holds no more pages than the cache (one probe per page), most
// recent first otherwise (the LRU walk).
func (m *cacheModel) pagesIn(base mem.VA, size uint64) []cacheEntry {
	end := base + mem.VA(size)
	var out []cacheEntry
	if size/mem.PageSize <= uint64(len(m.mru)) {
		for va := base; va < end; va += mem.PageSize {
			if i := m.find(va); i >= 0 {
				out = append(out, m.mru[i])
			}
		}
		return out
	}
	for _, e := range m.mru {
		if e.va >= base && e.va < end {
			out = append(out, e)
		}
	}
	return out
}

// Cache op kinds, one byte each (kind = byte % cacheOpKinds, and the
// rest of the byte is the op's argument).
const (
	opInsert      = iota // twice as likely: kinds 0 and 1; arg&1 = writable
	opLookup      = 2
	opPeek        = 3
	opHit         = 4 // Lookup, then Dirty, as a write hit does
	opRemove      = 5
	opEvict       = 6
	opPagesFew    = 7 // 1 + arg%8 pages from the op's page
	opPagesAll    = 8 // more pages than the cache can hold
	opDowngrade   = 9 // Peek, then clear Writable and Dirty, as an M->S flush does
	cacheOpKinds  = 10
	cacheOpLength = 3 // kind, page number high byte, low byte
)

// runCacheOps replays ops against a Cache and the reference model. The
// first byte sets the capacity (1 + byte); each op is cacheOpLength
// bytes, its page drawn from a universe of 2*capacity+2 pages. After
// every op Len, NeedsEviction, every returned page's VA and flags, every
// eviction victim and the PagesIn order must agree; at the end the cache
// drains in the model's LRU order.
func runCacheOps(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	capacity := 1 + int(ops[0])
	universe := uint64(2*capacity + 2)
	c, m := NewCache(capacity), &cacheModel{}
	same := func(op int, what string, p *PageState, e cacheEntry) {
		t.Helper()
		if p.VA != e.va || p.Dirty() != e.dirty || p.Writable() != e.writable {
			t.Fatalf("op %d: %s returned {%#x dirty=%v writable=%v}, model {%#x dirty=%v writable=%v}",
				op, what, uint64(p.VA), p.Dirty(), p.Writable(), uint64(e.va), e.dirty, e.writable)
		}
	}
	evict := func(op int) {
		t.Helper()
		v := c.EvictLRU()
		if len(m.mru) == 0 {
			if v != nil {
				t.Fatalf("op %d: EvictLRU on an empty cache returned %#x", op, uint64(v.VA))
			}
			return
		}
		if v == nil {
			t.Fatalf("op %d: EvictLRU returned nil, model holds %d pages", op, len(m.mru))
		}
		same(op, "EvictLRU", v, m.mru[len(m.mru)-1])
		m.mru = m.mru[:len(m.mru)-1]
	}
	for op, ops := 0, ops[1:]; len(ops) >= cacheOpLength; op, ops = op+1, ops[cacheOpLength:] {
		kind, arg := ops[0]%cacheOpKinds, ops[0]/cacheOpKinds
		page := (uint64(ops[1])<<8 | uint64(ops[2])) % universe
		// Any address inside the page names it.
		va := mem.VA(page<<mem.PageShift | uint64(arg)*157%mem.PageSize)
		i := m.find(va)
		switch kind {
		case opInsert, opInsert + 1:
			writable := arg&1 == 1
			if i < 0 {
				if c.NeedsEviction() {
					evict(op)
				}
				m.mru = append(m.mru, cacheEntry{})
				copy(m.mru[1:], m.mru)
				m.mru[0] = cacheEntry{va: mem.PageBase(va)}
				i = 0
			}
			i = m.touch(i)
			m.mru[i].writable = writable
			same(op, "Insert", c.Insert(va, writable), m.mru[i])
		case opLookup, opPeek, opHit, opDowngrade:
			var p *PageState
			var ok bool
			if kind == opLookup || kind == opHit {
				p, ok = c.Lookup(va)
			} else {
				p, ok = c.Peek(va)
			}
			if ok != (i >= 0) {
				t.Fatalf("op %d: kind %d of %#x hit=%v, model %v", op, kind, uint64(va), ok, i >= 0)
			}
			if !ok {
				break
			}
			if kind != opPeek && kind != opDowngrade {
				i = m.touch(i)
			}
			same(op, "lookup", p, m.mru[i])
			switch kind {
			case opHit:
				p.SetDirty(true)
				m.mru[i].dirty = true
			case opDowngrade:
				p.SetDirty(false)
				p.SetWritable(false)
				m.mru[i].dirty, m.mru[i].writable = false, false
			}
		case opRemove:
			if got := c.Remove(va); got != (i >= 0) {
				t.Fatalf("op %d: Remove(%#x) = %v, model %v", op, uint64(va), got, i >= 0)
			}
			if i >= 0 {
				m.mru = append(m.mru[:i], m.mru[i+1:]...)
			}
		case opEvict:
			evict(op)
		case opPagesFew, opPagesAll:
			base := mem.PageBase(va)
			size := (1 + uint64(arg)%8) * mem.PageSize
			if kind == opPagesAll {
				size = universe * mem.PageSize
			}
			got, want := c.PagesIn(base, size), m.pagesIn(base, size)
			if len(got) != len(want) {
				t.Fatalf("op %d: PagesIn(%#x, %d pages) returned %d pages, model %d",
					op, uint64(base), size/mem.PageSize, len(got), len(want))
			}
			for k := range got {
				same(op, "PagesIn", got[k], want[k])
			}
		}
		if c.Len() != len(m.mru) || c.NeedsEviction() != (len(m.mru) >= capacity) {
			t.Fatalf("op %d: Len %d NeedsEviction %v, model holds %d of %d",
				op, c.Len(), c.NeedsEviction(), len(m.mru), capacity)
		}
	}
	for n := len(m.mru); n >= 0; n-- {
		evict(-1)
	}
	if c.Len() != 0 {
		t.Fatalf("drained cache holds %d pages", c.Len())
	}
}

// cacheOp encodes one op on page.
func cacheOp(kind, arg byte, page int) []byte {
	return []byte{kind + cacheOpKinds*arg, byte(page >> 8), byte(page)}
}

// growAndRefillOps fills a 200-page cache (the page index doubles from
// 16 slots to 512), probes and walks it, empties it by Remove and by
// EvictLRU, and refills it in another order with hits and downgrades
// between.
func growAndRefillOps() []byte {
	const capacity = 200
	ops := []byte{capacity - 1}
	for p := 0; p < capacity; p++ {
		ops = append(ops, cacheOp(opInsert, byte(p), p)...)
		if p%37 == 0 {
			ops = append(ops, cacheOp(opPagesFew, byte(p), p/2)...)
			ops = append(ops, cacheOp(opPagesAll, 0, 0)...)
		}
	}
	ops = append(ops, cacheOp(opHit, 0, 7)...)
	ops = append(ops, cacheOp(opPagesFew, 7, 3)...)
	for p := 0; p < capacity; p += 2 {
		ops = append(ops, cacheOp(opRemove, 0, p)...)
	}
	ops = append(ops, cacheOp(opPagesAll, 0, 0)...)
	for p := 0; p < capacity/2; p++ {
		ops = append(ops, cacheOp(opEvict, 0, 0)...)
	}
	for p := capacity - 1; p >= 0; p-- {
		page := (p * 7) % (2*capacity + 2)
		ops = append(ops, cacheOp(opInsert, byte(p), page)...)
		switch p % 5 {
		case 0:
			ops = append(ops, cacheOp(opHit, 0, page)...)
		case 1:
			ops = append(ops, cacheOp(opDowngrade, 0, (p*11)%(2*capacity+2))...)
		case 2:
			ops = append(ops, cacheOp(opPagesFew, byte(p), page)...)
		}
	}
	// Full: every further new page evicts.
	for p := 0; p < 40; p++ {
		ops = append(ops, cacheOp(opInsert, 1, 3*p+1)...)
		ops = append(ops, cacheOp(opLookup, 0, 2*p)...)
	}
	return append(ops, cacheOp(opPagesAll, 0, 0)...)
}

// randomCacheOps draws n ops for a cache of the given capacity.
func randomCacheOps(seed uint64, capacity, n int) []byte {
	rng := sim.NewRNG(seed, "cache-fuzz")
	ops := []byte{byte(capacity - 1)}
	for i := 0; i < n; i++ {
		ops = append(ops, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return ops
}

// FuzzCache checks the blade cache against an MRU-ordered slice on any
// op sequence: inserts (evicting first when full, as the blade does),
// lookups, peeks, write hits, removes, evictions and both PagesIn scans.
func FuzzCache(f *testing.F) {
	// A range exactly as large as the occupancy is still probed per page:
	// four pages cached out of order come back in ascending VA.
	var edge []byte
	for _, p := range []int{3, 1, 2, 0} {
		edge = append(edge, cacheOp(opInsert, 0, p)...)
	}
	f.Add(append(append([]byte{7}, edge...), cacheOp(opPagesFew, 3, 0)...))
	f.Add(growAndRefillOps())
	f.Add(randomCacheOps(1, 1, 300))
	f.Add(randomCacheOps(2, 8, 600))
	f.Add(randomCacheOps(3, 64, 2000))
	f.Fuzz(func(t *testing.T, ops []byte) { runCacheOps(t, ops) })
}
