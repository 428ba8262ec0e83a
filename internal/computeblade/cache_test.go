package computeblade

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

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
	if !p.Writable {
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
	// Large sparse range exercises the map-scan path.
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

// Property: the cache never exceeds capacity and Len matches the set of
// live pages under arbitrary insert/remove/evict interleavings.
func TestCachePropertyConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(8)
		live := map[mem.VA]bool{}
		for _, op := range ops {
			va := mem.VA(op%32) << 12
			switch {
			case op%5 == 4 && len(live) > 0:
				if c.Remove(va) != live[va] {
					return false
				}
				delete(live, va)
			default:
				if live[va] {
					c.Insert(va, true)
					continue
				}
				if c.NeedsEviction() {
					v := c.EvictLRU()
					delete(live, v.VA)
				}
				c.Insert(va, false)
				live[va] = true
			}
			if c.Len() != len(live) || c.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
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
// the page index and the record arena have grown. The same script runs
// against a cache grown on demand and one that was filled to capacity
// and emptied first, and must return the same pages in the same order;
// and a cache that fills ends at the smallest power of two holding it at
// load 1/2, the geometry a table sized up front for capacity would have.
func TestCacheGeometryInvariant(t *testing.T) {
	const capacity = 600 // two full arena chunks and a partial one
	grown, fresh := NewCache(capacity), NewCache(capacity)
	for i := 0; i < capacity; i++ {
		grown.Insert(mem.VA(i)<<12, false)
	}
	for i := 0; i < capacity; i++ {
		grown.Remove(mem.VA(i) << 12)
	}
	if len(grown.pages.keys) <= len(fresh.pages.keys) || grown.Len() != 0 {
		t.Fatalf("set-up: grown cache has %d slots and %d pages, fresh %d slots",
			len(grown.pages.keys), grown.Len(), len(fresh.pages.keys))
	}
	// Too few steps to fill the fresh cache's index to its final size.
	got, want := cacheScript(fresh, 400), cacheScript(grown, 400)
	if len(fresh.pages.keys) >= len(grown.pages.keys) {
		t.Fatalf("fresh cache already at %d slots: the script compares nothing", len(fresh.pages.keys))
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
	if !fresh.NeedsEviction() || len(fresh.pages.keys) != size {
		t.Fatalf("filled cache: %d pages in %d slots, want %d in %d",
			fresh.Len(), len(fresh.pages.keys), capacity, size)
	}
}

// TestConstructionFootprint keeps worst-case preallocation out: an
// engine and a blade cache cost what they hold, not what they might (a
// 2.1 ms ring is ~193 KiB of bucket headers per rack engine; records and
// index sized up front for a 2^20-page cache are 56 + 32 MiB).
func TestConstructionFootprint(t *testing.T) {
	var sink any
	for _, c := range []struct {
		name  string
		build func() any
		limit uint64
	}{
		{"sim.NewEngine", func() any { return sim.NewEngine() }, 16 << 10},
		{"computeblade.NewCache(1<<20)", func() any { return NewCache(1 << 20) }, 4 << 10},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sink = c.build()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > c.limit {
			t.Errorf("%s allocates %d bytes, limit %d", c.name, got, c.limit)
		}
	}
	_ = sink
}
