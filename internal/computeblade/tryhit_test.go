package computeblade

import (
	"fmt"
	"slices"
	"testing"

	"mind/internal/coherence"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// wouldHit reports whether the cache holds va with the rights an access
// needs, with no effect on the blade.
func wouldHit(b *Blade, va mem.VA, write bool) bool {
	p, ok := b.cache.Peek(va)
	return ok && (!write || p.Writable)
}

// probeThenHit is the two-probe hit TryHit replaced, kept as its oracle:
// a side-effect-free rights check, then Access's former hit arm (count
// the access, Lookup for recency, Dirty on a write, count the hit).
func probeThenHit(b *Blade, va mem.VA, write bool) bool {
	if !wouldHit(b, va, write) {
		return false
	}
	b.col.IncH(b.hAccesses, 1)
	p, _ := b.cache.Lookup(va)
	if write {
		p.Dirty = true
	}
	b.col.IncH(b.hLocalHits, 1)
	return true
}

// tryHitPages is the page universe of the fuzz ops: twice the cache.
const tryHitPages = 8

// hitRig is one blade on its own fake switch, engine and collector.
type hitRig struct {
	sw  *fakeSwitch
	col *stats.Collector
	b   *Blade
}

func newHitRig(t *testing.T) hitRig {
	sw := &fakeSwitch{eng: sim.NewEngine(), latency: sim.Microsecond}
	b, col := newTestBlade(t, sw, tryHitPages/2)
	return hitRig{sw, col, b}
}

// apply runs one non-probe op on the rig and lets it settle.
func (r hitRig) apply(kind byte, va mem.VA) {
	switch kind {
	case 2, 3, 4:
		// An exclusive grant caches a read writable and clean.
		r.sw.writable = kind == 4
		r.b.Access(1, va, kind == 3, func(AccessResult) {})
	case 5:
		r.b.HandleInvalidation(coherence.Invalidation{
			Region:    mem.Range{Base: va, Size: mem.PageSize},
			Requested: va,
			Downgrade: true,
		}, func(coherence.AckInfo) {})
	case 6:
		r.b.cache.Remove(va)
	}
	r.sw.eng.Run()
}

// page describes what the cache holds for pg.
func (r hitRig) page(pg mem.VA) string {
	p, ok := r.b.cache.Peek(pg)
	if !ok {
		return "uncached"
	}
	return fmt.Sprintf("dirty=%v writable=%v", p.Dirty, p.Writable)
}

// lru lists the cached pages, most recent first.
func (r hitRig) lru() []mem.VA {
	var out []mem.VA
	for p := r.b.cache.head.next; p != &r.b.cache.head; p = p.next {
		out = append(out, p.VA)
	}
	return out
}

// runTryHitOps replays ops, two bytes each (kind, page), on two identical
// blades — TryHit probes one, the oracle the other — and fails on the
// first op after which anything a caller can observe differs: the probe's
// answer, the access and hit counters, each page's Dirty and Writable,
// and the recency order. Kinds: 0 probe read, 1 probe write, 2 fault a
// read, 3 fault a write, 4 fault a read granted exclusive, 5 downgrade
// the page, 6 remove it.
func runTryHitOps(t *testing.T, ops []byte) {
	got, want := newHitRig(t), newHitRig(t)
	for i := 0; len(ops) >= 2; i, ops = i+1, ops[2:] {
		kind, va := ops[0]%7, mem.VA(ops[1]%tryHitPages)*mem.PageSize
		if kind < 2 {
			if g, w := got.b.TryHit(va, kind == 1), probeThenHit(want.b, va, kind == 1); g != w {
				t.Fatalf("op %d: TryHit(%#x, write=%v) = %v, oracle %v", i, uint64(va), kind == 1, g, w)
			}
		} else {
			got.apply(kind, va)
			want.apply(kind, va)
		}
		for _, name := range []string{stats.CtrAccesses, stats.CtrLocalHits} {
			if g, w := got.col.Counter(name), want.col.Counter(name); g != w {
				t.Fatalf("op %d (kind %d, page %#x): %s = %d, oracle %d", i, kind, uint64(va), name, g, w)
			}
		}
		for pg := mem.VA(0); pg < tryHitPages*mem.PageSize; pg += mem.PageSize {
			if g, w := got.page(pg), want.page(pg); g != w {
				t.Fatalf("op %d (kind %d, page %#x): page %#x is %s, oracle %s", i, kind, uint64(va), uint64(pg), g, w)
			}
		}
		if g, w := got.lru(), want.lru(); !slices.Equal(g, w) {
			t.Fatalf("op %d (kind %d, page %#x): recency %v, oracle %v", i, kind, uint64(va), g, w)
		}
	}
	for {
		g, w := got.b.cache.EvictLRU(), want.b.cache.EvictLRU()
		if (g == nil) != (w == nil) || (g != nil && g.VA != w.VA) {
			t.Fatalf("eviction order diverges: %+v, oracle %+v", g, w)
		}
		if g == nil {
			return
		}
	}
}

// randomTryHitOps draws n ops, probes twice as likely as the rest.
func randomTryHitOps(seed uint64, n int) []byte {
	rng := sim.NewRNG(seed, "tryhit")
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		kind := rng.Intn(9)
		if kind >= 7 {
			kind -= 7
		}
		ops = append(ops, byte(kind), byte(rng.Intn(tryHitPages)))
	}
	return ops
}

// FuzzTryHit checks the single-probe hit against the probe-then-access
// pair it replaced, on any op sequence.
func FuzzTryHit(f *testing.F) {
	// The upgrade case: a page cached read-only, probed for a write while
	// other pages sit ahead of it in recency, must stay where it is. Then
	// a write hit on a clean writable page must dirty it.
	f.Add([]byte{2, 0, 2, 1, 1, 0, 0, 0, 3, 2, 1, 2, 5, 2, 1, 2, 0, 2, 6, 0, 1, 1, 4, 3, 1, 3})
	f.Add(randomTryHitOps(1, 400))
	f.Add(randomTryHitOps(2, 400))
	f.Fuzz(func(t *testing.T, ops []byte) { runTryHitOps(t, ops) })
}
