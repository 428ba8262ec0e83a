package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"mind/internal/sim"
)

// exactPercentile is the reference: nearest-rank over the sorted samples,
// the convention StreamHist.Percentile approximates.
func exactPercentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// bucketCount returns bucket i's counter, 0 in an absent octave.
func bucketCount(h *StreamHist, i int) uint64 {
	if o := h.octaves[i>>streamSubBits]; o != nil {
		return o[i&(streamSubCount-1)]
	}
	return 0
}

// sameHist reports whether two histograms agree on every summary field
// and every bucket counter, whichever octaves each has allocated.
func sameHist(a, b *StreamHist) bool {
	if a.count != b.count || a.sum != b.sum || a.min != b.min || a.max != b.max {
		return false
	}
	for i := 0; i < streamBuckets; i++ {
		if bucketCount(a, i) != bucketCount(b, i) {
			return false
		}
	}
	return true
}

// cloneHist deep-copies h, blocks included.
func cloneHist(h *StreamHist) *StreamHist {
	c := *h
	for i, o := range h.octaves {
		if o != nil {
			b := *o
			c.octaves[i] = &b
		}
	}
	return &c
}

// sharesBlock reports whether two histograms hold the same octave block.
func sharesBlock(a, b *StreamHist) bool {
	for i, o := range a.octaves {
		if o != nil && o == b.octaves[i] {
			return true
		}
	}
	return false
}

// octaves counts h's allocated blocks.
func octaves(h *StreamHist) int {
	n := 0
	for _, o := range h.octaves {
		if o != nil {
			n++
		}
	}
	return n
}

// TestStreamHistBucketRoundTrip pins the bucket math: every bucket's
// upper edge must map back to that bucket, and edges must be strictly
// increasing.
func TestStreamHistBucketRoundTrip(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < streamBuckets; i++ {
		hi := streamBucketHigh(i)
		if hi <= prev {
			t.Fatalf("bucket %d: high %d not increasing (prev %d)", i, hi, prev)
		}
		if got := streamBucketOf(hi); got != i {
			t.Fatalf("bucket %d: high %d maps back to bucket %d", i, hi, got)
		}
		// The next representable value must land in a later bucket.
		if hi < math.MaxInt64 {
			if got := streamBucketOf(hi + 1); got != i+1 {
				t.Fatalf("bucket %d: high+1 %d maps to bucket %d, want %d", i, hi+1, got, i+1)
			}
		}
		prev = hi
	}
}

// TestStreamHistPercentileEquivalence: randomized check that the
// streaming estimate brackets the exact sorted-sample percentile within
// the documented bound s <= est <= s + s/32 + 1.
func TestStreamHistPercentileEquivalence(t *testing.T) {
	rng := sim.NewRNG(42, "streamhist-equiv")
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(rng.Uint64n(2000))
		h := NewStreamHist()
		samples := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Uint64n(3) {
			case 0: // small exact range
				v = int64(rng.Uint64n(64))
			case 1: // mid range
				v = int64(rng.Uint64n(1 << 20))
			default: // heavy tail
				v = int64(rng.Uint64n(1 << 40))
			}
			h.Observe(v)
			samples = append(samples, v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
			s := exactPercentile(samples, p)
			est := h.Percentile(p)
			if est < s || est > s+s/32+1 {
				t.Fatalf("trial %d n=%d p=%v: exact %d, estimate %d outside [s, s+s/32+1]",
					trial, n, p, s, est)
			}
		}
		if h.Count() != uint64(n) {
			t.Fatalf("count = %d, want %d", h.Count(), n)
		}
		if h.Min() != samples[0] || h.Max() != samples[n-1] {
			t.Fatalf("min/max = %d/%d, want %d/%d", h.Min(), h.Max(), samples[0], samples[n-1])
		}
	}
}

// TestStreamHistMergeCommutes: merge(a,b) and merge(b,a) must agree
// bucket-for-bucket, and merging in either grouping (associativity)
// must too.
func TestStreamHistMergeCommutes(t *testing.T) {
	rng := sim.NewRNG(7, "streamhist-merge")
	fill := func(n int) *StreamHist {
		h := NewStreamHist()
		for i := 0; i < n; i++ {
			h.Observe(int64(rng.Uint64n(1 << 30)))
		}
		return h
	}
	a, b, c := fill(500), fill(300), fill(100)

	ab := NewStreamHist()
	ab.MergeFrom(a)
	ab.MergeFrom(b)
	ba := NewStreamHist()
	ba.MergeFrom(b)
	ba.MergeFrom(a)
	if !sameHist(ab, ba) {
		t.Fatal("merge(a,b) != merge(b,a)")
	}

	abc := NewStreamHist()
	abc.MergeFrom(ab)
	abc.MergeFrom(c)
	bca := NewStreamHist()
	bc := NewStreamHist()
	bc.MergeFrom(b)
	bc.MergeFrom(c)
	bca.MergeFrom(bc)
	bca.MergeFrom(a)
	if !sameHist(abc, bca) {
		t.Fatal("merge((a,b),c) != merge((b,c),a)")
	}

	// Source untouched by merge, and by later samples in the receiver:
	// the receiver holds blocks of its own.
	aCopy := cloneHist(a)
	tmp := NewStreamHist()
	tmp.MergeFrom(a)
	if sharesBlock(tmp, a) {
		t.Fatal("MergeFrom shared a block with its source")
	}
	for i := 0; i < 200; i++ {
		tmp.Observe(int64(rng.Uint64n(1 << 30)))
	}
	if !sameHist(a, aCopy) {
		t.Fatal("MergeFrom mutated its source")
	}
}

// TestStreamHistMergeTreeEquivalence is the sharded-serving contract:
// observations scattered across N shards and merged back through an
// arbitrary merge tree (random shard count, random sample assignment,
// random pairwise reduction order) must equal the histogram that
// observed the single combined stream directly. This is what lets the
// per-rack serving shards keep private StreamHists and merge only at
// barriers or on read.
func TestStreamHistMergeTreeEquivalence(t *testing.T) {
	rng := sim.NewRNG(29, "streamhist-mergetree")
	for trial := 0; trial < 40; trial++ {
		shards := 1 + int(rng.Uint64n(12))
		n := 1 + int(rng.Uint64n(3000))
		single := NewStreamHist()
		parts := make([]*StreamHist, shards)
		for i := range parts {
			parts[i] = NewStreamHist()
		}
		for i := 0; i < n; i++ {
			var v int64
			switch rng.Uint64n(3) {
			case 0:
				v = int64(rng.Uint64n(64))
			case 1:
				v = int64(rng.Uint64n(1 << 20))
			default:
				v = int64(rng.Uint64n(1 << 40))
			}
			single.Observe(v)
			parts[rng.Uint64n(uint64(shards))].Observe(v)
		}
		// Reduce the shards through a random-shaped merge tree: repeatedly
		// pick two survivors and merge one into the other.
		for len(parts) > 1 {
			i := int(rng.Uint64n(uint64(len(parts))))
			j := int(rng.Uint64n(uint64(len(parts) - 1)))
			if j >= i {
				j++
			}
			parts[i].MergeFrom(parts[j])
			parts[j] = parts[len(parts)-1]
			parts = parts[:len(parts)-1]
		}
		if !sameHist(parts[0], single) {
			t.Fatalf("trial %d shards=%d n=%d: merge tree != single-stream histogram", trial, shards, n)
		}
	}
}

// TestStreamHistEmpty pins zero-value behavior.
func TestStreamHistEmpty(t *testing.T) {
	h := NewStreamHist()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
	if h.Percentile(99) != 0 {
		t.Error("empty percentile must be 0")
	}
	// Merging an empty histogram is a no-op either way.
	o := NewStreamHist()
	o.Observe(5)
	before := cloneHist(o)
	o.MergeFrom(h)
	if !sameHist(o, before) {
		t.Error("merging empty source changed destination")
	}
	h.MergeFrom(o)
	if h.Count() != 1 || h.Min() != 5 || h.Max() != 5 {
		t.Error("merging into empty destination must adopt source stats")
	}
}

// TestStreamHistNegativeClamp: negative samples clamp to bucket 0.
func TestStreamHistNegativeClamp(t *testing.T) {
	h := NewStreamHist()
	h.Observe(-100)
	if h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Error("negative sample must clamp to 0")
	}
}

// TestStreamHistObserveZeroAlloc is the hot-path budget gate: Observe
// allocates only for the first sample of an octave, so once the octaves
// a run spans exist it must not allocate.
func TestStreamHistObserveZeroAlloc(t *testing.T) {
	h := NewStreamHist()
	// One sample in each octave the measured samples reach.
	for w := int64(12345); w < 2<<20; w *= 2 {
		h.Observe(w)
	}
	v := int64(12345)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 997
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v per call, want 0", allocs)
	}
}

// FuzzStreamHist reads a byte string as samples split between two
// histograms: each sample is a control byte (bit 0 picks the histogram,
// the rest how many of the next bytes, at most 8, form the value) and a
// little-endian value with its sign bit cleared, so samples span 0 to
// math.MaxInt64. Sum may wrap; int64 addition wraps alike in any order,
// so merges still agree. Merging, in either order into an empty
// histogram or into one of the two, must equal observing every sample
// in one histogram, must leave the source as it was and must share no
// block with it; every percentile must obey s <= est <= s + s/32 + 1
// against the sorted samples' nearest-rank value.
func FuzzStreamHist(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 7, 0x03, 31, 0x0a, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x04, 0x20, 0x00, 0x05, 0xe8, 0x03, 0x00, 0x09, 1, 2, 3, 4})
	// 0 in each histogram.
	f.Add([]byte{0x00, 0x01})
	// math.MaxInt64 in each histogram, beside 0.
	f.Add([]byte{0x10, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00,
		0x11, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	// a holds small samples, b octaves a lacks: 2^39 and 2^62.
	f.Add([]byte{0x02, 5, 0x02, 40, 0x0b, 0, 0, 0, 0, 0x80,
		0x11, 0, 0, 0, 0, 0, 0, 0, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b, all StreamHist
		var samples []int64
		for len(data) > 0 {
			ctl := data[0]
			n := min(int(ctl>>1)%9, len(data)-1)
			var v int64
			for i := n; i >= 1; i-- {
				v = v<<8 | int64(data[i])
			}
			v &= math.MaxInt64
			data = data[1+n:]
			if ctl&1 == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
			all.Observe(v)
			samples = append(samples, v)
		}
		b0 := cloneHist(&b)
		ab, ba := NewStreamHist(), NewStreamHist()
		ab.MergeFrom(&a)
		ab.MergeFrom(&b)
		ba.MergeFrom(&b)
		ba.MergeFrom(&a)
		if !sameHist(ab, &all) {
			t.Fatalf("merge: count %d sum %d min %d max %d, one histogram: %d %d %d %d",
				ab.Count(), ab.Sum(), ab.Min(), ab.Max(), all.Count(), all.Sum(), all.Min(), all.Max())
		}
		if !sameHist(ba, ab) {
			t.Fatal("merge(a,b) != merge(b,a)")
		}
		if sharesBlock(ab, &a) || sharesBlock(ab, &b) || sharesBlock(ba, &a) || sharesBlock(ba, &b) {
			t.Fatal("a merged histogram shares a block with a source")
		}
		a.MergeFrom(&b)
		if !sameHist(&a, &all) {
			t.Fatal("merging b into a != one histogram")
		}
		if !sameHist(&b, b0) || !sameHist(ab, &all) || sharesBlock(&a, &b) {
			t.Fatal("merging b into a changed b or shared its blocks")
		}
		slices.Sort(samples)
		for _, p := range []float64{0, 50, 99, 99.9, 100} {
			est := all.Percentile(p)
			if got := ab.Percentile(p); got != est {
				t.Fatalf("p%v: merged %d, one histogram %d", p, got, est)
			}
			// est-s, unlike s+s/32+1, cannot overflow at math.MaxInt64.
			if s := exactPercentile(samples, p); est < s || est-s > s/32+1 {
				t.Fatalf("n=%d p%v: exact %d, estimate %d outside [s, s+s/32+1]", len(samples), p, s, est)
			}
		}
	})
}

// TestStreamHistFootprint: a histogram is a fixed header of at most 512
// bytes plus one block per octave its samples reach. A new one holds
// none; samples from 100 ns to 10 ms reach 18.
func TestStreamHistFootprint(t *testing.T) {
	if size := unsafe.Sizeof(StreamHist{}); size > 512 {
		t.Errorf("StreamHist header is %d bytes, want at most 512", size)
	}
	h := NewStreamHist()
	if n := octaves(h); n != 0 {
		t.Errorf("a new histogram holds %d blocks, want 0", n)
	}
	rng := sim.NewRNG(3, "streamhist-footprint")
	h.Observe(100)
	h.Observe(10_000_000)
	for i := 0; i < 10_000; i++ {
		h.Observe(100 + int64(rng.Uint64n(10_000_000-100)))
	}
	if n := octaves(h); n > 18 {
		t.Errorf("samples from 100 ns to 10 ms hold %d blocks, want at most 18", n)
	}
}
