package stats

import (
	"math"
	"sort"
	"testing"

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
	if *ab != *ba {
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
	if *abc != *bca {
		t.Fatal("merge((a,b),c) != merge((b,c),a)")
	}

	// Source untouched by merge.
	aCopy := *a
	tmp := NewStreamHist()
	tmp.MergeFrom(a)
	if *a != aCopy {
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
		if *parts[0] != *single {
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
	before := *o
	o.MergeFrom(h)
	if *o != before {
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
// must not allocate.
func TestStreamHistObserveZeroAlloc(t *testing.T) {
	h := NewStreamHist()
	v := int64(12345)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 997
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v per call, want 0", allocs)
	}
}
