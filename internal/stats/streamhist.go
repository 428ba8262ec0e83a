package stats

import "math/bits"

// StreamHist is a streaming log-bucketed (HDR-style) histogram over
// non-negative int64 samples — the latency path for open-loop serving,
// where per-tenant sample counts grow with offered load and wall time,
// so keeping every sample is not an option.
//
// Values below streamSubCount land in exact unit buckets; above that,
// each power of two is split into streamSubCount linear sub-buckets, so
// the relative quantization error is bounded by 1/streamSubCount
// (~3.1%). Memory is fixed (streamBuckets counters), Observe is
// allocation-free, and two histograms merge bucket-for-bucket — the
// property that lets per-rack collector shards be folded into one view
// without losing percentile fidelity beyond the bucket bound.
type StreamHist struct {
	counts [streamBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

const (
	// streamSubBits fixes the per-octave resolution: 2^streamSubBits
	// linear sub-buckets per power of two.
	streamSubBits  = 5
	streamSubCount = 1 << streamSubBits
	// streamBuckets covers the full non-negative int64 range: octaves
	// streamSubBits..62 at streamSubCount sub-buckets each, plus the
	// exact unit range below streamSubCount (folded into "octave" 0).
	streamBuckets = (64 - streamSubBits) * streamSubCount
)

// NewStreamHist returns an empty streaming histogram.
func NewStreamHist() *StreamHist { return &StreamHist{} }

// streamBucketOf maps a sample to its bucket index. Negative samples
// clamp to 0 (latencies are durations; a negative value is a caller
// bug, not something worth a branchy error path on the hot path).
func streamBucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < streamSubCount {
		return int(u)
	}
	exp := uint(bits.Len64(u)) - 1 - streamSubBits
	return int(exp)*streamSubCount + int(u>>exp)
}

// streamBucketHigh returns the largest value mapping to bucket idx —
// the value Percentile reports, so estimates never undershoot the exact
// sample they stand in for.
func streamBucketHigh(idx int) int64 {
	if idx < 2*streamSubCount {
		return int64(idx)
	}
	exp := uint(idx/streamSubCount - 1)
	sub := uint64(idx - int(exp)*streamSubCount)
	return int64(((sub + 1) << exp) - 1)
}

// Observe records one sample. It allocates nothing.
func (h *StreamHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[streamBucketOf(v)]++
	h.sum += v
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
}

// Count returns the number of samples.
func (h *StreamHist) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *StreamHist) Sum() int64 { return h.sum }

// Mean returns the sample mean, 0 if empty.
func (h *StreamHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample, 0 if empty.
func (h *StreamHist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, 0 if empty.
func (h *StreamHist) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the p-th percentile (0 <= p <= 100) by
// nearest-rank over the bucket counts; 0 if empty. The estimate is the
// upper edge of the bucket holding the nearest-rank sample, so for any
// exact sample s it satisfies s <= estimate <= s + s/32 + 1 — never an
// undershoot, and within the log-bucket quantization bound above.
// Reads are non-mutating.
func (h *StreamHist) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(1)
	if p > 0 {
		rank = uint64(p / 100 * float64(h.count))
		if float64(rank)*100 < p*float64(h.count) {
			rank++ // ceil
		}
		if rank < 1 {
			rank = 1
		}
		if rank > h.count {
			rank = h.count
		}
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			hi := streamBucketHigh(i)
			// Never report past the observed maximum: the top bucket's
			// edge can overshoot max by the bucket width.
			if hi > h.max {
				hi = h.max
			}
			if hi < h.min {
				hi = h.min
			}
			return hi
		}
	}
	return h.max // unreachable: cum == count >= rank by the end
}

// MergeFrom folds another histogram's samples into this one,
// bucket-for-bucket. The source is not modified. Merging is
// commutative and associative up to bucket counts, so per-rack shards
// can be folded in any order with identical results.
func (h *StreamHist) MergeFrom(o *StreamHist) {
	if o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
}
