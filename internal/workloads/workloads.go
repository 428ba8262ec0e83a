// Package workloads generates the deterministic memory-access streams the
// evaluation replays (§7 "Applications and workloads"). The paper captures
// real traces with Intel PIN and replays identical accesses through every
// compared system; we generate synthetic streams with the same first-order
// characteristics the paper reports:
//
//   - TF  (TensorFlow/ResNet-50): mostly-private sequential tensors plus a
//     read-mostly shared parameter area with sparse gradient writes.
//   - GC  (GraphChi/PageRank on Twitter): random, contentious access to
//     shared vertex state — ~2.5x more shared-page writes than TF (§7.1).
//   - M_A (Memcached, YCSB-A): hash-table probes + item reads/writes
//     (50/50) + hot shared LRU-list metadata writes.
//   - M_C (Memcached, YCSB-C): 100% GETs, but memcached still writes hot
//     LRU metadata on every hit — the reason M_C triggers invalidations
//     at all (§7.1).
//   - Uniform: the §7.2 microbenchmark — uniform random over a working
//     set with a read-ratio and sharing-ratio knob.
//   - NativeKVS: the simple key-value store of §7.1, with keyspace
//     partitioned per blade (better partitioning than Memcached).
package workloads

import (
	"fmt"
	"sync"

	"mind/internal/core"
	"mind/internal/mem"
	"mind/internal/sim"
)

// Params describes the run shape a generator is built for.
type Params struct {
	Threads      int // total threads across the rack
	Blades       int // compute blades in use
	OpsPerThread int
	Seed         uint64
}

// Workload couples a footprint with a per-thread generator factory.
type Workload struct {
	// Name as used in the paper's figures (TF, GC, MA, MC, ...).
	Name string
	// Footprint is the bytes to allocate before running.
	Footprint uint64
	// Gen builds thread t's access stream over the allocated base.
	Gen func(base mem.VA, thread int, p Params) core.AccessGen
}

func pages(n uint64) uint64 { return n * mem.PageSize }

// zipfs holds one Workload's Zipf distributions. Building one costs 1e4
// math.Pow calls (sim.NewZipfDist), so the first Gen that needs a range
// builds it and every later thread's generator only takes a sampler over
// it. One Workload value is shared by parallel runner workers, hence the
// lock; it lives in the Workload's Gen closure, not in the package, so
// that every fresh Workload pays for its own constants and constructing
// a Workload for its Footprint alone pays nothing. GC and memcached ask
// for one range; NativeKVS's is the per-blade partition, so it asks for
// one per blade count it is run at.
type zipfs struct {
	theta float64
	mu    sync.Mutex
	byN   map[uint64]*sim.ZipfDist
}

// over returns the distribution over [0, n), building it on first use.
func (z *zipfs) over(n uint64) *sim.ZipfDist {
	z.mu.Lock()
	defer z.mu.Unlock()
	if d := z.byN[n]; d != nil {
		return d
	}
	if z.byN == nil {
		z.byN = make(map[uint64]*sim.ZipfDist, 1)
	}
	d := sim.NewZipfDist(n, z.theta)
	z.byN[n] = d
	return d
}

// counter caps a stream at n accesses.
func capped(n int, f func() (mem.VA, bool)) core.AccessGen {
	i := 0
	return func() (mem.VA, bool, bool) {
		if i >= n {
			return 0, false, false
		}
		i++
		va, wr := f()
		return va, wr, true
	}
}

// TF models ResNet-50 training: each thread streams over a private
// activation/gradient buffer (sequential, high locality), periodically
// reading shared parameters and rarely writing them. scale multiplies the
// footprint.
func TF(scale int) Workload {
	if scale < 1 {
		scale = 1
	}
	// The training data/activations are a fixed job footprint that
	// threads partition (data parallelism): more threads means smaller
	// per-thread shards, not more data.
	totalPrivPages := uint64(8192 * scale)
	sharedPages := uint64(512 * scale)
	return Workload{
		Name:      "TF",
		Footprint: pages(sharedPages + totalPrivPages),
		Gen: func(base mem.VA, thread int, p Params) core.AccessGen {
			rng := sim.NewRNG(p.Seed, "tf")
			for i := 0; i < thread*7+1; i++ {
				rng.Uint64()
			}
			shardPages := totalPrivPages / uint64(maxInt(p.Threads, 1))
			if shardPages == 0 {
				shardPages = 1
			}
			shared := base
			priv := base + mem.VA(pages(sharedPages)) + mem.VA(pages(shardPages))*mem.VA(thread)
			seq := uint64(0)
			return capped(p.OpsPerThread, func() (mem.VA, bool) {
				r := rng.Float64()
				switch {
				case r < 0.94: // private shard streaming (forward/backward)
					va := priv + mem.VA((seq%pages(shardPages))&^uint64(7))
					seq += 64 // cache-line-ish stride; page reuse is high
					return va, rng.Bool(0.5)
				case r < 0.9995: // shared parameter reads
					return shared + mem.VA(rng.Uint64n(pages(sharedPages))), false
				default: // sparse gradient write to shared parameters (~0.05%)
					return shared + mem.VA(rng.Uint64n(pages(sharedPages))), true
				}
			})
		},
	}
}

// GC models PageRank over a power-law graph: random reads of neighbour
// vertex data and rank writes to shared vertex state. Shared-write volume
// is ~2.5x TF's (§7.1), and locality is poor.
func GC(scale int) Workload {
	if scale < 1 {
		scale = 1
	}
	vertexPages := uint64(2048 * scale)    // shared vertex/rank arrays
	totalEdgePages := uint64(2048 * scale) // edge shards, partitioned across threads
	popularity := &zipfs{theta: 0.95}      // skewed vertex popularity
	return Workload{
		Name:      "GC",
		Footprint: pages(vertexPages + totalEdgePages),
		Gen: func(base mem.VA, thread int, p Params) core.AccessGen {
			rng := sim.NewRNG(p.Seed, "gc")
			for i := 0; i < thread*11+3; i++ {
				rng.Uint64()
			}
			edgePages := totalEdgePages / uint64(maxInt(p.Threads, 1))
			if edgePages == 0 {
				edgePages = 1
			}
			vertices := base
			edges := base + mem.VA(pages(vertexPages)) + mem.VA(pages(edgePages))*mem.VA(thread)
			zipf := popularity.over(pages(vertexPages)).Sampler(rng)
			seq := uint64(0)
			return capped(p.OpsPerThread, func() (mem.VA, bool) {
				r := rng.Float64()
				switch {
				case r < 0.35: // edge shard streaming (private)
					va := edges + mem.VA((seq%pages(edgePages))&^uint64(7))
					seq += 256
					return va, false
				case r < 0.85: // random neighbour reads (shared)
					return vertices + mem.VA(zipf.Next()&^uint64(7)), false
				default: // rank update (shared write, ~15% of accesses)
					return vertices + mem.VA(zipf.Next()&^uint64(7)), true
				}
			})
		},
	}
}

// memcached builds M_A/M_C: hash-bucket probe, item access, and a hot
// LRU-metadata write on every operation (memcached bumps the LRU list and
// stats even on GETs — which is why YCSB-C still invalidates, §7.1).
func memcached(name string, itemWriteRatio float64, scale int) Workload {
	if scale < 1 {
		scale = 1
	}
	bucketPages := uint64(256 * scale)
	itemPages := uint64(4096 * scale)
	lruPages := uint64(8)       // small, extremely hot shared metadata
	keys := &zipfs{theta: 0.99} // YCSB zipfian keys
	return Workload{
		Name:      name,
		Footprint: pages(bucketPages + itemPages + lruPages),
		Gen: func(base mem.VA, thread int, p Params) core.AccessGen {
			rng := sim.NewRNG(p.Seed, name)
			for i := 0; i < thread*13+5; i++ {
				rng.Uint64()
			}
			buckets := base
			items := base + mem.VA(pages(bucketPages))
			lru := base + mem.VA(pages(bucketPages+itemPages))
			zipf := keys.over(pages(itemPages)).Sampler(rng)
			// Each op is a short sequence: bucket read, item access, LRU
			// metadata write.
			var phase int
			var item mem.VA
			return capped(p.OpsPerThread, func() (mem.VA, bool) {
				switch phase {
				case 0:
					phase = 1
					item = items + mem.VA(zipf.Next()&^uint64(7))
					return buckets + mem.VA(rng.Uint64n(pages(bucketPages))&^uint64(7)), false
				case 1:
					phase = 2
					return item, rng.Bool(itemWriteRatio)
				default:
					phase = 0
					return lru + mem.VA(rng.Uint64n(pages(lruPages))&^uint64(7)), true
				}
			})
		},
	}
}

// MemcachedA is M_A: YCSB-A (50% reads, 50% writes) on Memcached.
func MemcachedA(scale int) Workload { return memcached("MA", 0.5, scale) }

// MemcachedC is M_C: YCSB-C (100% reads) on Memcached — item accesses are
// all reads but LRU metadata writes remain.
func MemcachedC(scale int) Workload { return memcached("MC", 0.0, scale) }

// Uniform is the §7.2 microbenchmark: uniform random accesses over
// workingSetPages, a fraction sharingRatio of them to a region shared by
// all threads, the rest to a per-thread partition; reads with probability
// readRatio.
func Uniform(workingSetPages uint64, readRatio, sharingRatio float64) Workload {
	return Workload{
		Name:      "Uniform",
		Footprint: pages(workingSetPages),
		Gen: func(base mem.VA, thread int, p Params) core.AccessGen {
			rng := sim.NewRNG(p.Seed, "uniform")
			for i := 0; i < thread*17+7; i++ {
				rng.Uint64()
			}
			// The shared region and per-thread partitions tile the
			// working set.
			sharedPages := workingSetPages / 2
			perThread := (workingSetPages - sharedPages) / uint64(maxInt(p.Threads, 1))
			if perThread == 0 {
				perThread = 1
			}
			privBase := base + mem.VA(pages(sharedPages)) + mem.VA(pages(perThread))*mem.VA(thread)
			return capped(p.OpsPerThread, func() (mem.VA, bool) {
				write := !rng.Bool(readRatio)
				if rng.Bool(sharingRatio) {
					return base + mem.VA(rng.Uint64n(pages(sharedPages))&^uint64(7)), write
				}
				return privBase + mem.VA(rng.Uint64n(pages(perThread))&^uint64(7)), write
			})
		},
	}
}

// NativeKVS models the simple key-value store of §7.1 under YCSB A or C:
// zipfian keys over a keyspace partitioned across compute blades, with
// threads favouring their blade's partition (the "better partitioning"
// the paper credits for Native-KVS scaling beyond Memcached). Unlike
// Memcached there is no global LRU metadata.
func NativeKVS(readRatio float64, scale int) Workload {
	if scale < 1 {
		scale = 1
	}
	itemPages := uint64(4096 * scale)
	bucketPages := uint64(256 * scale)
	keys := &zipfs{theta: 0.99}
	return Workload{
		Name:      "NativeKVS",
		Footprint: pages(bucketPages + itemPages),
		Gen: func(base mem.VA, thread int, p Params) core.AccessGen {
			rng := sim.NewRNG(p.Seed, "nkvs")
			for i := 0; i < thread*19+9; i++ {
				rng.Uint64()
			}
			blades := maxInt(p.Blades, 1)
			myBlade := thread % blades
			partPages := itemPages / uint64(blades)
			if partPages == 0 {
				partPages = 1
			}
			buckets := base
			items := base + mem.VA(pages(bucketPages))
			zipf := keys.over(pages(partPages)).Sampler(rng)
			var phase int
			var item mem.VA
			return capped(p.OpsPerThread, func() (mem.VA, bool) {
				switch phase {
				case 0:
					phase = 1
					// 90% of ops hit the local partition.
					part := myBlade
					if !rng.Bool(0.9) {
						part = rng.Intn(blades)
					}
					item = items + mem.VA(pages(partPages))*mem.VA(part) + mem.VA(zipf.Next()&^uint64(7))
					return buckets + mem.VA(rng.Uint64n(pages(bucketPages))&^uint64(7)), false
				default:
					phase = 0
					return item, !rng.Bool(readRatio)
				}
			})
		},
	}
}

// ByName returns the workload the command-line tools call name (TF, GC,
// MA, MC, kvs-a, kvs-c) at the given scale. Uniform takes a working set
// and two ratios rather than a scale, so it has no name here.
func ByName(name string, scale int) (Workload, error) {
	switch name {
	case "TF":
		return TF(scale), nil
	case "GC":
		return GC(scale), nil
	case "MA":
		return MemcachedA(scale), nil
	case "MC":
		return MemcachedC(scale), nil
	case "kvs-a":
		return NativeKVS(0.5, scale), nil
	case "kvs-c":
		return NativeKVS(1.0, scale), nil
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// All returns the four paper workloads at the given scale.
func All(scale int) []Workload {
	return []Workload{TF(scale), GC(scale), MemcachedA(scale), MemcachedC(scale)}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
