package workloads

import (
	"testing"

	"mind/internal/core"
	"mind/internal/mem"
	"mind/internal/stats"
)

func drain(gen func() (mem.VA, bool, bool)) (n int, writes int, pages map[mem.VA]bool) {
	pages = map[mem.VA]bool{}
	for {
		va, wr, ok := gen()
		if !ok {
			return
		}
		n++
		if wr {
			writes++
		}
		pages[mem.PageBase(va)] = true
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range All(1) {
		p := Params{Threads: 4, Blades: 2, OpsPerThread: 500, Seed: 42}
		g1 := w.Gen(1<<32, 2, p)
		g2 := w.Gen(1<<32, 2, p)
		for i := 0; i < 500; i++ {
			va1, wr1, ok1 := g1()
			va2, wr2, ok2 := g2()
			if va1 != va2 || wr1 != wr2 || ok1 != ok2 {
				t.Fatalf("%s: non-deterministic at op %d", w.Name, i)
			}
		}
	}
}

func TestGeneratorsRespectOpsAndFootprint(t *testing.T) {
	for _, w := range All(1) {
		base := mem.VA(1) << 32
		p := Params{Threads: 8, Blades: 4, OpsPerThread: 2000, Seed: 7}
		for th := 0; th < 8; th++ {
			n, _, pgs := drain(w.Gen(base, th, p))
			if n != 2000 {
				t.Errorf("%s thread %d: ops = %d", w.Name, th, n)
			}
			for pg := range pgs {
				if pg < base || pg >= base+mem.VA(w.Footprint) {
					t.Fatalf("%s: access at %#x outside footprint [%#x, +%#x)",
						w.Name, uint64(pg), uint64(base), w.Footprint)
				}
			}
		}
	}
}

func TestThreadsDiffer(t *testing.T) {
	w := GC(1)
	p := Params{Threads: 4, Blades: 2, OpsPerThread: 200, Seed: 1}
	g0 := w.Gen(0x100000000, 0, p)
	g1 := w.Gen(0x100000000, 1, p)
	same := 0
	for i := 0; i < 200; i++ {
		va0, _, _ := g0()
		va1, _, _ := g1()
		if va0 == va1 {
			same++
		}
	}
	if same > 100 {
		t.Errorf("threads produced %d/200 identical accesses", same)
	}
}

func TestGCWritesMoreSharedThanTF(t *testing.T) {
	// The paper: GC writes ~2.5x more data in shared pages than TF
	// (§7.1). Verify the generators respect the ordering with margin.
	sharedWrites := func(w Workload) int {
		base := mem.VA(1) << 32
		p := Params{Threads: 4, Blades: 2, OpsPerThread: 20000, Seed: 3}
		// Shared area is the low part of the footprint for both TF and
		// GC; count writes landing below the private areas.
		var sharedLimit mem.VA
		switch w.Name {
		case "TF":
			sharedLimit = base + mem.VA(512*mem.PageSize)
		case "GC":
			sharedLimit = base + mem.VA(2048*mem.PageSize)
		}
		writes := 0
		for th := 0; th < 4; th++ {
			gen := w.Gen(base, th, p)
			for {
				va, wr, ok := gen()
				if !ok {
					break
				}
				if wr && va < sharedLimit {
					writes++
				}
			}
		}
		return writes
	}
	tf := sharedWrites(TF(1))
	gc := sharedWrites(GC(1))
	if gc < 2*tf {
		t.Errorf("GC shared writes (%d) should be >= 2x TF's (%d)", gc, tf)
	}
}

func TestMemcachedCIsReadOnlyOnItemsButWritesLRU(t *testing.T) {
	w := MemcachedC(1)
	base := mem.VA(1) << 32
	p := Params{Threads: 2, Blades: 1, OpsPerThread: 3000, Seed: 5}
	itemsLo := base + mem.VA(256*mem.PageSize)
	itemsHi := itemsLo + mem.VA(4096*mem.PageSize)
	lruWrites, itemWrites := 0, 0
	gen := w.Gen(base, 0, p)
	for {
		va, wr, ok := gen()
		if !ok {
			break
		}
		if wr {
			if va >= itemsHi {
				lruWrites++
			} else if va >= itemsLo {
				itemWrites++
			}
		}
	}
	if itemWrites != 0 {
		t.Errorf("M_C wrote %d items; YCSB-C is read-only", itemWrites)
	}
	if lruWrites == 0 {
		t.Error("M_C must write LRU metadata (the paper's M_C invalidation source)")
	}
}

func TestMemcachedAWritesItems(t *testing.T) {
	w := MemcachedA(1)
	p := Params{Threads: 1, Blades: 1, OpsPerThread: 3000, Seed: 5}
	_, writes, _ := drain(w.Gen(1<<32, 0, p))
	// Every third access is an LRU write (1000) plus ~50% of item
	// accesses (~500).
	if writes < 1200 {
		t.Errorf("M_A writes = %d, want > 1200", writes)
	}
}

func TestUniformRatios(t *testing.T) {
	w := Uniform(1000, 0.75, 0.5)
	p := Params{Threads: 4, Blades: 2, OpsPerThread: 40000, Seed: 9}
	base := mem.VA(1) << 32
	sharedLimit := base + mem.VA(500*mem.PageSize)
	n, writes, _ := drain(w.Gen(base, 1, p))
	if n != 40000 {
		t.Fatalf("ops = %d", n)
	}
	wr := float64(writes) / float64(n)
	if wr < 0.22 || wr > 0.28 {
		t.Errorf("write ratio = %v, want ~0.25", wr)
	}
	shared := 0
	gen := w.Gen(base, 1, p)
	for {
		va, _, ok := gen()
		if !ok {
			break
		}
		if va < sharedLimit {
			shared++
		}
	}
	sr := float64(shared) / float64(n)
	if sr < 0.45 || sr > 0.55 {
		t.Errorf("sharing ratio = %v, want ~0.5", sr)
	}
}

func TestUniformExtremes(t *testing.T) {
	// sharing 0: no thread touches the shared half.
	w := Uniform(1000, 1.0, 0.0)
	base := mem.VA(1) << 32
	p := Params{Threads: 2, Blades: 1, OpsPerThread: 5000, Seed: 2}
	gen := w.Gen(base, 0, p)
	for {
		va, wr, ok := gen()
		if !ok {
			break
		}
		if wr {
			t.Fatal("read-ratio 1 produced a write")
		}
		if va < base+mem.VA(500*mem.PageSize) {
			t.Fatal("sharing-ratio 0 touched the shared region")
		}
	}
}

func TestNativeKVSPartitionLocality(t *testing.T) {
	w := NativeKVS(0.5, 1)
	base := mem.VA(1) << 32
	p := Params{Threads: 8, Blades: 4, OpsPerThread: 8000, Seed: 11}
	itemsBase := base + mem.VA(256*mem.PageSize)
	partBytes := mem.VA(4096 / 4 * mem.PageSize)
	gen := w.Gen(base, 1, p) // thread 1 -> blade 1
	local, remote := 0, 0
	for {
		va, _, ok := gen()
		if !ok {
			break
		}
		if va < itemsBase {
			continue // bucket probe
		}
		part := int((va - itemsBase) / partBytes)
		if part == 1 {
			local++
		} else {
			remote++
		}
	}
	frac := float64(local) / float64(local+remote)
	if frac < 0.85 {
		t.Errorf("local fraction = %v, want ~0.925", frac)
	}
	if remote == 0 {
		t.Error("expected some cross-partition traffic")
	}
}

// TestNativeKVSThreadAffinity is the §8 "Thread management" direction:
// Native-KVS threads placed on the blade that owns their key partition
// beat misplaced ones on throughput and on invalidations per access.
func TestNativeKVSThreadAffinity(t *testing.T) {
	run := func(aligned bool) (mops, invPerAccess float64) {
		const blades = 4
		w := NativeKVS(0.5, 1)
		cfg := core.DefaultConfig(blades, 2)
		cfg.MemoryBladeCapacity = 1 << 30
		cfg.CachePagesPerBlade = int(w.Footprint / mem.PageSize / 2)
		c, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := c.Exec("affinity")
		vma, err := p.Mmap(w.Footprint, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		// Two threads per partition: aligned placement co-locates each
		// partition's pair on one blade (their read-write sharing stays
		// in the local cache); misplaced splits every pair across blades,
		// turning that sharing into coherence traffic.
		const threads = 2 * blades
		params := Params{Threads: threads, Blades: blades, OpsPerThread: 20000, Seed: 5}
		for i := 0; i < threads; i++ {
			blade := i % blades // the partition this thread favours
			if !aligned {
				blade = (i%blades + i/blades) % blades
			}
			th, err := p.SpawnThread(blade)
			if err != nil {
				t.Fatal(err)
			}
			th.Start(w.Gen(vma.Base, i, params), nil)
		}
		end := c.RunThreads()
		col := c.Collector()
		return float64(col.Counter(stats.CtrAccesses)) / end.Sub(0).Seconds() / 1e6, col.PerAccess(stats.CtrInvalidations)
	}
	alignedMOPS, alignedInv := run(true)
	misMOPS, misInv := run(false)
	t.Logf("aligned %.2f MOPS, %.3f invalidations/access; misplaced %.2f MOPS, %.3f", alignedMOPS, alignedInv, misMOPS, misInv)
	if alignedMOPS <= misMOPS || alignedInv >= misInv {
		t.Error("aligned threads should beat misplaced ones on MOPS and on invalidations per access")
	}
}

func TestWorkloadScale(t *testing.T) {
	if TF(2).Footprint <= TF(1).Footprint {
		t.Error("scale must grow footprint")
	}
	if TF(0).Footprint != TF(1).Footprint {
		t.Error("scale 0 should clamp to 1")
	}
}

// TestSeedDeterminismAcrossSeeds pins seed handling for every generator,
// including the ones All() omits (Uniform, NativeKVS): the same seed
// reproduces the stream bit-identically on repeated construction, and a
// different seed actually changes it — the contract the root-seed-pinned
// experiment goldens depend on.
func TestSeedDeterminismAcrossSeeds(t *testing.T) {
	gens := append(All(1),
		Uniform(512, 0.5, 0.5),
		NativeKVS(0.5, 1),
		NativeKVS(1.0, 1),
	)
	fingerprint := func(w Workload, seed uint64) []uint64 {
		p := Params{Threads: 4, Blades: 2, OpsPerThread: 300, Seed: seed}
		g := w.Gen(1<<32, 1, p)
		var out []uint64
		for {
			va, wr, ok := g()
			if !ok {
				return out
			}
			v := uint64(va) << 1
			if wr {
				v |= 1
			}
			out = append(out, v)
		}
	}
	equal := func(a, b []uint64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, w := range gens {
		for _, seed := range []uint64{1, 42, 1 << 40} {
			if !equal(fingerprint(w, seed), fingerprint(w, seed)) {
				t.Errorf("%s: seed %d not reproducible", w.Name, seed)
			}
		}
		if equal(fingerprint(w, 1), fingerprint(w, 2)) {
			t.Errorf("%s: seeds 1 and 2 produced identical streams (seed not threaded through)", w.Name)
		}
	}
}

// TestByName: each command-line name builds its workload at the given
// scale, and an unknown name is an error.
func TestByName(t *testing.T) {
	for name, want := range map[string]Workload{
		"TF": TF(2), "GC": GC(2), "MA": MemcachedA(2), "MC": MemcachedC(2),
		"kvs-a": NativeKVS(0.5, 2), "kvs-c": NativeKVS(1.0, 2),
	} {
		w, err := ByName(name, 2)
		if err != nil || w.Name != want.Name || w.Footprint != want.Footprint {
			t.Errorf("%s: %s of %d bytes, %v; want %s of %d", name, w.Name, w.Footprint, err, want.Name, want.Footprint)
		}
	}
	if _, err := ByName("uniform", 1); err == nil {
		t.Error("uniform resolved by name; it takes ratios, not a scale")
	}
}
