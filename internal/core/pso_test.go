package core

import (
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// psoCluster builds a 2-blade PSO rack for consistency-model tests.
func psoCluster(t *testing.T, model Consistency, storeBuffer int) *Cluster {
	t.Helper()
	cfg := DefaultConfig(2, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 2048
	cfg.Consistency = model
	if storeBuffer > 0 {
		cfg.StoreBufferDepth = storeBuffer
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPSOWritesDoNotBlockThread: under PSO a thread issuing write faults
// to distinct pages keeps running; under TSO it stalls per write.
func TestPSOWritesDoNotBlockThread(t *testing.T) {
	run := func(model Consistency) sim.Time {
		c := psoCluster(t, model, 16)
		p := c.Exec("app")
		vma, _ := p.Mmap(1<<22, mem.PermReadWrite)
		th, _ := p.SpawnThread(0)
		n := 0
		th.Start(func() (mem.VA, bool, bool) {
			if n >= 512 {
				return 0, false, false
			}
			n++
			// All distinct pages: every access is a write fault.
			return vma.Base + mem.VA(n*mem.PageSize), true, true
		}, nil)
		return c.RunThreads()
	}
	tso := run(TSO)
	pso := run(PSO)
	// PSO pipelines the faults; 512 sequential 9us faults vs pipelined.
	if pso >= tso/2 {
		t.Errorf("PSO runtime %v should be far below TSO %v for pure write faults", pso, tso)
	}
}

// TestPSOStoreBufferBounds: a tiny store buffer forces stalls, pushing
// PSO back toward TSO.
func TestPSOStoreBufferBounds(t *testing.T) {
	run := func(depth int) sim.Time {
		c := psoCluster(t, PSO, depth)
		p := c.Exec("app")
		vma, _ := p.Mmap(1<<22, mem.PermReadWrite)
		th, _ := p.SpawnThread(0)
		n := 0
		th.Start(func() (mem.VA, bool, bool) {
			if n >= 256 {
				return 0, false, false
			}
			n++
			return vma.Base + mem.VA(n*mem.PageSize), true, true
		}, nil)
		return c.RunThreads()
	}
	deep := run(32)
	shallow := run(1)
	if shallow <= deep {
		t.Errorf("store buffer depth 1 (%v) should be slower than depth 32 (%v)", shallow, deep)
	}
}

// TestPSOReadAfterWriteBlocks: a read to a page with a pending write must
// wait for the drain (§6.1: PSO "blocks if there is a subsequent read to
// the same region").
func TestPSOReadAfterWriteBlocks(t *testing.T) {
	c := psoCluster(t, PSO, 16)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<20, mem.PermReadWrite)
	th, _ := p.SpawnThread(0)
	seq := []struct {
		off   mem.VA
		write bool
	}{
		{0, true},  // async write fault
		{0, false}, // read same page: must block for the drain
		{mem.PageSize, true},
		{2 * mem.PageSize, false},
	}
	i := 0
	var order []int
	th.Start(func() (mem.VA, bool, bool) {
		if i >= len(seq) {
			return 0, false, false
		}
		s := seq[i]
		order = append(order, i)
		i++
		return vma.Base + s.off, s.write, true
	}, nil)
	c.RunThreads()
	if th.Ops() != uint64(len(seq)) {
		t.Fatalf("ops = %d, want %d", th.Ops(), len(seq))
	}
	// The write must have drained before the read completed, so the page
	// is cached writable and both ops counted.
	if p, ok := c.Blade(0).Cache().Peek(vma.Base); !ok || !p.Writable {
		t.Error("write never drained")
	}
}

// TestSequentialInvalidationCorrectness: the unicast ablation must
// preserve protocol correctness (values still coherent), only slower.
func TestSequentialInvalidationCorrectness(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 1024
	cfg.SequentialInvalidation = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	var threads []*Thread
	for i := 0; i < 4; i++ {
		th, _ := p.SpawnThread(i)
		threads = append(threads, th)
	}
	// Everyone reads, then one writes, then everyone re-reads.
	for _, th := range threads {
		if _, err := th.Load(vma.Base); err != nil {
			t.Fatal(err)
		}
	}
	if err := threads[2].Store(vma.Base, 321); err != nil {
		t.Fatal(err)
	}
	for i, th := range threads {
		v, err := th.Load(vma.Base)
		if err != nil {
			t.Fatal(err)
		}
		if v != 321 {
			t.Errorf("blade %d read %d, want 321", i, v)
		}
	}
	if c.Collector().Counter(stats.CtrInvalidations) == 0 {
		t.Error("no invalidations recorded")
	}
}

// TestMigrationEndToEnd: data written before a migration must be readable
// after it, with the outlier entry routing to the new blade (§4.1).
func TestMigrationEndToEnd(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	p := c.Exec("app")
	vma, _ := p.Mmap(64<<10, mem.PermReadWrite)
	th, _ := p.SpawnThread(0)
	if err := th.Store(vma.Base+8, 777); err != nil {
		t.Fatal(err)
	}
	_, home, err := c.Controller().Allocator().Lookup(vma.Base)
	if err != nil {
		t.Fatal(err)
	}
	dst := ctrlplane.BladeID(1 - int(home))

	// Flush the dirty page to its home blade, copy the backing pages to
	// the destination, then switch translation (the page-migration
	// sequence an OS would run).
	c.KillSwitch() // reset = flush everything (reuse the reset path)
	reserved, _ := c.Controller().Allocator().Reserved(vma.Base)
	for off := uint64(0); off < reserved; off += mem.PageSize {
		va := vma.Base + mem.VA(off)
		if data := c.MemBlade(int(home)).ReadPage(va); data != nil {
			c.MemBlade(int(dst)).WritePage(va, data)
		}
	}
	if err := c.Controller().Allocator().Migrate(vma.Base, dst); err != nil {
		t.Fatal(err)
	}

	th2, _ := p.SpawnThread(1)
	v, err := th2.Load(vma.Base + 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Errorf("post-migration read = %d, want 777", v)
	}
	// And the fetch really came from the destination blade.
	reads, _ := c.MemBlade(int(dst)).Ops()
	if reads == 0 {
		t.Error("destination blade never served a read")
	}
}

// TestThreadAccessors covers the small Thread accessors.
func TestThreadAccessors(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	p := c.Exec("app")
	th, _ := p.SpawnThread(0)
	if th.BladeID() != 0 {
		t.Error("blade id")
	}
	if th.Done() {
		t.Error("not started, not done")
	}
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	n := 0
	th.Start(func() (mem.VA, bool, bool) {
		if n >= 10 {
			return 0, false, false
		}
		n++
		return vma.Base, false, true
	}, nil)
	c.RunThreads()
	if !th.Done() || th.Ops() != 10 || th.Faults() == 0 {
		t.Errorf("ops=%d faults=%d done=%v", th.Ops(), th.Faults(), th.Done())
	}
	if th.TID() < 0 {
		t.Error("tid")
	}
}
