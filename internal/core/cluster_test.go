package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mind/internal/computeblade"
	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

func newTestCluster(t testing.TB, computeBlades, memBlades int, mutate ...func(*Config)) *Cluster {
	t.Helper()
	cfg := DefaultConfig(computeBlades, memBlades)
	cfg.MemoryBladeCapacity = 1 << 28 // 256 MB per blade keeps tests light
	cfg.CachePagesPerBlade = 1024
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		// field is what the error must name; empty: any error.
		field string
		bad   func(*Config)
	}{
		{"zero compute blades", "", func(c *Config) { c.ComputeBlades = 0 }},
		// A sharer set is one word: a rack tracks at most 64 compute blades.
		{"65 compute blades", "ComputeBlades", func(c *Config) { c.ComputeBlades = 65 }},
		{"zero cache", "CachePagesPerBlade", func(c *Config) { c.CachePagesPerBlade = 0 }},
		// A blade cache names its records in 24 bits: 2^24 pages panicked
		// in computeblade.NewCache.
		{"cache past the record index", "CachePagesPerBlade", func(c *Config) { c.CachePagesPerBlade = computeblade.MaxCachePages + 1 }},
		// Fault keys hold page numbers below 2^38: a blade partition may
		// not reach mem.VALimit (2^50).
		{"blade past the address space", "MemoryBladeCapacity", func(c *Config) { c.MemoryBladeCapacity = uint64(mem.VALimit) }},
		// A fabric calibration that makes time run backwards or a transfer
		// free: cold store+load on 2x2 read 9.164 µs by default, but
		// 3.460 µs with NICBytesPerNs 0, 4.364 µs with WireDelay -1 µs and
		// 2.500 µs with a zero fabric.Config, all accepted silently.
		{"zero NIC bandwidth", "NICBytesPerNs", func(c *Config) { c.Fabric.NICBytesPerNs = 0 }},
		{"negative NIC bandwidth", "NICBytesPerNs", func(c *Config) { c.Fabric.NICBytesPerNs = -12.5 }},
		{"NaN NIC bandwidth", "NICBytesPerNs", func(c *Config) { c.Fabric.NICBytesPerNs = math.NaN() }},
		{"infinite NIC bandwidth", "NICBytesPerNs", func(c *Config) { c.Fabric.NICBytesPerNs = math.Inf(1) }},
		// Positive and finite, but a migration batch's serialization
		// overflows sim.Duration: the same probe read 3.460 µs, as at 0.
		{"overflowing NIC bandwidth", "NICBytesPerNs", func(c *Config) { c.Fabric.NICBytesPerNs = 1e-300 }},
		{"zero fabric config", "NICBytesPerNs", func(c *Config) { c.Fabric = fabric.Config{} }},
		{"negative wire delay", "WireDelay", func(c *Config) { c.Fabric.WireDelay = -sim.Microsecond }},
		{"negative NIC overhead", "NICOverhead", func(c *Config) { c.Fabric.NICOverhead = -1 }},
		{"negative pipeline delay", "PipelineDelay", func(c *Config) { c.Fabric.PipelineDelay = -1 }},
		{"negative pipeline service", "PipelineService", func(c *Config) { c.Fabric.PipelineService = -1 }},
		{"negative recirculation delay", "RecircDelay", func(c *Config) { c.Fabric.RecircDelay = -1 }},
		{"negative memory DMA", "MemDMA", func(c *Config) { c.Fabric.MemDMA = -1 }},
		{"negative control RTT", "CtrlRTT", func(c *Config) { c.Fabric.CtrlRTT = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := DefaultConfig(1, 1)
			good.MemoryBladeCapacity = 1 << 26
			bad := good
			tc.bad(&bad)
			_, errC := NewCluster(bad)
			_, errP := NewPod(PodConfig{Racks: []Config{good, bad}})
			for _, err := range []error{errC, errP} {
				if err == nil {
					t.Fatal("accepted (NewCluster, then NewPod on rack 1)")
				}
				if !strings.Contains(err.Error(), tc.field) {
					t.Errorf("error %q does not name %s", err, tc.field)
				}
			}
		})
	}
	// Zero delays stay legal: an ablation may price recirculation at 0.
	ok := DefaultConfig(1, 1)
	ok.MemoryBladeCapacity = 1 << 26
	ok.Fabric.WireDelay, ok.Fabric.NICOverhead, ok.Fabric.PipelineDelay = 0, 0, 0
	ok.Fabric.PipelineService, ok.Fabric.RecircDelay, ok.Fabric.MemDMA, ok.Fabric.CtrlRTT = 0, 0, 0, 0
	if _, err := NewCluster(ok); err != nil {
		t.Errorf("zero fabric delays rejected: %v", err)
	}
}

// TestThreadConfigValidation: a negative store buffer depth (under PSO the
// first write miss would stall forever on an empty buffer) is an error
// from both constructors, on any rack of a pod.
func TestThreadConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*Config)
	}{
		{"store buffer PSO", func(c *Config) { c.Consistency, c.StoreBufferDepth = PSO, -1 }},
		{"store buffer TSO", func(c *Config) { c.StoreBufferDepth = -3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := DefaultConfig(1, 1)
			good.MemoryBladeCapacity = 1 << 26
			bad := good
			tc.bad(&bad)
			if _, err := NewCluster(bad); err == nil {
				t.Error("NewCluster accepted it")
			}
			if _, err := NewPod(PodConfig{Racks: []Config{good, bad}}); err == nil {
				t.Error("NewPod accepted it on rack 1")
			}
		})
	}
}

// TestRegionAndMigrationConfigValidation: a region size the directory
// cannot use, a negative splitter epoch and a negative migration batch or
// detection delay are errors from both constructors — not a panic inside
// the directory, a silent default or a silent clamp.
func TestRegionAndMigrationConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*Config)
	}{
		{"initial region not a power of two", func(c *Config) { c.InitialRegionSize = 3000 }},
		{"top level below initial", func(c *Config) { c.InitialRegionSize, c.TopLevelRegionSize = 64<<10, 32<<10 }},
		{"negative splitter epoch", func(c *Config) { c.SplitterEpoch = -sim.Millisecond }},
		{"negative migration batch", func(c *Config) { c.Migration.BatchPages = -1 }},
		{"negative detection delay", func(c *Config) { c.Migration.DetectionDelay = -sim.Microsecond }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := DefaultConfig(1, 1)
			good.MemoryBladeCapacity = 1 << 26
			bad := good
			tc.bad(&bad)
			if _, err := NewCluster(bad); err == nil {
				t.Error("NewCluster accepted it")
			}
			if _, err := NewPod(PodConfig{Racks: []Config{good, bad}}); err == nil {
				t.Error("NewPod accepted it on rack 1")
			}
		})
	}
}

func TestStoreLoadRoundTripSingleBlade(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	p := c.Exec("app")
	vma, err := p.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Store(vma.Base+64, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	got, err := th.Load(vma.Base + 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xdeadbeef {
		t.Errorf("load = %#x", got)
	}
	// Unwritten memory reads as zero.
	if got, _ := th.Load(vma.Base + 0x8000); got != 0 {
		t.Errorf("unwritten = %#x", got)
	}
}

func TestCrossBladeCoherence(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<20, mem.PermReadWrite)
	t0, _ := p.SpawnThread(0)
	t1, _ := p.SpawnThread(1)

	// Blade 0 writes; blade 1 must observe it (M->S flush path).
	if err := t0.Store(vma.Base, 42); err != nil {
		t.Fatal(err)
	}
	got, err := t1.Load(vma.Base)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("blade 1 read %d, want 42", got)
	}
	// Blade 1 overwrites (S->M with invalidation of blade 0); blade 0
	// must see the new value (M->S again).
	if err := t1.Store(vma.Base, 99); err != nil {
		t.Fatal(err)
	}
	got, err = t0.Load(vma.Base)
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("blade 0 read %d, want 99", got)
	}
	if c.Collector().Counter(stats.CtrInvalidations) == 0 {
		t.Error("expected invalidations")
	}
}

func TestWriteWriteMigration(t *testing.T) {
	// Ownership ping-pong across 4 blades (M->M transitions).
	c := newTestCluster(t, 4, 1)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	var threads []*Thread
	for i := 0; i < 4; i++ {
		th, _ := p.SpawnThread(i)
		threads = append(threads, th)
	}
	for round := 0; round < 3; round++ {
		for i, th := range threads {
			if err := th.Store(vma.Base+8, uint64(round*10+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, _ := threads[0].Load(vma.Base + 8)
	if got != 23 {
		t.Errorf("final value = %d, want 23", got)
	}
	if c.Collector().Counter(stats.CtrFlushedPages) == 0 {
		t.Error("M->M transitions should flush dirty pages")
	}
}

func TestEvictionWritebackSurvives(t *testing.T) {
	// Cache of 64 pages; write 256 pages; everything must read back.
	cfg := DefaultConfig(1, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 64
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Exec("app")
	vma, _ := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
	th, _ := p.SpawnThread(0)
	for i := 0; i < 256; i++ {
		if err := th.Store(vma.Base+mem.VA(i*mem.PageSize)+8, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	if c.Collector().Counter(stats.CtrEvictions) == 0 {
		t.Fatal("expected evictions")
	}
	if c.Collector().Counter(stats.CtrWritebacks) == 0 {
		t.Fatal("expected dirty writebacks")
	}
	for i := 0; i < 256; i++ {
		got, err := th.Load(vma.Base + mem.VA(i*mem.PageSize) + 8)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(i)+1 {
			t.Fatalf("page %d read %d, want %d", i, got, i+1)
		}
	}
}

func TestProtectionEnforcedOnFaults(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	p := c.Exec("app")
	ro, _ := p.Mmap(1<<16, mem.PermRead)
	th, _ := p.SpawnThread(0)
	// Reads are fine; writes are rejected by the data plane.
	if _, err := th.Load(ro.Base); err != nil {
		t.Fatalf("read on read-only: %v", err)
	}
	if err := th.Store(ro.Base, 1); !errors.Is(err, ctrlplane.ErrPermission) {
		t.Errorf("write on read-only = %v, want ErrPermission", err)
	}
	// Unmapped access rejected.
	if _, err := th.Load(0x10); !errors.Is(err, ctrlplane.ErrPermission) {
		t.Errorf("unmapped load = %v", err)
	}
	// Another process cannot touch this vma.
	q := c.Exec("other")
	qt, _ := q.SpawnThread(1)
	if _, err := qt.Load(ro.Base); !errors.Is(err, ctrlplane.ErrPermission) {
		t.Errorf("cross-process load = %v", err)
	}
	if c.Collector().Counter(stats.CtrRejected) == 0 {
		t.Error("rejects not counted")
	}
}

func TestSessionDomainIsolationEndToEnd(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	p := c.Exec("server")
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	sess := p.CreateDomain()
	if err := p.GrantDomain(sess, vma.Base, 1<<16, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	th, _ := p.SpawnThread(0)
	if err := th.Store(vma.Base, 7); err != nil {
		t.Fatal(err)
	}
	// A reader using the session domain: emulate by checking protection
	// directly (threads carry their process PDID).
	if err := c.Controller().Protection().Check(sess, vma.Base, mem.PermRead); err != nil {
		t.Error(err)
	}
	if err := c.Controller().Protection().Check(sess, vma.Base, mem.PermReadWrite); err == nil {
		t.Error("session wrote through read grant")
	}
}

// TestForeignRangeRefusedEndToEnd: a process cannot give itself rights
// over another process's vma, so its load of the victim's page is still
// refused by the data plane.
func TestForeignRangeRefusedEndToEnd(t *testing.T) {
	c := newTestCluster(t, 2, 1)
	victim := c.Exec("victim")
	vma, err := victim.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	vt, _ := victim.SpawnThread(0)
	if err := vt.Store(vma.Base, 42); err != nil {
		t.Fatal(err)
	}
	attacker := c.Exec("attacker")
	if err := attacker.MProtect(vma.Base, 1<<20, mem.PermReadWrite); !errors.Is(err, ctrlplane.ErrBadAddress) {
		t.Errorf("mprotect of the victim's vma = %v, want ErrBadAddress", err)
	}
	sess := attacker.CreateDomain()
	if err := attacker.GrantDomain(sess, vma.Base, 1<<20, mem.PermRead); !errors.Is(err, ctrlplane.ErrBadAddress) {
		t.Errorf("grant over the victim's vma = %v, want ErrBadAddress", err)
	}
	at, _ := attacker.SpawnThread(1)
	if _, err := at.Load(vma.Base); !errors.Is(err, ctrlplane.ErrPermission) {
		t.Errorf("attacker's load = %v, want ErrPermission", err)
	}
	if err := attacker.Munmap(vma.Base); !errors.Is(err, ctrlplane.ErrBadAddress) {
		t.Errorf("munmap of the victim's vma = %v, want ErrBadAddress", err)
	}
	if v, err := vt.Load(vma.Base); err != nil || v != 42 {
		t.Errorf("victim's load = %d, %v; want 42", v, err)
	}
}

// TestMmapPastAddressSpace: an area longer than 2^63 bytes has no
// power-of-two footprint; Mmap must say ENOMEM, on one rack and in a pod
// that would otherwise try to borrow for it.
func TestMmapPastAddressSpace(t *testing.T) {
	pod, err := NewPod(PodConfig{Racks: []Config{podRackConfig(1, 1, 1024), podRackConfig(1, 1, 1024)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*Rack{newTestCluster(t, 1, 1).Rack, pod.Rack(0)} {
		for _, length := range []uint64{1<<63 + 1, math.MaxUint64} {
			if _, err := r.Exec("big").Mmap(length, mem.PermReadWrite); !errors.Is(err, ctrlplane.ErrNoMemory) {
				t.Errorf("%d-rack: Mmap(%#x) = %v, want ErrNoMemory", i+1, length, err)
			}
		}
	}
}

func TestTransitionLatencyBands(t *testing.T) {
	// Reproduces the latency structure of Figure 7 (left): transitions
	// without invalidation land near 9 µs; M->S and M->M are about 2x.
	c := newTestCluster(t, 3, 1)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<20, mem.PermReadWrite)
	a, _ := p.SpawnThread(0)
	b, _ := p.SpawnThread(1)

	measure := func(th *Thread, va mem.VA, write bool) sim.Duration {
		start := c.Now()
		if err := th.Touch(va, write); err != nil {
			t.Fatal(err)
		}
		return c.Now().Sub(start)
	}

	// I->S: cold read.
	iS := measure(a, vma.Base, false)
	// S->S: second blade reads the same page.
	sS := measure(b, vma.Base, false)
	// S->M: blade A writes (invalidates B in parallel with fetch).
	sM := measure(a, vma.Base, true)
	// M->M: blade B writes (serial: flush A, then fetch).
	mM := measure(b, vma.Base, true)
	// M->S: blade A reads (serial downgrade of B).
	mS := measure(a, vma.Base, false)

	within := func(name string, d, lo, hi sim.Duration) {
		t.Helper()
		if d < lo || d > hi {
			t.Errorf("%s latency = %v, want [%v, %v]", name, d, lo, hi)
		}
	}
	within("I->S", iS, 6*sim.Microsecond, 13*sim.Microsecond)
	within("S->S", sS, 6*sim.Microsecond, 13*sim.Microsecond)
	within("S->M", sM, 6*sim.Microsecond, 14*sim.Microsecond)
	within("M->M", mM, 13*sim.Microsecond, 26*sim.Microsecond)
	within("M->S", mS, 13*sim.Microsecond, 26*sim.Microsecond)
	if mM < sS+5*sim.Microsecond {
		t.Errorf("M->M (%v) should be clearly slower than S->S (%v)", mM, sS)
	}
}

func TestFalseInvalidationCounting(t *testing.T) {
	// Two dirty pages in one 16 KB region at blade 0; blade 1 reads one
	// page -> the other flushed page is a false invalidation.
	c := newTestCluster(t, 2, 1)
	p := c.Exec("app")
	vma, _ := p.Mmap(16<<10, mem.PermReadWrite)
	a, _ := p.SpawnThread(0)
	b, _ := p.SpawnThread(1)
	if err := a.Store(vma.Base, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Store(vma.Base+mem.PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(vma.Base); err != nil {
		t.Fatal(err)
	}
	col := c.Collector()
	if col.Counter(stats.CtrFlushedPages) != 2 {
		t.Errorf("flushed = %d, want 2", col.Counter(stats.CtrFlushedPages))
	}
	if col.Counter(stats.CtrFalseInvals) != 1 {
		t.Errorf("false invals = %d, want 1", col.Counter(stats.CtrFalseInvals))
	}
	// And the value must still be correct.
	if got, _ := b.Load(vma.Base + mem.PageSize); got != 2 {
		t.Errorf("false-invalidated page lost its data: %d", got)
	}
}

func TestTimeoutResetRecovery(t *testing.T) {
	// Persistently drop invalidation deliveries to blade 0 so blade 1's
	// write can never collect its ACK; recovery must go through
	// retransmissions and the §4.4 reset, and the system must stay
	// functionally correct afterwards.
	c := newTestCluster(t, 2, 1)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	a, _ := p.SpawnThread(0)
	b, _ := p.SpawnThread(1)
	if err := a.Store(vma.Base, 123); err != nil {
		t.Fatal(err)
	}
	drops := 0
	c.InjectFailure(func(from, to fabric.NodeID) bool {
		// Drop the first two multicast deliveries to blade 0.
		if to == 0 && drops < 2 {
			drops++
			return true
		}
		return false
	})
	// Blade 1 writes: requires invalidating blade 0's M copy. First
	// delivery is dropped; retransmits are deduped; reset recovers.
	if err := b.Store(vma.Base, 456); err != nil {
		t.Fatal(err)
	}
	c.InjectFailure(nil)
	if drops == 0 {
		t.Fatal("drop hook never fired")
	}
	col := c.Collector()
	if col.Counter(stats.CtrRetransmits) == 0 {
		t.Error("expected retransmissions")
	}
	if col.Counter(stats.CtrResets) == 0 {
		t.Error("expected a coherence reset")
	}
	// The flushed-on-reset value must persist and the new value wins.
	if got, _ := a.Load(vma.Base); got != 456 {
		t.Errorf("post-recovery read = %d, want 456", got)
	}
}

func TestSwitchFailover(t *testing.T) {
	c := newTestCluster(t, 2, 2)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	a, _ := p.SpawnThread(0)
	b, _ := p.SpawnThread(1)
	if err := a.Store(vma.Base, 777); err != nil {
		t.Fatal(err)
	}
	failoverNow(c.Rack)
	// After failover: translation/protection reconstructed, directory
	// reset; data must still be readable from the other blade.
	got, err := b.Load(vma.Base)
	if err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Errorf("post-failover read = %d, want 777", got)
	}
	// New allocations still work.
	v2, err := p.Mmap(1<<12, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Store(v2.Base, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMultiThreadWorkloadRun(t *testing.T) {
	// Workload-driven execution: two threads on different blades hammer
	// a shared range; run to completion and check accounting.
	c := newTestCluster(t, 2, 1)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<20, mem.PermReadWrite)
	var threads []*Thread
	for i := 0; i < 2; i++ {
		th, err := p.SpawnThread(i)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
		rng := sim.NewRNG(uint64(i+1), "wl")
		n := 0
		th.Start(func() (mem.VA, bool, bool) {
			if n >= 3000 {
				return 0, false, false
			}
			n++
			return vma.Base + mem.VA(rng.Intn(256)*mem.PageSize), rng.Bool(0.3), true
		}, nil)
	}
	end := c.RunThreads()
	if end == 0 {
		t.Fatal("no virtual time elapsed")
	}
	col := c.Collector()
	if col.Counter(stats.CtrAccesses) < 6000 {
		t.Errorf("accesses = %d, want >= 6000", col.Counter(stats.CtrAccesses))
	}
	for _, th := range threads {
		if !th.Done() || th.Ops() != 3000 {
			t.Errorf("thread ops = %d done=%v", th.Ops(), th.Done())
		}
	}
	if col.Counter(stats.CtrRemoteAccesses) == 0 {
		t.Error("expected remote accesses")
	}
}

func TestPSOFasterThanTSOOnSharedWrites(t *testing.T) {
	run := func(model Consistency) sim.Time {
		cfg := DefaultConfig(2, 1)
		cfg.MemoryBladeCapacity = 1 << 28
		cfg.CachePagesPerBlade = 2048
		cfg.Consistency = model
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := c.Exec("app")
		vma, _ := p.Mmap(1<<22, mem.PermReadWrite)
		for i := 0; i < 2; i++ {
			th, _ := p.SpawnThread(i)
			rng := sim.NewRNG(uint64(i+1), "pso")
			n := 0
			th.Start(func() (mem.VA, bool, bool) {
				if n >= 2000 {
					return 0, false, false
				}
				n++
				// Write-heavy traffic over a shared range.
				return vma.Base + mem.VA(rng.Intn(512)*mem.PageSize), rng.Bool(0.8), true
			}, nil)
		}
		return c.RunThreads()
	}
	tso := run(TSO)
	pso := run(PSO)
	if pso >= tso {
		t.Errorf("PSO (%d) should beat TSO (%d) on write-heavy sharing", pso, tso)
	}
}

func TestMunmapRemovesAccess(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	p := c.Exec("app")
	vma, _ := p.Mmap(1<<16, mem.PermReadWrite)
	th, _ := p.SpawnThread(0)
	if err := th.Store(vma.Base, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Munmap(vma.Base); err != nil {
		t.Fatal(err)
	}
	// The cached copy remains until invalidated, but new faults (other
	// pages) are rejected.
	if err := th.Touch(vma.Base+0x8000, false); !errors.Is(err, ctrlplane.ErrPermission) {
		t.Errorf("fault after munmap = %v", err)
	}
}

func TestBoundedSplittingReactsToFalseSharing(t *testing.T) {
	// Hot false sharing in one region must trigger splits within a few
	// epochs.
	cfg := DefaultConfig(2, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 2048
	cfg.SplitterEpoch = 1 * sim.Millisecond
	cfg.InitialRegionSize = 64 << 10
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Exec("app")
	vma, _ := p.Mmap(64<<10, mem.PermReadWrite)
	a, _ := p.SpawnThread(0)
	b, _ := p.SpawnThread(1)
	// Blade 0 dirties many pages in the region; blade 1 repeatedly reads
	// one page -> false invalidations pile up on the region.
	for round := 0; round < 40; round++ {
		for pg := 0; pg < 8; pg++ {
			if err := a.Store(vma.Base+mem.VA(pg*mem.PageSize), uint64(round)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Load(vma.Base + 15*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		c.AdvanceTime(2 * sim.Millisecond)
	}
	if c.Splitter().Splits() == 0 {
		t.Error("bounded splitting never split a hot region")
	}
	if c.Collector().Counter(stats.CtrFalseInvals) == 0 {
		t.Error("no false invalidations recorded")
	}
}

// privateSweep has blade 0 of an 8-blade rack, built with mutate, touch
// each of pages fresh pages once: a read, then a write if write is set.
// It returns the sweep's virtual duration and the rack's collector.
func privateSweep(t *testing.T, pages int, write bool, mutate ...func(*Config)) (sim.Duration, *stats.Collector) {
	t.Helper()
	c := newTestCluster(t, 8, 2, mutate...)
	p := c.Exec("sweep")
	vma, err := p.Mmap(8<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	th, err := p.SpawnThread(0)
	if err != nil {
		t.Fatal(err)
	}
	start := c.Now()
	for i := 0; i < pages; i++ {
		va := vma.Base + mem.VA(i*mem.PageSize)
		if err := th.Touch(va, false); err != nil {
			t.Fatal(err)
		}
		if write {
			if err := th.Touch(va, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c.Now().Sub(start), c.Collector()
}

// TestRecirculationCost: the directory update's second pass through the
// pipeline (§6.3) puts one recirculation on every cold I->S fault's
// critical path, so 64 faults take exactly 64 RecircDelays longer than
// with the delay zeroed.
func TestRecirculationCost(t *testing.T) {
	const pages = 64
	with, wc := privateSweep(t, pages, false)
	without, nc := privateSweep(t, pages, false, func(cfg *Config) { cfg.Fabric.RecircDelay = 0 })
	if with != 586496*sim.Nanosecond || without != 560896*sim.Nanosecond {
		t.Errorf("sweep took %v with recirculation delay, %v without; want 586.496µs, 560.896µs", with, without)
	}
	if d := DefaultConfig(8, 2).Fabric.RecircDelay; with-without != pages*d {
		t.Errorf("recirculation cost %v, want %d × %v", with-without, pages, d)
	}
	for _, col := range []*stats.Collector{wc, nc} {
		if n := col.Counter(stats.CtrRecirculations); n != pages {
			t.Errorf("recirculations = %d, want %d", n, pages)
		}
	}
}

// TestPrivateSweepUpgradesOncePerRegion: under MSI a private
// read-then-write sweep pays one upgrade fault per 16 KB region: the
// upgrade makes the whole region Modified, so the region's later pages
// fault straight into M.
func TestPrivateSweepUpgradesOncePerRegion(t *testing.T) {
	const pages = 256
	took, col := privateSweep(t, pages, true)
	regions := uint64(pages * mem.PageSize / (16 << 10))
	if n := col.Counter(stats.CtrRemoteAccesses); n != pages+regions {
		t.Errorf("remote accesses = %d, want %d", n, pages+regions)
	}
	if took != 2932480*sim.Nanosecond {
		t.Errorf("sweep took %v, want 2.93248ms", took)
	}
}

// BenchmarkOwnershipPingPong is the raw M->M transfer microbench between
// two blades.
func BenchmarkOwnershipPingPong(b *testing.B) {
	c := newTestCluster(b, 8, 2)
	p := c.Exec("ablation")
	vma, err := p.Mmap(1<<20, mem.PermReadWrite)
	if err != nil {
		b.Fatal(err)
	}
	t0, _ := p.SpawnThread(0)
	t1, _ := p.SpawnThread(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th := t0
		if i%2 == 1 {
			th = t1
		}
		if err := th.Touch(vma.Base, true); err != nil {
			b.Fatal(err)
		}
	}
}
