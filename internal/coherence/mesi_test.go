package coherence

import (
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
)

// newMESIHarness builds a protocol harness with the Exclusive-grant
// option enabled (§8 extension).
func newMESIHarness(t *testing.T, blades int) *protoHarness {
	t.Helper()
	h := &protoHarness{eng: sim.NewEngine(), col: stats.NewCollector()}
	h.fab = fabric.New(h.eng, fabric.DefaultConfig())
	for i := 0; i < blades; i++ {
		h.fab.AddNode(fabric.NodeID(i))
	}
	h.fab.AddNode(1000)
	h.asic = switchasic.New(switchasic.Config{SlotCapacity: 100})
	ports := make([]int, blades)
	for i := range ports {
		ports[i] = i
	}
	h.asic.SetGroup(ctrlplane.InvalidationGroup, ports)
	h.dir = NewDirectory(Config{
		InitialRegionSize:   16 << 10,
		TopLevelSize:        2 << 20,
		ExclusiveOnColdRead: true,
	}, Deps{
		Engine:    h.eng,
		Fabric:    h.fab,
		ASIC:      h.asic,
		Collector: h.col,
		Translate: func(mem.VA) (ctrlplane.BladeID, error) { return 0, nil },
		Protect:   func(mem.PDID, mem.VA, mem.Perm) error { return nil },
		BladeNode: func(i int) fabric.NodeID { return fabric.NodeID(i) },
		MemFetch:  memFetchVia(h.eng, h.fab, 1000),
	})
	for i := 0; i < blades; i++ {
		fb := &fakeBlade{h: h, id: i, dirtyFor: map[mem.VA]int{}}
		h.blades = append(h.blades, fb)
		h.dir.RegisterBlade(i, fb)
	}
	return h
}

func TestExclusiveGrantOnColdRead(t *testing.T) {
	h := newMESIHarness(t, 2)
	va := mem.VA(0x100000)
	c := h.request(t, 0, va, mem.PermRead)
	if c.Transition != "I->E" {
		t.Fatalf("transition = %q, want I->E", c.Transition)
	}
	if !c.Writable {
		t.Error("Exclusive grant must be writable (silent upgrade)")
	}
	if c.Invalidations != 0 {
		t.Error("cold read should not invalidate anyone")
	}
	r, _ := h.dir.Lookup(va)
	if r.State() != Modified || r.Owner() != 0 {
		t.Errorf("region after E grant: %v", r)
	}
}

func TestExclusiveSecondReaderPaysDowngrade(t *testing.T) {
	h := newMESIHarness(t, 2)
	va := mem.VA(0x200000)
	h.request(t, 0, va, mem.PermRead) // I->E at blade 0
	c := h.request(t, 1, va, mem.PermRead)
	// The MESI cost: a second reader hits an owned region and pays the
	// serial downgrade path instead of MSI's cheap S->S.
	if c.Transition != "M->S" || c.Invalidations != 1 {
		t.Errorf("second reader: %+v", c)
	}
	if len(h.blades[0].invs) != 1 || !h.blades[0].invs[0].Downgrade {
		t.Errorf("owner invalidations: %+v", h.blades[0].invs)
	}
	// After the downgrade the region is plain Shared; a third access
	// from blade 0 is S->S (no further E grants on a shared region).
	c = h.request(t, 0, va+mem.PageSize, mem.PermRead)
	if c.Transition != "S->S" || c.Writable {
		t.Errorf("post-downgrade read: %+v", c)
	}
}

func TestExclusiveVsMSIFaultCount(t *testing.T) {
	// A private read-then-write sequence over N pages: MSI pays 2 remote
	// accesses per page (read fault + upgrade fault); MESI pays 1.
	count := func(exclusive bool) uint64 {
		var h *protoHarness
		if exclusive {
			h = newMESIHarness(t, 2)
		} else {
			h = newProtoHarness(t, 2, 100)
		}
		const pages = 16
		for i := 0; i < pages; i++ {
			va := mem.VA(0x300000 + i*mem.PageSize)
			c := h.request(t, 0, va, mem.PermRead)
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			// Write the page we just read. Under MESI the grant was
			// already writable, but the page-fault path is only entered
			// on a miss — the blade model decides that; here we model
			// the upgrade request the MSI blade would send.
			if !c.Writable {
				if c := h.request(t, 0, va, mem.PermReadWrite); c.Err != nil {
					t.Fatal(c.Err)
				}
			}
		}
		return h.col.Counter(stats.CtrRemoteAccesses)
	}
	msi := count(false)
	mesi := count(true)
	// With 16 KB regions (4 pages), MSI pays one upgrade per region: the
	// first page costs I->S + S->M, after which the region is owned and
	// the remaining 3 reads arrive writable. 16 pages = 4 regions:
	// MSI = 16 reads + 4 upgrades = 20; MESI = 16 (every read exclusive).
	if msi != 20 || mesi != 16 {
		t.Errorf("remote accesses: MESI=%d MSI=%d, want 16/20", mesi, msi)
	}
}

func TestExclusiveWriteColdStillIM(t *testing.T) {
	h := newMESIHarness(t, 2)
	c := h.request(t, 0, 0x400000, mem.PermReadWrite)
	if c.Transition != "I->M" || !c.Writable {
		t.Errorf("cold write: %+v", c)
	}
}
