package coherence

import (
	"errors"
	"sort"
	"testing"
	"unsafe"

	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
)

// protoHarness drives the Directory's protocol paths directly with fake
// blades, without the full core cluster.
type protoHarness struct {
	eng    *sim.Engine
	fab    *fabric.Fabric
	asic   *switchasic.ASIC
	dir    *Directory
	col    *stats.Collector
	blades []*fakeBlade
}

// fakeBlade records invalidations and ACKs immediately (optionally with
// synthetic flush counts).
type fakeBlade struct {
	h        *protoHarness
	id       int
	invs     []Invalidation
	dirtyFor map[mem.VA]int // region base -> dirty pages to report
	holdAcks bool
	pending  []func()
}

func (b *fakeBlade) HandleInvalidation(inv Invalidation, ack func(AckInfo)) {
	b.invs = append(b.invs, inv)
	respond := func() {
		var info AckInfo
		if n, ok := b.dirtyFor[inv.Region.Base]; ok {
			info.FlushedDirty = n
			info.FalseInvals = n - 1
			if info.FalseInvals < 0 {
				info.FalseInvals = 0
			}
		}
		ack(info)
	}
	if b.holdAcks {
		b.pending = append(b.pending, respond)
		return
	}
	respond()
}

func (b *fakeBlade) releaseAcks() {
	for _, f := range b.pending {
		f()
	}
	b.pending = nil
}

func newProtoHarness(t *testing.T, blades int, slotCap int) *protoHarness {
	t.Helper()
	h := &protoHarness{eng: sim.NewEngine(), col: stats.NewCollector()}
	h.fab = fabric.New(h.eng, fabric.DefaultConfig())
	for i := 0; i < blades; i++ {
		h.fab.AddNode(fabric.NodeID(i))
	}
	h.fab.AddNode(fabric.MemNodeBase)
	h.asic = switchasic.New(switchasic.Config{SlotCapacity: slotCap})
	ports := make([]int, blades)
	for i := range ports {
		ports[i] = i
	}
	h.asic.SetGroup(ctrlplane.InvalidationGroup, ports)
	h.dir = NewDirectory(Config{InitialRegionSize: 16 << 10, TopLevelSize: 2 << 20}, Deps{
		Engine:    h.eng,
		Fabric:    h.fab,
		ASIC:      h.asic,
		Collector: h.col,
		Translate: func(mem.VA) (ctrlplane.BladeID, error) { return 0, nil },
		Protect: func(pdid mem.PDID, va mem.VA, want mem.Perm) error {
			if pdid == 999 {
				return ctrlplane.ErrPermission
			}
			return nil
		},
		MemFetch: memFetchVia(h.eng, h.fab, fabric.MemNodeBase),
	})
	for i := 0; i < blades; i++ {
		fb := &fakeBlade{h: h, id: i, dirtyFor: map[mem.VA]int{}}
		h.blades = append(h.blades, fb)
		h.dir.RegisterBlade(i, fb)
	}
	return h
}

// memFetchVia is the page fetch of a single-switch rack whose memory
// blade sits at fabric node node: the request out, the blade's DMA, the
// page back.
func memFetchVia(eng *sim.Engine, fab *fabric.Fabric, node fabric.NodeID) func(ctrlplane.BladeID, func(any), any) {
	return func(_ ctrlplane.BladeID, fn func(any), arg any) {
		fab.SendFromSwitchArg(node, fabric.CtrlMsgBytes, func(any) {
			eng.ScheduleArg(fab.MemDMA(), func(any) {
				fab.SendToSwitchArg(node, fabric.PageBytes, fn, arg)
			}, nil)
		}, nil)
	}
}

// request issues a page request and runs the sim until completion.
func (h *protoHarness) request(t *testing.T, blade int, va mem.VA, want mem.Perm) Completion {
	t.Helper()
	var out Completion
	fired := false
	h.dir.RequestPage(blade, 1, va, want, func(c Completion) { out = c; fired = true })
	h.eng.Run()
	if !fired {
		t.Fatalf("request (blade %d, %#x, %v) never completed", blade, uint64(va), want)
	}
	return out
}

func TestProtocolTransitionSequence(t *testing.T) {
	h := newProtoHarness(t, 3, 100)
	va := mem.VA(0x100000)

	c := h.request(t, 0, va, mem.PermRead)
	if c.Transition != "I->S" || c.Writable || c.Invalidations != 0 {
		t.Errorf("first read: %+v", c)
	}
	c = h.request(t, 1, va, mem.PermRead)
	if c.Transition != "S->S" || c.Invalidations != 0 {
		t.Errorf("second read: %+v", c)
	}
	c = h.request(t, 0, va, mem.PermReadWrite)
	if c.Transition != "S->M" || !c.Writable || c.Invalidations != 1 {
		t.Errorf("upgrade: %+v", c)
	}
	// Blade 1 got exactly one invalidation, non-downgrade.
	if len(h.blades[1].invs) != 1 || h.blades[1].invs[0].Downgrade {
		t.Errorf("blade 1 invs: %+v", h.blades[1].invs)
	}
	// Blade 2 (never a sharer) must see nothing — egress pruning.
	if len(h.blades[2].invs) != 0 {
		t.Error("non-sharer received invalidation copies")
	}
	c = h.request(t, 2, va, mem.PermRead)
	if c.Transition != "M->S" || c.Invalidations != 1 {
		t.Errorf("downgrade read: %+v", c)
	}
	if len(h.blades[0].invs) != 1 || !h.blades[0].invs[0].Downgrade {
		t.Errorf("owner should get a downgrade: %+v", h.blades[0].invs)
	}
	c = h.request(t, 1, va, mem.PermReadWrite)
	if c.Transition != "S->M" || c.Invalidations != 2 {
		t.Errorf("write over two sharers: %+v", c)
	}
	c = h.request(t, 0, va, mem.PermReadWrite)
	if c.Transition != "M->M" || c.Invalidations != 1 {
		t.Errorf("ownership transfer: %+v", c)
	}
}

func TestProtocolOwnerReaccess(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	va := mem.VA(0x200000)
	h.request(t, 0, va, mem.PermReadWrite)
	// The owner faulting another page of its own region needs no
	// invalidations and stays writable.
	c := h.request(t, 0, va+mem.PageSize, mem.PermReadWrite)
	if c.Transition != "M->M(own)" || c.Invalidations != 0 || !c.Writable {
		t.Errorf("owner reaccess: %+v", c)
	}
	c = h.request(t, 0, va+2*mem.PageSize, mem.PermRead)
	if c.Transition != "M->M(own)" || !c.Writable {
		t.Errorf("owner read keeps write grant: %+v", c)
	}
}

// TestExclusiveWriteColdStillIM: a write to an untracked region is
// granted I->M and arrives writable.
func TestExclusiveWriteColdStillIM(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	c := h.request(t, 0, 0x400000, mem.PermReadWrite)
	if c.Transition != "I->M" || !c.Writable {
		t.Errorf("cold write: %+v", c)
	}
}

// TestProtocolReadThenWriteFaultCount: a private read-then-write sweep
// over 16 pages pays one upgrade per 16 KB region. The first page of a
// region costs I->S + S->M; the upgrade makes the whole region owned,
// so the region's other 3 reads arrive writable. 16 pages = 4 regions:
// 16 reads + 4 upgrades = 20 remote accesses.
func TestProtocolReadThenWriteFaultCount(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	const pages = 16
	for i := 0; i < pages; i++ {
		va := mem.VA(0x300000 + i*mem.PageSize)
		c := h.request(t, 0, va, mem.PermRead)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if !c.Writable {
			if c := h.request(t, 0, va, mem.PermReadWrite); c.Err != nil {
				t.Fatal(c.Err)
			}
		}
	}
	if n := h.col.Counter(stats.CtrRemoteAccesses); n != 20 {
		t.Errorf("remote accesses = %d, want 20", n)
	}
}

func TestProtocolRegionGranularityInvalidation(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	base := mem.VA(0x300000) // 16KB region covers 4 pages
	h.request(t, 0, base, mem.PermReadWrite)
	// Blade 0 reports 3 dirty pages in the region when invalidated.
	region, err := h.dir.Lookup(base)
	if err != nil {
		t.Fatal(err)
	}
	h.blades[0].dirtyFor[region.Base] = 3
	c := h.request(t, 1, base+mem.PageSize, mem.PermRead)
	if c.Transition != "M->S" {
		t.Fatalf("transition: %+v", c)
	}
	if h.col.Counter(stats.CtrFlushedPages) != 3 {
		t.Errorf("flushed = %d, want 3", h.col.Counter(stats.CtrFlushedPages))
	}
	if h.col.Counter(stats.CtrFalseInvals) != 2 {
		t.Errorf("false invals = %d, want 2", h.col.Counter(stats.CtrFalseInvals))
	}
	// The region's epoch counters carry the signal for bounded splitting.
	st := epochStats(h.dir)
	var found bool
	for _, r := range st {
		if r.Base == region.Base {
			found = true
			if r.FalseInvals != 2 || r.Invalidations != 1 {
				t.Errorf("region stats: %+v", r)
			}
		}
	}
	if !found {
		t.Error("region missing from epoch stats")
	}
}

func TestProtocolWaiterSerialization(t *testing.T) {
	h := newProtoHarness(t, 4, 100)
	va := mem.VA(0x400000)
	// Blade 0 takes ownership; then hold blade 0's ACKs so the next
	// transition stalls mid-flight.
	h.request(t, 0, va, mem.PermReadWrite)
	h.blades[0].holdAcks = true

	var completions []int
	for b := 1; b <= 3; b++ {
		b := b
		h.dir.RequestPage(b, 1, va, mem.PermReadWrite, func(c Completion) {
			completions = append(completions, b)
		})
	}
	h.eng.Run()
	if len(completions) != 0 {
		t.Fatalf("requests completed while ACK held: %v", completions)
	}
	// Release blade 0's ACK: blade 1's M->M completes; blades 2 and 3
	// serialize behind it (each invalidating the previous owner, whose
	// fake ACKs are immediate).
	h.blades[0].releaseAcks()
	h.eng.Run()
	if len(completions) != 3 {
		t.Fatalf("completions = %v", completions)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if completions[i] != want[i] {
			t.Errorf("FIFO violated: %v", completions)
		}
	}
	// Final owner is blade 3.
	r, _ := h.dir.Lookup(va)
	if r.State() != Modified || r.Owner() != 3 {
		t.Errorf("final region: %v", r)
	}
}

// TestProtocolWaiterQueueNeverDrains keeps one region's waiter queue
// non-empty for 20 000 conflicting writes: 8 blades each keep a write to
// every page of the region outstanding, reissuing it as it completes, so
// a transition finishing always finds another request parked. The queue's
// buffer must stay bounded by the queue's deepest point, not grow with the
// number of requests that have passed through it.
func TestProtocolWaiterQueueNeverDrains(t *testing.T) {
	const (
		blades = 8
		pages  = 4 // the 16 KiB initial region
		total  = 20000
	)
	h := newProtoHarness(t, blades, 100)
	va := mem.VA(0x400000)
	issued, completed := 0, 0
	var issue func(b int, page mem.VA)
	issue = func(b int, page mem.VA) {
		issued++
		h.dir.RequestPage(b, 1, page, mem.PermReadWrite, func(c Completion) {
			if c.Err != nil || c.Retry {
				t.Fatalf("blade %d page %#x: %+v", b, uint64(page), c)
			}
			completed++
			if issued < total {
				issue(b, page)
			}
		})
	}
	for b := 0; b < blades; b++ {
		for i := 0; i < pages; i++ {
			issue(b, va+mem.VA(i*mem.PageSize))
		}
	}
	r, err := h.dir.Lookup(va)
	if err != nil {
		t.Fatal(err)
	}
	peak, filled := 0, false
	for h.eng.Step() {
		n := int(r.nwait)
		if r.waiters != nil && r.waiters.Len() != n {
			t.Fatalf("waiter count %d, queue length %d", n, r.waiters.Len())
		}
		peak = max(peak, n)
		filled = filled || n > 0
		if filled && n == 0 && completed < total-blades*pages {
			t.Fatalf("queue drained after %d of %d completions", completed, total)
		}
	}
	if completed != total {
		t.Fatalf("completed %d of %d requests", completed, total)
	}
	if rr, _ := h.dir.Lookup(va); rr != r {
		t.Fatal("the region was replaced mid-run")
	}
	if c := r.waiters.Cap(); c > max(8, 2*peak) {
		t.Errorf("waiter queue capacity %d after %d requests, peak depth %d: want <= %d",
			c, total, peak, max(8, 2*peak))
	}
}

// TestRegionSize pins the directory entry at one 64-byte cache line,
// like a fixed-width entry in the switch's SRAM: the sharer set is one
// word in the entry, and the waiter queue sits behind a pointer with
// its length inline. A directory holds one per region, so a new field
// must fit without growing every entry.
func TestRegionSize(t *testing.T) {
	if got := unsafe.Sizeof(Region{}); got > 64 {
		t.Errorf("unsafe.Sizeof(Region{}) = %d, want <= 64", got)
	}
}

// TestSharerSetTopBit: on a 64-blade directory, blades 0 and 63 — the
// lowest and highest bits of the sharer word — share a region, and a
// write from blade 1 invalidates exactly those two.
func TestSharerSetTopBit(t *testing.T) {
	h := newProtoHarness(t, MaxBlades, 100)
	va := mem.VA(0xD00000)
	h.request(t, 63, va, mem.PermRead)
	h.request(t, 0, va, mem.PermRead)
	r, _ := h.dir.Lookup(va)
	if got := r.Sharers(); len(got) != 2 || got[0] != 0 || got[1] != 63 {
		t.Fatalf("sharers %v, want [0 63]", got)
	}
	c := h.request(t, 1, va, mem.PermReadWrite)
	if c.Transition != "S->M" || c.Invalidations != 2 {
		t.Fatalf("write from blade 1: %+v", c)
	}
	for _, b := range h.blades {
		want := 0
		if b.id == 0 || b.id == 63 {
			want = 1
		}
		if len(b.invs) != want {
			t.Errorf("blade %d received %d invalidations, want %d", b.id, len(b.invs), want)
		}
	}
	if r.State() != Modified || r.Owner() != 1 || r.sharers != sharerSet(1) {
		t.Errorf("after the write: %v, sharers %v", r, r.Sharers())
	}
}

// TestSharerSetBound: a sharer set holds blade ids 0..63, lists them
// ascending, and the directory refuses a blade id it cannot track.
func TestSharerSetBound(t *testing.T) {
	s := sharerSet(63, 5, 0, 31, 32)
	if got := s.AppendTo(nil); len(got) != 5 || got[0] != 0 || got[1] != 5 || got[2] != 31 || got[3] != 32 || got[4] != 63 {
		t.Errorf("members %v, want [0 5 31 32 63]", got)
	}
	if s.Count() != 5 || !s.Has(63) || s.Has(62) {
		t.Errorf("count %d, has 63 %v, has 62 %v", s.Count(), s.Has(63), s.Has(62))
	}
	h := newProtoHarness(t, 1, 100)
	for _, id := range []int{-1, MaxBlades} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterBlade(%d) accepted", id)
				}
			}()
			h.dir.RegisterBlade(id, h.blades[0])
		}()
	}
}

func TestProtocolDuplicateRequestDropped(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	va := mem.VA(0x500000)
	h.blades[1].holdAcks = true
	h.request(t, 1, va, mem.PermReadWrite) // blade 1 owns

	done := 0
	h.dir.RequestPage(0, 1, va, mem.PermReadWrite, func(Completion) { done++ })
	h.eng.Run()
	// Retransmission while the original is stalled: must be dropped.
	h.dir.RequestPage(0, 1, va, mem.PermReadWrite, func(Completion) { done++ })
	h.eng.Run()
	if done != 0 {
		t.Fatalf("done = %d while stalled", done)
	}
	h.blades[1].releaseAcks()
	h.eng.Run()
	if done != 1 {
		t.Errorf("done = %d, want exactly 1 (dup dropped)", done)
	}
}

func TestProtocolProtectionReject(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	var got Completion
	fired := false
	h.dir.RequestPage(0, 999, 0x600000, mem.PermRead, func(c Completion) { got = c; fired = true })
	h.eng.Run()
	if !fired || !errors.Is(got.Err, ctrlplane.ErrPermission) {
		t.Errorf("reject: fired=%v err=%v", fired, got.Err)
	}
	if h.col.Counter(stats.CtrRejected) != 1 {
		t.Errorf("rejected = %d", h.col.Counter(stats.CtrRejected))
	}
	// No region should have been created for a rejected request.
	if h.dir.RegionCount() != 0 {
		t.Error("rejected request created a region")
	}
}

func TestProtocolResetFailsWaitersWithRetry(t *testing.T) {
	h := newProtoHarness(t, 3, 100)
	va := mem.VA(0x700000)
	h.request(t, 0, va, mem.PermReadWrite)
	h.blades[0].holdAcks = true

	var results []Completion
	h.dir.RequestPage(1, 1, va, mem.PermReadWrite, func(c Completion) { results = append(results, c) })
	h.dir.RequestPage(2, 1, va, mem.PermReadWrite, func(c Completion) { results = append(results, c) })
	h.eng.Run()
	reg, _ := h.dir.Lookup(va)
	if reg.nwait != 1 {
		t.Fatalf("%d waiters before the reset, want 1", reg.nwait)
	}

	resetDone := false
	h.dir.ResetRegion(va, func() { resetDone = true })
	h.eng.Run()
	// The waiters bounce with Retry immediately, before the flush ACKs,
	// and leave the region's queue: none is answered twice or kept.
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if reg.nwait != 0 || reg.waiters.Len() != 0 {
		t.Errorf("after the reset the region counts %d waiters and queues %d", reg.nwait, reg.waiters.Len())
	}
	for _, r := range results {
		if !r.Retry {
			t.Errorf("waiter result should be Retry: %+v", r)
		}
	}
	// Blade 0 is holding its ACKs (including the reset's): the reset
	// cannot finish until it responds.
	if resetDone {
		t.Fatal("reset completed without the blade's flush ACK")
	}
	h.blades[0].releaseAcks()
	h.eng.Run()
	if !resetDone {
		t.Fatal("reset never completed")
	}
	// The entry is gone; a fresh request starts from Invalid.
	if h.dir.RegionCount() != 0 {
		t.Errorf("regions = %d after reset", h.dir.RegionCount())
	}
	c := h.request(t, 1, va, mem.PermReadWrite)
	if c.Transition != "I->M" {
		t.Errorf("post-reset transition: %+v", c)
	}
}

func TestProtocolRequestDuringResetBounces(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	va := mem.VA(0x800000)
	h.request(t, 0, va, mem.PermReadWrite)
	// Hold the reset's blade ACKs so the resetting window stays open.
	h.blades[0].holdAcks = true
	h.blades[1].holdAcks = true
	h.dir.ResetRegion(va, func() {})
	h.eng.RunUntil(h.eng.Now().Add(50 * sim.Microsecond))

	var got Completion
	fired := false
	h.dir.RequestPage(1, 1, va, mem.PermRead, func(c Completion) { got = c; fired = true })
	h.eng.Run()
	if !fired || !got.Retry {
		t.Errorf("request during reset: fired=%v %+v", fired, got)
	}
	h.blades[0].releaseAcks()
	h.blades[1].releaseAcks()
	h.eng.Run()
}

// TestProtocolSecondResetSparesNewerRegion: a reset issued on a region
// that is already resetting must not, when it completes, remove the
// fresh region a request built after the first reset finished. The
// second reset's removal used to look the region up by base alone and
// delete the newer entry, leaving blade 1 granted a page the directory
// no longer tracked.
func TestProtocolSecondResetSparesNewerRegion(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	va := mem.VA(0xC00000)
	h.request(t, 0, va, mem.PermRead)
	rtt := h.fab.Config().CtrlRTT
	start := h.eng.Now()
	first, second := false, false
	h.dir.ResetRegion(va, func() { first = true })
	h.eng.RunUntil(start.Add(rtt * 9 / 10))
	h.dir.ResetRegion(va, func() { second = true })
	h.eng.RunUntil(start.Add(rtt))
	if !first || second {
		t.Fatalf("at one CtrlRTT: first reset done %v, second %v; want true, false", first, second)
	}
	var got Completion
	h.dir.RequestPage(1, 1, va, mem.PermRead, func(c Completion) { got = c })
	h.eng.Run()
	if !second || got.Retry || got.Err != nil {
		t.Fatalf("second reset done %v; blade 1's read after the first reset: %+v", second, got)
	}
	r, err := h.dir.Lookup(va)
	if err != nil {
		t.Fatal("the second reset removed the region blade 1 was granted a page of")
	}
	if !r.sharers.Has(1) {
		t.Errorf("region %v lost blade 1 from its sharers", r)
	}
}

func TestProtocolMulticastAccounting(t *testing.T) {
	h := newProtoHarness(t, 8, 100)
	va := mem.VA(0x900000)
	for b := 0; b < 8; b++ {
		h.request(t, b, va, mem.PermRead)
	}
	h.request(t, 0, va, mem.PermReadWrite) // invalidates 7 sharers
	_, mc, pruned, delivered := h.asic.Accounting()
	if mc != 1 {
		t.Errorf("multicasts = %d", mc)
	}
	if delivered != 7 || pruned != 1 {
		t.Errorf("delivered=%d pruned=%d, want 7/1", delivered, pruned)
	}
	if h.col.Counter(stats.CtrInvalidations) != 7 {
		t.Errorf("invalidations = %d", h.col.Counter(stats.CtrInvalidations))
	}
}

func TestProtocolDistinctRegionsIndependent(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	// Two pages in different regions: transitions do not serialize.
	a, b := mem.VA(0xA00000), mem.VA(0xA00000+64<<10)
	h.blades[0].holdAcks = true
	h.request(t, 0, a, mem.PermReadWrite)
	h.request(t, 0, b, mem.PermReadWrite)

	doneB := false
	h.dir.RequestPage(1, 1, b, mem.PermReadWrite, func(Completion) { doneB = true })
	h.eng.Run()
	// Region A is idle, region B's transition needs blade 0's ACK...
	if doneB {
		t.Fatal("B completed with ACK held")
	}
	h.blades[0].releaseAcks()
	h.eng.Run()
	if !doneB {
		t.Fatal("B never completed")
	}
	// Meanwhile region A remains owned by blade 0.
	ra, _ := h.dir.Lookup(a)
	if ra.State() != Modified || ra.Owner() != 0 {
		t.Errorf("region A disturbed: %v", ra)
	}
}

func TestProtocolEpochStatsSorted(t *testing.T) {
	h := newProtoHarness(t, 2, 100)
	for i := 0; i < 5; i++ {
		h.request(t, 0, mem.VA(0xB00000+i*64<<10), mem.PermRead)
	}
	st := epochStats(h.dir)
	if !sort.SliceIsSorted(st, func(i, j int) bool { return st[i].Base < st[j].Base }) {
		t.Error("EachRegion not in ascending base order")
	}
	if len(st) != 5 {
		t.Errorf("regions = %d", len(st))
	}
}
