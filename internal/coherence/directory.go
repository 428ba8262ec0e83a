package coherence

import (
	"fmt"

	"mind/internal/bitset"
	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
	"mind/internal/switchasic"
)

// Invalidation is the message multicast to compute blades when a region
// transition requires revoking cached copies (§4.3.2).
type Invalidation struct {
	// Region is the address range to invalidate.
	Region mem.Range
	// Requested is the page whose fault triggered the invalidation; dirty
	// pages other than it count as false invalidations (§4.3.1).
	Requested mem.VA
	// Downgrade selects M→S semantics: flush dirty pages but keep copies
	// read-only. Otherwise copies are dropped entirely.
	Downgrade bool
	// Reset marks the §4.4 recovery path: flush and drop unconditionally.
	Reset bool
	// Requester is the blade whose request triggered this.
	Requester int
}

// AckInfo is a sharer's response to an invalidation.
type AckInfo struct {
	Blade        int
	FlushedDirty int // dirty pages written back to the memory blade
	FalseInvals  int // flushed dirty pages other than the requested one
	Dropped      int // clean copies discarded
	QueueDelay   sim.Duration
	TLBTime      sim.Duration
}

// BladePort is the compute-blade side of the protocol: the switch
// delivers invalidations through it. Implementations must eventually call
// ack exactly once.
type BladePort interface {
	HandleInvalidation(inv Invalidation, ack func(AckInfo))
}

// Completion reports the outcome of a page request back to the faulting
// blade.
type Completion struct {
	// Err is non-nil when the data plane rejected the request
	// (protection or translation failure).
	Err error
	// Retry indicates the region was reset mid-transition (§4.4); the
	// blade should reissue the fault.
	Retry bool
	// Writable reports whether the page may be mapped read-write.
	Writable bool
	// Transition is the directory transition taken, e.g. "S->M".
	Transition string
	// Invalidations is the number of sharers invalidated.
	Invalidations int
	// InvQueue and InvTLB are the largest queueing delay and TLB
	// shootdown time among the invalidated sharers on this request's
	// critical path (Figure 7 right components).
	InvQueue sim.Duration
	InvTLB   sim.Duration
}

// Config parameterizes the directory.
type Config struct {
	// InitialRegionSize is the granularity at which directory entries are
	// first created; the paper's default is 16 KB (§5.2 "From theory to
	// practice").
	InitialRegionSize uint64
	// TopLevelSize is the maximum region size M·4KB (default 2 MB).
	TopLevelSize uint64
	// SequentialInvalidation disables the switch's native multicast and
	// sends invalidations one by one, each waiting for the previous ACK —
	// the ablation for §4.3.2's multicast design choice.
	SequentialInvalidation bool
	// ExclusiveOnColdRead enables a MESI-style Exclusive grant (§8
	// "Other coherence protocols"): a cold read with no other sharers is
	// granted write permission immediately, eliminating the later S→M
	// upgrade fault for private read-then-write patterns. The directory
	// tracks the region as owned (E behaves like M thereafter: a second
	// reader pays the serial flush-downgrade instead of the cheap S→S).
	// The materialized state-transition table grows accordingly.
	ExclusiveOnColdRead bool
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{InitialRegionSize: 16 << 10, TopLevelSize: 2 << 20}
}

type reqKey struct {
	blade int
	page  mem.VA
	want  mem.Perm
}

// pending is one in-flight or queued page request. The directory and
// region fields let the whole request pipeline run on pre-bound
// package-level continuations (pendExec, pendAtSwitch, ...) instead of
// per-hop closures. Pendings are pooled: a request that completes
// normally (notifyComplete/failPending with every expected ACK counted)
// has no surviving references — the fetch chain has ended at the blade,
// every ackCtx has been recycled, and the inFlight entry is deleted — so
// the object returns to the directory's free list. Requests abandoned by
// a §4.4 reset or wedged by message loss are never recycled (their
// callbacks may still hold the pointer); they are simply garbage.
type pending struct {
	d    *Directory
	key  reqKey
	pdid mem.PDID
	va   mem.VA
	done func(Completion)

	// Transition bookkeeping.
	region       *Region
	inv          Invalidation
	transition   string
	needAcks     int
	acksForFetch bool // serial M→X path: fetch only after acks
	dataAtBlade  bool
	invQueue     sim.Duration
	invTLB       sim.Duration
	invCount     int
	writable     bool
	notified     bool
}

// ackCtx carries one sharer's invalidation ACK back through the fabric.
// Contexts are pooled on the directory; onAck is bound once per object.
type ackCtx struct {
	d    *Directory
	p    *pending
	to   fabric.NodeID
	info AckInfo
	// onAck is handed to BladePort.HandleInvalidation; it records the
	// AckInfo and sends the ACK sharer -> switch.
	onAck func(AckInfo)
}

// Directory is the in-network cache directory plus protocol engine. All
// methods must be called from simulation event context (single-threaded).
type Directory struct {
	eng  *sim.Engine
	fab  *fabric.Fabric
	asic *switchasic.ASIC
	col  *stats.Collector
	cfg  Config

	translate func(mem.VA) (ctrlplane.BladeID, error)
	protect   func(mem.PDID, mem.VA, mem.Perm) error
	memFetch  func(ctrlplane.BladeID, func(any), any)
	bladeNode func(int) fabric.NodeID

	// blades is indexed by blade ID (dense; the control plane numbers
	// compute blades 0..N-1).
	blades []BladePort

	// rt is the block-indexed region table (see blockTable).
	rt       *blockTable
	inFlight map[reqKey]*pending

	// frozen lists address ranges under live migration: requests inside
	// them bounce with Retry until the mover unfreezes (the per-area
	// blackout of a drain). freezeAll is the switch-failover blackout —
	// every request bounces while the backup data plane is built.
	frozen    []mem.Range
	freezeAll bool

	// Hot-path scratch and pools (single-threaded engine context).
	ackFree  sim.Pool[ackCtx]
	pendFree sim.Pool[pending]
	// invTargets is the scratch sharer bitmap of the transition being
	// executed; it feeds the ASIC's egress-pruning intersection
	// directly.
	invTargets   bitset.Set
	scratchPorts []int
	scratchNodes []fabric.NodeID
	// regSlab hands out Region objects in 256-entry slabs: directory
	// entries are created in working-set-sized bursts (one per touched
	// initial region), so slab allocation keeps entry creation off the
	// per-object allocator.
	regSlab []Region

	// Pre-resolved stats handles.
	hRemote     stats.Handle
	hRejected   stats.Handle
	hStalls     stats.Handle
	hRecirc     stats.Handle
	hMulticasts stats.Handle
	hInvals     stats.Handle
	hFlushed    stats.Handle
	hFalseInv   stats.Handle
	hSplits     stats.Handle
	hMerges     stats.Handle
	hResets     stats.Handle
}

// Deps bundles the directory's external hooks, wired by the core package.
type Deps struct {
	Engine    *sim.Engine
	Fabric    *fabric.Fabric
	ASIC      *switchasic.ASIC
	Collector *stats.Collector
	// Translate resolves a VA to its memory blade (data-plane TCAM).
	Translate func(mem.VA) (ctrlplane.BladeID, error)
	// Protect performs the data-plane permission check.
	Protect func(mem.PDID, mem.VA, mem.Perm) error
	// BladeNode maps a compute blade identity to its fabric endpoint.
	BladeNode func(int) fabric.NodeID
	// MemFetch (required) performs the full switch -> home blade ->
	// switch round trip of a page fetch (64 B request out, NIC-only DMA
	// at the blade, 4 KB response back) and fires fn(arg) when the
	// response is ready at the requester's switch. core wires it so
	// borrowed (remote-homed) blades are reached through the owning
	// rack's switch over the pod interconnect — as one fused round trip,
	// which keeps every intermediate hop on the owning rack's shard under
	// the parallel executor.
	MemFetch func(id ctrlplane.BladeID, fn func(any), arg any)
}

// NewDirectory builds the directory.
func NewDirectory(cfg Config, d Deps) *Directory {
	if cfg.InitialRegionSize == 0 {
		cfg.InitialRegionSize = 16 << 10
	}
	if cfg.TopLevelSize == 0 {
		cfg.TopLevelSize = 2 << 20
	}
	if !mem.IsPow2(cfg.InitialRegionSize) || !mem.IsPow2(cfg.TopLevelSize) ||
		cfg.InitialRegionSize < mem.PageSize || cfg.TopLevelSize < cfg.InitialRegionSize {
		panic(fmt.Sprintf("coherence: bad region config %+v", cfg))
	}
	return &Directory{
		eng:       d.Engine,
		fab:       d.Fabric,
		asic:      d.ASIC,
		col:       d.Collector,
		cfg:       cfg,
		translate: d.Translate,
		protect:   d.Protect,
		memFetch:  d.MemFetch,
		bladeNode: d.BladeNode,
		rt:        newBlockTable(cfg.TopLevelSize),
		inFlight:  make(map[reqKey]*pending),

		hRemote:     d.Collector.Handle(stats.CtrRemoteAccesses),
		hRejected:   d.Collector.Handle(stats.CtrRejected),
		hStalls:     d.Collector.Handle(stats.CtrMigrationStalls),
		hRecirc:     d.Collector.Handle(stats.CtrRecirculations),
		hMulticasts: d.Collector.Handle(stats.CtrMulticasts),
		hInvals:     d.Collector.Handle(stats.CtrInvalidations),
		hFlushed:    d.Collector.Handle(stats.CtrFlushedPages),
		hFalseInv:   d.Collector.Handle(stats.CtrFalseInvals),
		hSplits:     d.Collector.Handle(stats.CtrSplits),
		hMerges:     d.Collector.Handle(stats.CtrMerges),
		hResets:     d.Collector.Handle(stats.CtrResets),
	}
}

// RegisterBlade attaches a compute blade's invalidation port.
func (d *Directory) RegisterBlade(id int, port BladePort) {
	for id >= len(d.blades) {
		d.blades = append(d.blades, nil)
	}
	d.blades[id] = port
}

// bladePort returns the registered port for a blade, or nil.
func (d *Directory) bladePort(id int) BladePort {
	if id < 0 || id >= len(d.blades) {
		return nil
	}
	return d.blades[id]
}

// Lookup returns the region containing va, if any.
func (d *Directory) Lookup(va mem.VA) (*Region, error) {
	if r := d.rt.lookup(va); r != nil {
		return r, nil
	}
	return nil, ErrNoRegion
}

// lookupOrCreate returns the region covering va, creating one at the
// configured initial size on first touch (§6.3 "MIND creates a directory
// entry for a region during its allocation"). If the initial size would
// overlap finer existing regions, the creation size shrinks until it
// fits.
func (d *Directory) lookupOrCreate(va mem.VA) (*Region, error) {
	if r := d.rt.lookup(va); r != nil {
		return r, nil
	}
	size := d.cfg.InitialRegionSize
	for ; size >= mem.PageSize; size /= 2 {
		base := mem.AlignDown(va, size)
		if !d.rt.overlaps(base, size) {
			return d.createRegion(base, size)
		}
	}
	return nil, fmt.Errorf("coherence: cannot place region for %#x", uint64(va))
}

// allocRegion takes a zeroed Region from the slab. Slab entries are
// never returned individually; removed regions (munmap/reset) simply
// drop out of the table.
func (d *Directory) allocRegion() *Region {
	if len(d.regSlab) == 0 {
		d.regSlab = make([]Region, 256)
	}
	r := &d.regSlab[0]
	d.regSlab = d.regSlab[1:]
	return r
}

// errDirectoryFull is createRegion's failure, built once: a capped
// directory under pressure returns it on a large share of its accesses.
var errDirectoryFull = fmt.Errorf("coherence: directory slots exhausted and nothing mergeable: %w", switchasic.ErrSlotsFull)

func (d *Directory) createRegion(base mem.VA, size uint64) (*Region, error) {
	slot, err := d.asic.Directory.Alloc()
	if err != nil {
		// Capacity pressure: coarsen the coldest buddy pair anywhere and
		// retry once (the control plane's merge path, compressed into the
		// moment of need).
		if !d.emergencyMerge() {
			return nil, errDirectoryFull
		}
		slot, err = d.asic.Directory.Alloc()
		if err != nil {
			return nil, err
		}
	}
	r := d.allocRegion()
	r.Base, r.Size, r.state, r.slot = base, size, Invalid, int(slot)
	d.rt.insert(r)
	return r, nil
}

// newPending takes a request context from the free list (or allocates
// one) and initializes it.
func (d *Directory) newPending(key reqKey, pdid mem.PDID, done func(Completion)) *pending {
	p := d.pendFree.Get()
	if p == nil {
		p = &pending{d: d}
	}
	p.key, p.pdid, p.va, p.done = key, pdid, key.page, done
	p.region = nil
	p.inv = Invalidation{}
	p.transition = ""
	p.needAcks, p.invCount = 0, 0
	p.acksForFetch, p.dataAtBlade, p.writable, p.notified = false, false, false, false
	p.invQueue, p.invTLB = 0, 0
	return p
}

// recycle returns a quiescent pending to the pool: every expected ACK
// arrived (needAcks == 0) and the caller just delivered the final
// completion, so nothing in the engine still references it. Requests
// with outstanding ACKs (lost messages) or abandoned by a reset keep the
// object alive as garbage instead.
func (d *Directory) recycle(p *pending) {
	if p.needAcks != 0 {
		return
	}
	p.done = nil
	p.region = nil
	p.inv = Invalidation{}
	d.pendFree.Put(p)
}

// RequestPage is the data-plane entry point: a compute blade's page-fault
// RDMA request has arrived at the switch. The directory performs the
// protection check, the region transition (with a recirculation, §6.3),
// any invalidations, the memory fetch, and finally delivers the response
// to the blade. done runs at the faulting blade when the page (or an
// error) arrives.
func (d *Directory) RequestPage(blade int, pdid mem.PDID, va mem.VA, want mem.Perm, done func(Completion)) {
	page := mem.PageBase(va)
	key := reqKey{blade: blade, page: page, want: want}
	if _, dup := d.inFlight[key]; dup {
		// Retransmission of a request we are already serving (§4.4):
		// drop the duplicate.
		return
	}

	// Data-plane permission check (§4.2), in the same pipeline pass.
	if err := d.protect(pdid, va, want); err != nil {
		d.col.IncH(d.hRejected, 1)
		d.fab.SendFromSwitch(d.bladeNode(blade), fabric.CtrlMsgBytes, func() {
			done(Completion{Err: err})
		})
		return
	}

	if d.freezeAll || d.isFrozen(page) {
		// The page's home is mid-migration (or the switch is failing
		// over): bounce with Retry, exactly like a §4.4 reset. No pending
		// entry is created, so retransmissions bounce individually.
		d.col.IncH(d.hStalls, 1)
		d.fab.SendFromSwitch(d.bladeNode(blade), fabric.CtrlMsgBytes, func() {
			done(Completion{Retry: true})
		})
		return
	}

	p := d.newPending(key, pdid, done)
	d.inFlight[key] = p
	d.col.IncH(d.hRemote, 1)

	region, err := d.lookupOrCreate(page)
	if err != nil {
		delete(d.inFlight, key)
		d.recycle(p)
		d.fab.SendFromSwitch(d.bladeNode(blade), fabric.CtrlMsgBytes, func() {
			done(Completion{Err: err})
		})
		return
	}
	if region.resetting {
		// A §4.4 reset is tearing this entry down; tell the blade to
		// retry once the reset completes.
		delete(d.inFlight, key)
		d.recycle(p)
		d.fab.SendFromSwitch(d.bladeNode(blade), fabric.CtrlMsgBytes, func() {
			done(Completion{Retry: true})
		})
		return
	}
	if region.busy {
		region.pushWaiter(p)
		return
	}
	d.startTransition(region, p)
}

// startTransition claims the region and performs the state transition via
// the two-MAU + recirculation pattern (§6.3, Figure 4).
func (d *Directory) startTransition(r *Region, p *pending) {
	r.busy = true
	p.region = r
	d.asic.Recirculated()
	d.col.IncH(d.hRecirc, 1)
	d.fab.RecirculateArg(pendExec, p)
}

// Pre-bound request-pipeline continuations: the pending carries all hop
// state, so the steady-state fault path schedules no closures.
func pendExec(x any) {
	p := x.(*pending)
	p.d.executeTransition(p.region, p)
}

func (d *Directory) executeTransition(r *Region, p *pending) {
	blade := p.key.blade
	write := p.key.want == mem.PermReadWrite

	// The transition's invalidation targets, as a bitmap the egress
	// pruning consumes directly.
	tg := &d.invTargets
	tg.Clear()
	downgrade := false

	switch {
	case !write && r.state == Invalid && d.cfg.ExclusiveOnColdRead:
		p.transition = "I->E"
		r.state = Modified // E is tracked as owned; see Config docs
		r.owner = blade
		r.sharers.Clear()
		r.sharers.Add(blade)
		p.writable = true
	case !write && r.state == Invalid:
		p.transition = "I->S"
		r.state = Shared
		r.sharers.Add(blade)
	case !write && r.state == Shared:
		p.transition = "S->S"
		r.sharers.Add(blade)
	case !write && r.state == Modified && r.owner == blade:
		p.transition = "M->M(own)"
		p.writable = true
	case !write && r.state == Modified:
		p.transition = "M->S"
		owner := r.owner
		tg.Add(owner)
		downgrade = true
		r.state = Shared
		r.sharers.Clear()
		r.sharers.Add(owner)
		r.sharers.Add(blade)
	case write && r.state == Invalid:
		p.transition = "I->M"
		r.state = Modified
		r.owner = blade
		r.sharers.Clear()
		r.sharers.Add(blade)
		p.writable = true
	case write && r.state == Shared:
		p.transition = "S->M"
		tg.CopyFrom(&r.sharers)
		tg.Remove(blade)
		r.state = Modified
		r.owner = blade
		r.sharers.Clear()
		r.sharers.Add(blade)
		p.writable = true
	case write && r.state == Modified && r.owner == blade:
		p.transition = "M->M(own)"
		p.writable = true
	case write && r.state == Modified:
		p.transition = "M->M"
		tg.Add(r.owner)
		r.state = Modified
		r.owner = blade
		r.sharers.Clear()
		r.sharers.Add(blade)
		p.writable = true
	}
	n := tg.Count()
	p.invCount = n
	p.needAcks = n
	// M→X transitions must flush the old owner before the memory fetch;
	// S→M invalidations proceed in parallel with the fetch (§7.2).
	p.acksForFetch = n > 0 && (p.transition == "M->S" || p.transition == "M->M")

	if n > 0 {
		d.sendInvalidations(r, p, downgrade)
	}
	if !p.acksForFetch {
		d.fetchAndDeliver(r, p)
	}
}

// newAckCtx takes an ACK context from the free list (or allocates one)
// bound to (p, to).
func (d *Directory) newAckCtx(p *pending, to fabric.NodeID) *ackCtx {
	ctx := d.ackFree.Get()
	if ctx == nil {
		ctx = &ackCtx{d: d}
		ctx.onAck = func(info AckInfo) {
			// ACK travels sharer -> switch.
			ctx.info = info
			ctx.d.fab.SendToSwitchArg(ctx.to, fabric.CtrlMsgBytes, ackAtSwitch, ctx)
		}
	}
	ctx.p, ctx.to = p, to
	return ctx
}

// ackAtSwitch runs when a sharer's ACK reaches the switch; the context is
// recycled afterwards (HandleInvalidation calls ack exactly once, so no
// other reference survives).
func ackAtSwitch(x any) {
	ctx := x.(*ackCtx)
	d, p, info := ctx.d, ctx.p, ctx.info
	ctx.p = nil
	ctx.info = AckInfo{}
	d.ackFree.Put(ctx)
	d.handleAck(p.region, p, info)
}

// pendDeliverInv runs at a sharer when a multicast invalidation copy
// lands: deliver it to the blade port with a pooled ACK context.
func pendDeliverInv(x any, to fabric.NodeID) {
	p := x.(*pending)
	d := p.d
	bladeID := int(to)
	port := d.bladePort(bladeID)
	if port == nil {
		panic(fmt.Sprintf("coherence: invalidation to unregistered blade %d", bladeID))
	}
	d.col.IncH(d.hInvals, 1)
	port.HandleInvalidation(p.inv, d.newAckCtx(p, to).onAck)
}

// sendInvalidations multicasts an invalidation to the targets in
// d.invTargets. The packet is replicated to the whole compute-blade
// multicast group and pruned in egress to the sharer bitmap (§4.3.2).
func (d *Directory) sendInvalidations(r *Region, p *pending, downgrade bool) {
	ports, err := d.asic.PruneMulticastBitmap(d.scratchPorts, ctrlplane.InvalidationGroup, &d.invTargets)
	if err != nil {
		panic(fmt.Sprintf("coherence: multicast: %v", err))
	}
	d.scratchPorts = ports
	d.col.IncH(d.hMulticasts, 1)
	p.inv = Invalidation{
		Region:    r.Range(),
		Requested: p.va,
		Downgrade: downgrade,
		Requester: p.key.blade,
	}
	nodes := d.scratchNodes[:0]
	for _, pt := range ports {
		nodes = append(nodes, d.bladeNode(pt))
	}
	d.scratchNodes = nodes[:0]
	if !d.cfg.SequentialInvalidation {
		// MulticastFromSwitchArg reads nodes synchronously, so the
		// scratch buffer is safe to hand over.
		d.fab.MulticastFromSwitchArg(nodes, fabric.CtrlMsgBytes, pendDeliverInv, p)
		return
	}
	// Ablation: one unicast at a time, each waiting for the previous ACK.
	// This path keeps per-hop closures: it exists to measure the cost of
	// serial invalidation, not to be fast.
	seq := make([]fabric.NodeID, len(nodes))
	copy(seq, nodes)
	deliver := func(to fabric.NodeID, acked func()) {
		bladeID := int(to)
		port := d.bladePort(bladeID)
		if port == nil {
			panic(fmt.Sprintf("coherence: invalidation to unregistered blade %d", bladeID))
		}
		d.col.IncH(d.hInvals, 1)
		port.HandleInvalidation(p.inv, func(info AckInfo) {
			d.fab.SendToSwitch(to, fabric.CtrlMsgBytes, func() {
				d.handleAck(r, p, info)
				if acked != nil {
					acked()
				}
			})
		})
	}
	var next func(i int)
	next = func(i int) {
		if i >= len(seq) {
			return
		}
		to := seq[i]
		d.fab.SendFromSwitch(to, fabric.CtrlMsgBytes, func() {
			deliver(to, func() { next(i + 1) })
		})
	}
	next(0)
}

func (d *Directory) handleAck(r *Region, p *pending, info AckInfo) {
	r.falseInvals += uint64(info.FalseInvals)
	r.invalsEpoch++
	d.col.IncH(d.hFlushed, uint64(info.FlushedDirty))
	d.col.IncH(d.hFalseInv, uint64(info.FalseInvals))
	if p.notified {
		// The region was reset mid-transition (§4.4); the requester has
		// already been told to retry.
		return
	}
	if info.QueueDelay > p.invQueue {
		p.invQueue = info.QueueDelay
	}
	if info.TLBTime > p.invTLB {
		p.invTLB = info.TLBTime
	}
	p.needAcks--
	if p.needAcks > 0 {
		return
	}
	if p.acksForFetch {
		// Serial path: the flush has landed, memory is now fresh.
		d.fetchAndDeliver(r, p)
		return
	}
	// Parallel path: if the data already reached the blade, notify it
	// that exclusivity is established (the requester waits for ACKs,
	// §4.4).
	if p.dataAtBlade {
		d.notifyComplete(r, p)
	}
}

// fetchAndDeliver issues the one-sided RDMA read to the home memory blade
// and forwards the 4 KB response to the requester, rewriting headers
// (RDMA connection virtualization, §6.3). The round trip to the home
// blade runs behind the MemFetch hook; the remaining hops run on
// pre-bound continuations carried by the pending.
func (d *Directory) fetchAndDeliver(r *Region, p *pending) {
	home, err := d.translate(p.va)
	if err != nil {
		d.failPending(r, p, err)
		return
	}
	d.memFetch(home, pendAtSwitch, p)
}

// pendAtSwitch: the response is in the switch; forward it (with header
// rewrite) to the faulting blade.
func pendAtSwitch(x any) {
	p := x.(*pending)
	p.d.fab.SendFromSwitchArg(p.d.bladeNode(p.key.blade), fabric.PageBytes, pendAtBlade, p)
}

// pendAtBlade: the page arrived at the requester.
func pendAtBlade(x any) {
	p := x.(*pending)
	p.dataAtBlade = true
	if p.needAcks > 0 {
		return // still waiting on parallel ACKs
	}
	p.d.notifyComplete(p.region, p)
}

// notifyComplete finishes the request at the blade and releases the
// region for the next waiter.
func (d *Directory) notifyComplete(r *Region, p *pending) {
	if p.notified {
		return
	}
	p.notified = true
	delete(d.inFlight, p.key)
	p.done(Completion{
		Writable:      p.writable,
		Transition:    p.transition,
		Invalidations: p.invCount,
		InvQueue:      p.invQueue,
		InvTLB:        p.invTLB,
	})
	d.finish(r)
	d.recycle(p)
}

func (d *Directory) failPending(r *Region, p *pending, err error) {
	if p.notified {
		return
	}
	p.notified = true
	delete(d.inFlight, p.key)
	done := p.done
	d.fab.SendFromSwitch(d.bladeNode(p.key.blade), fabric.CtrlMsgBytes, func() {
		done(Completion{Err: err})
	})
	d.finish(r)
	d.recycle(p)
}

// finish releases the region and starts the next queued transition.
func (d *Directory) finish(r *Region) {
	r.busy = false
	next := r.popWaiter()
	if next == nil {
		return
	}
	d.startTransition(r, next)
}

// RegionCount returns the number of live directory entries.
func (d *Directory) RegionCount() int { return d.rt.count }
