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
}

// AckInfo is a sharer's response to an invalidation.
type AckInfo struct {
	FlushedDirty int // dirty pages written back to the memory blade
	FalseInvals  int // flushed dirty pages other than the requested one
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

// pending is one in-flight or queued page request for key.page. The
// directory and region fields let the whole request pipeline run on
// pre-bound package-level continuations (pendExec, pendAtSwitch, ...)
// instead of per-hop closures. Pendings are pooled: a request that
// completes normally (notifyComplete, or a failed fetch, with every
// expected ACK counted) has no surviving references — the fetch chain has
// ended at the blade, every ackCtx has been recycled, and the inFlight
// entry is deleted — so the object returns to the directory's free list.
// Requests abandoned by a §4.4 reset or wedged by message loss are never
// recycled (their callbacks may still hold the pointer); they are simply
// garbage.
type pending struct {
	d    *Directory
	key  reqKey
	pdid mem.PDID
	done func(Completion)

	// Transition bookkeeping. region is the region the transition
	// claimed (use claimed()), regionGen its identity at the claim.
	region       *Region
	regionGen    uint32
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

	// blades is indexed by blade ID (dense; the control plane numbers
	// compute blades 0..N-1), which is also the blade's fabric node.
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
	// invTargets is the scratch bitmap of the transition being
	// executed, its targets loaded as one word; it feeds the ASIC's
	// egress-pruning intersection directly.
	invTargets   bitset.Set
	scratchPorts []int
	scratchNodes []fabric.NodeID
	// regSlab hands out Region objects in 256-entry slabs: directory
	// entries are created in working-set-sized bursts (one per touched
	// initial region), so slab allocation keeps entry creation off the
	// per-object allocator. regFree holds removed regions nothing can
	// reach any more; they are reused before the slab is cut again, so a
	// slab does not stay reachable for one live member while the rest
	// of it is dead.
	regSlab []Region
	regFree sim.Pool[Region]

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

// NewDirectory builds the directory. Both region sizes must be powers
// of two with page <= InitialRegionSize <= TopLevelSize.
func NewDirectory(cfg Config, d Deps) *Directory {
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

// RegisterBlade attaches a compute blade's invalidation port. id must
// be below MaxBlades, the width of a sharer set; core's config check
// keeps a rack's compute blades within it.
func (d *Directory) RegisterBlade(id int, port BladePort) {
	if id < 0 || id >= MaxBlades {
		panic(fmt.Sprintf("coherence: blade id %d outside the %d-blade sharer set", id, MaxBlades))
	}
	for id >= len(d.blades) {
		d.blades = append(d.blades, nil)
	}
	d.blades[id] = port
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

// allocRegion takes a zeroed Region from the free list, else from the
// slab.
func (d *Directory) allocRegion() *Region {
	if r := d.regFree.Get(); r != nil {
		return r
	}
	if len(d.regSlab) == 0 {
		d.regSlab = make([]Region, 256)
	}
	r := &d.regSlab[0]
	d.regSlab = d.regSlab[1:]
	return r
}

// dropRegion takes r out of the table. It is recycled once nothing
// holds it (see Region.holds).
func (d *Directory) dropRegion(r *Region) {
	d.rt.remove(r.Base)
	r.dropped = true
	d.maybeRecycleRegion(r)
}

// unholdRegion releases one hold on r.
func (d *Directory) unholdRegion(r *Region) {
	r.holds--
	d.maybeRecycleRegion(r)
}

func (d *Directory) maybeRecycleRegion(r *Region) {
	if r.dropped && r.holds == 0 {
		// The waiter queue is empty here: a region with waiters is busy,
		// so a merge or removal refuses it, and a reset leaves it held
		// by the transition it abandoned. Keeping the queue saves the
		// next entry its allocation.
		*r = Region{gen: r.gen + 1, waiters: r.waiters}
		d.regFree.Put(r)
	}
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
	r.Base, r.Size, r.state, r.slot = base, size, Invalid, int32(slot)
	d.rt.insert(r)
	return r, nil
}

// newPending takes a request context from the free list (or allocates
// one) and initializes it.
func (d *Directory) newPending(key reqKey, pdid mem.PDID, done func(Completion)) *pending {
	p := d.pendFree.Get()
	if p == nil {
		p = new(pending)
	}
	*p = pending{d: d, key: key, pdid: pdid, done: done}
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
	if p.region != nil {
		d.unholdRegion(p.region)
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
		d.reply(blade, done, Completion{Err: err})
		return
	}

	if d.freezeAll || d.isFrozen(page) {
		// The page's home is mid-migration (or the switch is failing
		// over): bounce with Retry, exactly like a §4.4 reset. No pending
		// entry is created, so retransmissions bounce individually.
		d.col.IncH(d.hStalls, 1)
		d.reply(blade, done, Completion{Retry: true})
		return
	}

	p := d.newPending(key, pdid, done)
	d.inFlight[key] = p
	d.col.IncH(d.hRemote, 1)

	region, err := d.lookupOrCreate(page)
	if err != nil {
		d.bounce(p, Completion{Err: err})
		d.recycle(p)
		return
	}
	if region.resetting {
		// A §4.4 reset is tearing this entry down; tell the blade to
		// retry once the reset completes.
		d.bounce(p, Completion{Retry: true})
		d.recycle(p)
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
	r.holds++
	p.region, p.regionGen = r, r.gen
	d.asic.Recirculated()
	d.col.IncH(d.hRecirc, 1)
	d.fab.RecirculateArg(pendExec, p)
}

// Pre-bound request-pipeline continuations: the pending carries all hop
// state, so the steady-state fault path schedules no closures.
func pendExec(x any) {
	p := x.(*pending)
	p.d.executeTransition(p)
}

// claimed returns the region p's transition claimed. A region is recycled
// only when nothing holds it, so finding it under a newer identity means
// the hold accounting broke.
func (p *pending) claimed() *Region {
	r := p.region
	if r.gen != p.regionGen {
		panic(fmt.Sprintf("coherence: request for %#x reached a recycled region", uint64(p.key.page)))
	}
	return r
}

func (d *Directory) executeTransition(p *pending) {
	r := p.claimed()
	blade := p.key.blade
	write := p.key.want == mem.PermReadWrite

	// The transition's invalidation targets.
	var targets bladeSet
	downgrade := false

	// The owner keeps its region whatever it asks for; every other write
	// leaves the writer the region's sole owner. M→X transitions must
	// flush the old owner before the memory fetch; S→M invalidations
	// proceed in parallel with the fetch (§7.2).
	own := r.state == Modified && int(r.owner) == blade
	p.writable = write || own
	switch {
	case own:
		p.transition = "M->M(own)"
	case !write && r.state == Invalid:
		p.transition = "I->S"
		r.state = Shared
		r.sharers.Add(blade)
	case !write && r.state == Shared:
		p.transition = "S->S"
		r.sharers.Add(blade)
	case !write && r.state == Modified:
		p.transition = "M->S"
		owner := int(r.owner)
		targets = bladeOf(owner)
		downgrade = true
		p.acksForFetch = true
		r.state = Shared
		r.sharers = bladeOf(owner) | bladeOf(blade)
	case write && r.state == Invalid:
		p.transition = "I->M"
	case write && r.state == Shared:
		p.transition = "S->M"
		targets = r.sharers &^ bladeOf(blade)
	case write && r.state == Modified:
		p.transition = "M->M"
		targets = bladeOf(int(r.owner))
		p.acksForFetch = true
	}
	if write && !own {
		r.state, r.owner, r.sharers = Modified, int32(blade), bladeOf(blade)
	}
	n := targets.Count()
	p.invCount = n
	p.needAcks = n
	if n > 0 {
		d.invTargets.SetWord(uint64(targets))
		d.sendInvalidations(p, downgrade)
	}
	if !p.acksForFetch {
		d.fetchAndDeliver(p)
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
	d.handleAck(p, info)
}

// pendDeliverInv runs at a sharer when a multicast invalidation copy
// lands: deliver it to the blade port with a pooled ACK context.
func pendDeliverInv(x any, to fabric.NodeID) {
	p := x.(*pending)
	d := p.d
	var port BladePort
	if int(to) < len(d.blades) {
		port = d.blades[to]
	}
	if port == nil {
		panic(fmt.Sprintf("coherence: invalidation to unregistered blade %d", to))
	}
	d.col.IncH(d.hInvals, 1)
	port.HandleInvalidation(p.inv, d.newAckCtx(p, to).onAck)
}

// sendInvalidations multicasts an invalidation to the targets in
// d.invTargets. The packet is replicated to the whole compute-blade
// multicast group and pruned in egress to the sharer bitmap (§4.3.2).
func (d *Directory) sendInvalidations(p *pending, downgrade bool) {
	ports, err := d.asic.PruneMulticastBitmap(d.scratchPorts, ctrlplane.InvalidationGroup, &d.invTargets)
	if err != nil {
		panic(fmt.Sprintf("coherence: multicast: %v", err))
	}
	d.scratchPorts = ports
	d.col.IncH(d.hMulticasts, 1)
	p.inv = Invalidation{
		Region:    p.claimed().Range(),
		Requested: p.key.page,
		Downgrade: downgrade,
	}
	nodes := d.scratchNodes[:0]
	for _, pt := range ports {
		nodes = append(nodes, fabric.NodeID(pt))
	}
	d.scratchNodes = nodes[:0]
	// MulticastFromSwitchArg reads nodes synchronously, so the scratch
	// buffer is safe to hand over.
	d.fab.MulticastFromSwitchArg(nodes, fabric.CtrlMsgBytes, pendDeliverInv, p)
}

func (d *Directory) handleAck(p *pending, info AckInfo) {
	r := p.claimed()
	r.falseInvals = satAdd(r.falseInvals, uint32(info.FalseInvals))
	r.invalsEpoch = satAdd(r.invalsEpoch, 1)
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
		d.fetchAndDeliver(p)
		return
	}
	// Parallel path: if the data already reached the blade, notify it
	// that exclusivity is established (the requester waits for ACKs,
	// §4.4).
	if p.dataAtBlade {
		d.notifyComplete(p)
	}
}

// fetchAndDeliver issues the one-sided RDMA read to the home memory blade
// and forwards the 4 KB response to the requester, rewriting headers
// (RDMA connection virtualization, §6.3). The round trip to the home
// blade runs behind the MemFetch hook; the remaining hops run on
// pre-bound continuations carried by the pending. A page with no home
// fails the request and releases the region.
func (d *Directory) fetchAndDeliver(p *pending) {
	home, err := d.translate(p.key.page)
	if err != nil {
		if d.bounce(p, Completion{Err: err}) {
			d.finish(p.claimed())
			d.recycle(p)
		}
		return
	}
	d.memFetch(home, pendAtSwitch, p)
}

// pendAtSwitch: the response is in the switch; forward it (with header
// rewrite) to the faulting blade.
func pendAtSwitch(x any) {
	p := x.(*pending)
	p.d.fab.SendFromSwitchArg(fabric.NodeID(p.key.blade), fabric.PageBytes, pendAtBlade, p)
}

// pendAtBlade: the page arrived at the requester.
func pendAtBlade(x any) {
	p := x.(*pending)
	p.dataAtBlade = true
	if p.needAcks > 0 {
		return // still waiting on parallel ACKs
	}
	p.d.notifyComplete(p)
}

// notifyComplete finishes the request at the blade and releases the
// region for the next waiter.
func (d *Directory) notifyComplete(p *pending) {
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
	d.finish(p.claimed())
	d.recycle(p)
}

// reply sends a control message from the switch to blade and runs
// done(c) when it lands: every answer that carries no page — a refusal,
// a Retry, an error — takes this path.
func (d *Directory) reply(blade int, done func(Completion), c Completion) {
	d.fab.SendFromSwitch(fabric.NodeID(blade), fabric.CtrlMsgBytes, func() { done(c) })
}

// bounce answers p with c through reply and forgets the request, unless p
// was already answered; it reports whether it answered.
func (d *Directory) bounce(p *pending, c Completion) bool {
	if p.notified {
		return false
	}
	p.notified = true
	delete(d.inFlight, p.key)
	d.reply(p.key.blade, p.done, c)
	return true
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
