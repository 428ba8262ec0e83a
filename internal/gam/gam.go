// Package gam implements the transparent-DSM baseline the paper compares
// against (§7 "Compared systems"): GAM [35] adapted to the disaggregated
// setting. The cache directory is partitioned across compute blades
// (compute-centric design, §2.2), every memory access pays a software
// permission check under a lock, the consistency model is PSO (writes
// propagate asynchronously), and data lives on memory blades reached over
// RDMA.
//
// The model reproduces the two properties the paper attributes GAM's
// behaviour to: (i) software overhead limits intra-blade scaling beyond
// ~4 threads on a 12-core node — local accesses are ~10x slower than
// MIND's hardware-MMU path; and (ii) the small local/remote latency
// differential makes inter-blade scaling flatter — extra invalidations
// hurt GAM less than MIND (§7.1).
package gam

import (
	"fmt"

	"mind/internal/bitset"
	"mind/internal/computeblade"
	"mind/internal/core"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// Config parameterizes the GAM baseline.
type Config struct {
	ComputeBlades int
	MemoryBlades  int
	CachePages    int
	// LocalAccess is the software-path cost of a local (cached) access:
	// user-level library dispatch + permission check. ~10x MIND's local
	// DRAM access (§7.1).
	LocalAccess sim.Duration
	// LockService is the serialized critical-section time of the per-
	// blade metadata lock every access acquires.
	LockService sim.Duration
	// HomeService is the directory handler service time at a home blade.
	HomeService sim.Duration
	// Cores bounds per-blade software parallelism (12-core nodes, §7).
	Cores int
	// StoreBufferDepth bounds PSO's outstanding async writes.
	StoreBufferDepth int
	Fabric           fabric.Config
}

// DefaultConfig returns the calibrated baseline.
func DefaultConfig(computeBlades, memoryBlades, cachePages int) Config {
	return Config{
		ComputeBlades:    computeBlades,
		MemoryBlades:     memoryBlades,
		CachePages:       cachePages,
		LocalAccess:      900 * sim.Nanosecond,
		LockService:      220 * sim.Nanosecond,
		HomeService:      400 * sim.Nanosecond,
		Cores:            12,
		StoreBufferDepth: 16,
		Fabric:           fabric.DefaultConfig(),
	}
}

// entry is a directory entry at a page's home blade.
type entry struct {
	state   uint8 // stInvalid, stShared, stModified
	owner   int   // valid when state == stModified
	sharers bitset.Set

	// busy serializes transitions on the page; requests that reach the
	// home meanwhile park in waiters, a head-indexed queue (the
	// coherence.Region idiom) so a drained queue's backing array is
	// reused.
	busy    bool
	waiters []*req
	wHead   int
}

const (
	stInvalid = iota
	stShared
	stModified
)

// own records blade as the page's exclusive holder.
func (e *entry) own(blade int) {
	e.state, e.owner = stModified, blade
	e.sharers.Clear()
	e.sharers.Add(blade)
}

// popWaiter removes and returns the oldest parked request (nil if none).
func (e *entry) popWaiter() *req {
	if e.wHead == len(e.waiters) {
		return nil
	}
	r := e.waiters[e.wHead]
	e.waiters[e.wHead] = nil
	e.wHead++
	if e.wHead == len(e.waiters) {
		e.waiters, e.wHead = e.waiters[:0], 0
	}
	return r
}

// Cluster is a GAM deployment over the shared fabric model.
type Cluster struct {
	cfg Config
	eng *sim.Engine
	fab *fabric.Fabric
	col *stats.Collector

	// Stats handles, resolved once at construction: the Collector counts
	// through integer handles only.
	hAccesses   stats.Handle
	hLocalHits  stats.Handle
	hRemote     stats.Handle
	hEvictions  stats.Handle
	hWritebacks stats.Handle
	hInvals     stats.Handle
	hFlushed    stats.Handle

	caches []*computeblade.Cache
	locks  []*sim.Resource // per-blade metadata lock (serial)
	cpus   []*sim.Resource // per-blade cores
	homes  []*sim.Resource // per-blade directory handler

	// dir indexes the directory entries, which are carved from entrySlab
	// and never freed.
	dir       map[mem.VA]*entry
	entrySlab []entry
	nextVA    mem.VA

	// Per-cluster pools and scratch of the protocol path (a process runs
	// many clusters at once on runner workers, so none of it is
	// package-level): request and invalidation contexts, and the target
	// list of the transition being started.
	reqFree sim.Pool[req]
	invFree sim.Pool[inval]
	targets []int

	active int
}

// New creates a GAM cluster.
func New(cfg Config) *Cluster {
	if cfg.Cores < 1 {
		cfg.Cores = 12
	}
	if cfg.StoreBufferDepth < 1 {
		cfg.StoreBufferDepth = 16
	}
	c := &Cluster{
		cfg:    cfg,
		eng:    sim.NewEngine(),
		col:    stats.NewCollector(),
		dir:    make(map[mem.VA]*entry),
		nextVA: 1 << 32,
	}
	c.hAccesses = c.col.Handle(stats.CtrAccesses)
	c.hLocalHits = c.col.Handle(stats.CtrLocalHits)
	c.hRemote = c.col.Handle(stats.CtrRemoteAccesses)
	c.hEvictions = c.col.Handle(stats.CtrEvictions)
	c.hWritebacks = c.col.Handle(stats.CtrWritebacks)
	c.hInvals = c.col.Handle(stats.CtrInvalidations)
	c.hFlushed = c.col.Handle(stats.CtrFlushedPages)
	c.fab = fabric.New(c.eng, cfg.Fabric)
	for i := 0; i < cfg.ComputeBlades; i++ {
		c.fab.AddNode(fabric.NodeID(i))
		c.caches = append(c.caches, computeblade.NewCache(cfg.CachePages))
		c.locks = append(c.locks, sim.NewResource(1))
		c.cpus = append(c.cpus, sim.NewResource(cfg.Cores))
		// The home directory handler runs multi-threaded (GAM dedicates
		// several service threads per node).
		c.homes = append(c.homes, sim.NewResource(4))
	}
	for m := 0; m < cfg.MemoryBlades; m++ {
		c.fab.AddNode(1000 + fabric.NodeID(m))
	}
	return c
}

// Collector returns run metrics.
func (c *Cluster) Collector() *stats.Collector { return c.col }

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Alloc reserves address space (GAM's specialized memory API; metadata
// only).
func (c *Cluster) Alloc(length uint64) (mem.VA, error) {
	base := mem.AlignUp(c.nextVA, mem.PageSize)
	c.nextVA = base + mem.VA(mem.NextPow2(length))
	return base, nil
}

// home returns the blade owning a page's directory entry.
func (c *Cluster) home(page mem.VA) int {
	return int(mem.PageIndex(page)) % c.cfg.ComputeBlades
}

// memBladeOf returns the memory blade storing a page.
func (c *Cluster) memBladeOf(page mem.VA) fabric.NodeID {
	return 1000 + fabric.NodeID(int(mem.PageIndex(page))%c.cfg.MemoryBlades)
}

func (c *Cluster) entry(page mem.VA) *entry {
	e, ok := c.dir[page]
	if !ok {
		if len(c.entrySlab) == 0 {
			c.entrySlab = make([]entry, 256)
		}
		e = &c.entrySlab[0]
		c.entrySlab = c.entrySlab[1:]
		c.dir[page] = e
	}
	return e
}

// thread executes an access stream with PSO semantics.
type thread struct {
	c     *Cluster
	blade int
	gen   core.AccessGen
	done  bool

	pendingWrites map[mem.VA]int
	pendingTotal  int
	// A stalled access waits in (stVA, stWrite) until the blocking
	// writes drain; drained then sets replay, and the next step executes
	// the stalled access before drawing from gen again. One slot is
	// enough: a stalled thread has no step scheduled, and drained clears
	// waitingDrain before scheduling the one that consumes the slot.
	stVA         mem.VA
	stWrite      bool
	replay       bool
	blockedOn    mem.VA // page whose drain unblocks us (0 = any slot)
	waitingDrain bool

	ops uint64
}

// Spawn starts a thread on a blade.
func (c *Cluster) Spawn(blade int, gen core.AccessGen) error {
	if blade < 0 || blade >= c.cfg.ComputeBlades {
		return fmt.Errorf("gam: no blade %d", blade)
	}
	t := &thread{c: c, blade: blade, gen: gen, pendingWrites: make(map[mem.VA]int)}
	c.active++
	c.eng.ScheduleArg(0, threadStep, t)
	return nil
}

// Run drives the engine until all threads finish and returns the finish
// time.
func (c *Cluster) Run() sim.Time {
	for c.active > 0 {
		if !c.eng.Step() {
			panic("gam: wedged")
		}
	}
	end := c.eng.Now()
	c.eng.Run()
	return end
}

const inlineBatch = 2048

func threadStep(x any) { x.(*thread).step() }

func (t *thread) step() {
	c := t.c
	var local sim.Duration
	for i := 0; i < inlineBatch && local < 5*sim.Microsecond; i++ {
		va, write := t.stVA, t.stWrite
		if t.replay {
			t.replay = false
		} else {
			var ok bool
			if va, write, ok = t.gen(); !ok {
				t.done = true
				c.active--
				return
			}
		}
		page := mem.PageBase(va)

		// PSO read-after-write hazard. (The access is not counted yet:
		// stalled accesses count when they actually execute on replay.)
		if !write && t.pendingWrites[page] > 0 {
			t.stall(va, write, page)
			return
		}

		// Every access pays the software path: lock + library overhead,
		// scheduled on the blade's core pool.
		now := c.eng.Now().Add(local)
		_, lockEnd := c.locks[t.blade].Reserve(now, c.cfg.LockService)
		_, cpuEnd := c.cpus[t.blade].Reserve(now, c.cfg.LocalAccess)
		softEnd := lockEnd
		if cpuEnd > softEnd {
			softEnd = cpuEnd
		}
		local = softEnd.Sub(c.eng.Now())

		p, cached := c.caches[t.blade].Lookup(va)
		if cached && (!write || p.Writable) {
			if write {
				p.Dirty = true
			}
			t.ops++
			c.col.IncH(c.hAccesses, 1)
			c.col.IncH(c.hLocalHits, 1)
			continue
		}

		// Remote path: writes go asynchronous unless the store buffer is
		// full; reads block the thread until fetchDone resumes it.
		if write {
			if t.pendingTotal >= c.cfg.StoreBufferDepth {
				t.stall(va, true, 0)
				return
			}
			t.ops++
			c.col.IncH(c.hAccesses, 1)
			t.pendingWrites[page]++
			t.pendingTotal++
			c.eng.ScheduleArg(local, reqStart, c.newReq(t, page, true))
			continue
		}
		c.col.IncH(c.hAccesses, 1)
		c.eng.ScheduleArg(local, reqStart, c.newReq(t, page, false))
		return
	}
	c.eng.ScheduleArg(local, threadStep, t)
}

// stall parks an access until on's pending writes drain (on == 0: until
// any store-buffer slot frees).
func (t *thread) stall(va mem.VA, write bool, on mem.VA) {
	t.stVA, t.stWrite = va, write
	t.blockedOn, t.waitingDrain = on, true
}

func (t *thread) drained(page mem.VA) {
	if t.pendingWrites[page] > 0 {
		t.pendingWrites[page]--
		if t.pendingWrites[page] == 0 {
			delete(t.pendingWrites, page)
		}
	}
	if t.pendingTotal > 0 {
		t.pendingTotal--
	}
	if !t.waitingDrain {
		return
	}
	if t.blockedOn != 0 && t.pendingWrites[t.blockedOn] > 0 {
		return
	}
	t.waitingDrain = false
	t.blockedOn = 0
	// Replay the stalled access through the normal path.
	t.replay = true
	t.c.eng.ScheduleArg(0, threadStep, t)
}

// req is one remote access in flight. It carries the compute-centric DSM
// protocol (§2.2) — requester → home blade directory → (invalidate or
// downgrade current holders) → fetch from the memory blade → install —
// through the package-level continuations below, so an access allocates
// neither closures nor events once the pools are warm. Hops are
// sequential remote requests:
//
//	reqStart → reqHomeArrived → reqAtHome → [invAtTarget → invAcked]* →
//	fetchAtMem → fetchDMA → fetchDone
type req struct {
	t     *thread
	page  mem.VA
	write bool

	e         *entry // the page's directory entry, once the request holds it
	writable  bool   // install the fetched page writable
	acks      int    // invalidation ACKs still outstanding
	downgrade bool   // holders keep a read-only copy (M→S) instead of dropping the page
}

// inval is one invalidation on its way to a holder.
type inval struct {
	r   *req
	tgt int
}

func (c *Cluster) newReq(t *thread, page mem.VA, write bool) *req {
	r := c.reqFree.Get()
	if r == nil {
		r = new(req)
	}
	*r = req{t: t, page: page, write: write}
	return r
}

// delivered is the delivery event of the fire-and-forget page transfers
// (dirty flushes and writebacks): nobody waits for them, but they occupy
// the fabric and the event queue like any other message.
func delivered(any) {}

// reqStart runs once the requester's software path has elapsed.
func reqStart(x any) {
	r := x.(*req)
	c := r.t.c
	c.col.IncH(c.hRemote, 1)
	home := c.home(r.page)
	if home == r.t.blade {
		// Metadata is local: just the handler service time.
		reqHomeArrived(r)
		return
	}
	c.fab.UnicastArg(fabric.NodeID(r.t.blade), fabric.NodeID(home), fabric.CtrlMsgBytes, reqHomeArrived, r)
}

func reqHomeArrived(x any) {
	r := x.(*req)
	c := r.t.c
	_, end := c.homes[c.home(r.page)].Reserve(c.eng.Now(), c.cfg.HomeService)
	c.eng.AtArg(end, reqAtHome, r)
}

// reqAtHome takes the page's directory entry (or queues behind its
// current holder), makes the MSI transition and sends the invalidations
// it requires, in ascending blade order — MIND's path gets a
// reproducible order from the switch's multicast-group member order, GAM
// from the bitmap walk.
func reqAtHome(x any) {
	r := x.(*req)
	c := r.t.c
	blade := r.t.blade
	e := c.entry(r.page)
	if e.busy {
		e.waiters = append(e.waiters, r)
		return
	}
	e.busy = true
	r.e = e

	targets := c.targets[:0]
	switch {
	case e.state == stModified && e.owner == blade:
		// The owner lost its copy to eviction and fetches it again.
		r.writable = true
	case e.state == stModified:
		// Another blade owns the page: it flushes, and keeps a read-only
		// copy if this is a read (M→S).
		targets = append(targets, e.owner)
		if r.write {
			e.own(blade)
		} else {
			e.state = stShared
			e.sharers.Add(blade)
		}
		r.writable, r.downgrade = r.write, !r.write
	case r.write:
		// I/S→M: every other sharer drops its copy.
		e.sharers.Remove(blade)
		targets = e.sharers.AppendTo(targets)
		e.own(blade)
		r.writable = true
	default:
		e.state = stShared
		e.sharers.Add(blade)
	}
	c.targets = targets

	if len(targets) == 0 {
		c.fetch(r)
		return
	}
	r.acks = len(targets)
	home := fabric.NodeID(c.home(r.page))
	for _, tgt := range targets {
		iv := c.invFree.Get()
		if iv == nil {
			iv = new(inval)
		}
		iv.r, iv.tgt = r, tgt
		c.fab.UnicastArg(home, fabric.NodeID(tgt), fabric.CtrlMsgBytes, invAtTarget, iv)
	}
}

// invAtTarget runs at a holder: flush if dirty, downgrade or drop the
// copy, ACK to the home.
func invAtTarget(x any) {
	iv := x.(*inval)
	r, tgt := iv.r, iv.tgt
	c := r.t.c
	c.invFree.Put(iv)

	c.col.IncH(c.hInvals, 1)
	cache := c.caches[tgt]
	if p, ok := cache.Peek(r.page); ok {
		if p.Dirty {
			c.col.IncH(c.hFlushed, 1)
			c.fab.UnicastArg(fabric.NodeID(tgt), c.memBladeOf(r.page), fabric.PageBytes, delivered, nil)
			p.Dirty = false
		}
		if r.downgrade {
			p.Writable = false
		} else {
			cache.Remove(r.page)
		}
	}
	c.fab.UnicastArg(fabric.NodeID(tgt), fabric.NodeID(c.home(r.page)), fabric.CtrlMsgBytes, invAcked, r)
}

func invAcked(x any) {
	r := x.(*req)
	if r.acks--; r.acks == 0 {
		r.t.c.fetch(r)
	}
}

// fetch reads the page from its memory blade (one-sided RDMA issued by
// the home) and delivers it to the requester.
func (c *Cluster) fetch(r *req) {
	c.fab.UnicastArg(fabric.NodeID(c.home(r.page)), c.memBladeOf(r.page), fabric.CtrlMsgBytes, fetchAtMem, r)
}

func fetchAtMem(x any) {
	r := x.(*req)
	c := r.t.c
	c.eng.ScheduleArg(c.fab.MemDMA(), fetchDMA, r)
}

func fetchDMA(x any) {
	r := x.(*req)
	c := r.t.c
	c.fab.UnicastArg(c.memBladeOf(r.page), fabric.NodeID(r.t.blade), fabric.PageBytes, fetchDone, r)
}

// fetchDone runs at the requester when the page arrives: install it
// (evicting as needed), release the directory entry to the next waiter,
// and complete the access.
func fetchDone(x any) {
	r := x.(*req)
	t, page, write := r.t, r.page, r.write
	c := t.c

	cache := c.caches[t.blade]
	for cache.NeedsEviction() {
		v := cache.EvictLRU()
		c.col.IncH(c.hEvictions, 1)
		if v.Dirty {
			c.col.IncH(c.hWritebacks, 1)
			c.fab.UnicastArg(fabric.NodeID(t.blade), c.memBladeOf(v.VA), fabric.PageBytes, delivered, nil)
		}
	}
	p := cache.Insert(page, r.writable)
	if r.writable {
		p.Dirty = true
	}

	e := r.e
	e.busy = false
	if next := e.popWaiter(); next != nil {
		c.eng.ScheduleArg(0, reqAtHome, next)
	}
	c.reqFree.Put(r)

	if write {
		t.drained(page)
		return
	}
	t.ops++
	c.eng.ScheduleArg(0, threadStep, t)
}
