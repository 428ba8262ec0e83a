package computeblade

import (
	"mind/internal/coherence"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// Config parameterizes a compute blade's local costs, calibrated against
// the paper's measured transition latencies (Figure 7).
type Config struct {
	ID         int
	CachePages int
	// PageFaultCost is the kernel fault entry + RDMA post cost charged
	// before the request leaves the blade.
	PageFaultCost sim.Duration
	// PTEInstall is the local page-table population cost charged when the
	// page arrives (§6.1 "local memory structures such as PTEs are
	// populated").
	PTEInstall sim.Duration
	// InvHandlerService is the fixed kernel service time per invalidation
	// request; the handler is serial, so bursts queue (Figure 7 right
	// "Inv (queue)").
	InvHandlerService sim.Duration
	// TLBShootdown is the synchronous shootdown cost paid when an
	// invalidation changes PTEs (Figure 7 right "Inv (TLB)", [70]).
	TLBShootdown sim.Duration
	// FaultTimeout and MaxRetries implement §4.4: a fault unanswered for
	// FaultTimeout is retransmitted; after MaxRetries the blade asks the
	// control plane to reset the address.
	FaultTimeout sim.Duration
	MaxRetries   int
}

// retryBackoff and maxRetryBackoff pace repeated Retry bounces (the
// address is mid-reset or mid-migration, §4.4): the reissue delay doubles
// from retryBackoff up to the cap, so blades do not flood the fabric
// while a frozen area moves.
const (
	retryBackoff    = 5 * sim.Microsecond
	maxRetryBackoff = 320 * sim.Microsecond
)

// DefaultConfig returns calibrated blade costs.
func DefaultConfig(id, cachePages int) Config {
	return Config{
		ID:                id,
		CachePages:        cachePages,
		PageFaultCost:     1800 * sim.Nanosecond,
		PTEInstall:        700 * sim.Nanosecond,
		InvHandlerService: 900 * sim.Nanosecond,
		TLBShootdown:      2800 * sim.Nanosecond,
		FaultTimeout:      2 * sim.Millisecond,
		MaxRetries:        3,
	}
}

// AccessResult reports a completed remote access with the latency
// breakdown Figure 7 (right) plots.
type AccessResult struct {
	Err error
	// Page is the page the fault was for, so pre-bound completion
	// callbacks need not capture it.
	Page       mem.VA
	Total      sim.Duration
	PgFault    sim.Duration
	Network    sim.Duration
	InvQueue   sim.Duration
	InvTLB     sim.Duration
	Transition string
	Retries    int
}

// Deps are the blade's hooks into the rest of the rack, wired by core.
type Deps struct {
	Engine    *sim.Engine
	Collector *stats.Collector
	// SendRequest carries a page-fault request to the switch data plane;
	// the completion callback runs at this blade when the response
	// arrives (it includes all network time).
	SendRequest func(pdid mem.PDID, va mem.VA, want mem.Perm, done func(coherence.Completion))
	// Writeback sends one dirty page to its memory blade via one-sided
	// RDMA; done runs when the write has landed. The implementation must
	// not retain data past the call (the blade may recycle the buffer),
	// so it snapshots the bytes if the write is modelled asynchronously.
	Writeback func(va mem.VA, data []byte, done func())
	// FetchData copies the page's current bytes at the simulated moment
	// of arrival (zero-time data plumbing; latency is modelled by the
	// protocol path). dst, when non-nil, is a recycled page buffer the
	// implementation should fill and return instead of allocating; the
	// return value is nil when the page holds no materialized bytes.
	FetchData func(va mem.VA, dst []byte) []byte
	// Reset asks the control plane to reset a wedged address (§4.4).
	Reset func(va mem.VA, done func())
}

type waiter struct {
	start sim.Time
	done  func(AccessResult)
}

// fault is one in-flight page fault. Fault objects are pooled: settle
// recycles a fault back to its blade's free list once no outstanding
// callback can still reference it (every issued request has completed and
// no control-plane reset is in flight). onComplete is bound once per
// object and survives recycling, so steady-state faults allocate nothing.
type fault struct {
	b       *Blade
	page    mem.VA
	want    mem.Perm
	pdid    mem.PDID
	start   sim.Time
	waiters []waiter
	retries int
	bounces int // consecutive Retry completions (backoff driver)
	// timeout is the fault's reusable timer event (engine.Rearm): owned
	// by this fault object for its whole pooled lifetime.
	timeout *sim.Event
	settled bool

	// comp holds the successful completion between the PTE-install
	// charge being scheduled and the settle that consumes it.
	comp       coherence.Completion
	installing bool

	// sends counts SendRequest issues; comps counts completions that
	// came back (every delivered completion, even superseded ones).
	// They match exactly when no request is still in flight — the
	// recycling precondition.
	sends int
	comps int
	// pendingIssues counts scheduled-but-not-yet-fired faultIssue
	// events (the initial fault-entry delay and Retry-bounce backoffs);
	// a fault with one in flight must not recycle, or the stale event
	// would re-issue someone else's fault.
	pendingIssues int
	// resetPending marks an outstanding §4.4 control-plane reset whose
	// callback still references this fault.
	resetPending bool

	// onComplete is the pre-bound SendRequest completion callback,
	// allocated once per fault object.
	onComplete func(coherence.Completion)
}

// Blade is one compute blade: cache + fault machinery + invalidation
// handler.
type Blade struct {
	cfg   Config
	eng   *sim.Engine
	col   *stats.Collector
	cache *Cache
	deps  Deps

	invHandler *sim.Resource
	// faults dedups concurrent faults per (page, want): an open-addressed
	// table keyed by the packed fault key (see wordtable.go).
	faults wordTable[fault]

	// Free lists for the per-access hot path.
	faultFree sim.Pool[fault]
	invFree   sim.Pool[invJob]

	// wbDone is the pre-bound writeback completion for dirty evictions.
	wbDone func()

	// Pre-resolved stats handles (see stats.Handle).
	hAccesses    stats.Handle
	hLocalHits   stats.Handle
	hEvictions   stats.Handle
	hWritebacks  stats.Handle
	hRetransmits stats.Handle
	hLatPgFault  stats.Handle
	hLatNetwork  stats.Handle
	hLatInvQueue stats.Handle
	hLatInvTLB   stats.Handle

	// pendingWritebacks counts in-flight dirty evictions; wbDone, the
	// completion every writeback event carries, settles it.
	pendingWritebacks int
}

// New creates a blade; cfg starts from DefaultConfig.
func New(cfg Config, deps Deps) *Blade {
	b := &Blade{
		cfg:        cfg,
		eng:        deps.Engine,
		col:        deps.Collector,
		cache:      NewCache(cfg.CachePages),
		deps:       deps,
		invHandler: sim.NewResource(1),

		hAccesses:    deps.Collector.Handle(stats.CtrAccesses),
		hLocalHits:   deps.Collector.Handle(stats.CtrLocalHits),
		hEvictions:   deps.Collector.Handle(stats.CtrEvictions),
		hWritebacks:  deps.Collector.Handle(stats.CtrWritebacks),
		hRetransmits: deps.Collector.Handle(stats.CtrRetransmits),
		hLatPgFault:  deps.Collector.LatencyHandle(stats.LatPgFault),
		hLatNetwork:  deps.Collector.LatencyHandle(stats.LatNetwork),
		hLatInvQueue: deps.Collector.LatencyHandle(stats.LatInvQueue),
		hLatInvTLB:   deps.Collector.LatencyHandle(stats.LatInvTLB),
	}
	b.wbDone = func() { b.pendingWritebacks-- }
	return b
}

// ID returns the blade's identity.
func (b *Blade) ID() int { return b.cfg.ID }

// Cache exposes the page cache (tests, eviction checks).
func (b *Blade) Cache() *Cache { return b.cache }

// TryHit serves one LOAD/STORE from the local cache if the page is cached
// with sufficient rights: it counts the access and the hit, makes the page
// most recently used, marks it dirty on a write and returns true — the
// caller charges HitLatency itself. Otherwise it touches nothing and
// returns false. Threads use it to batch hits while issuing faults at
// accurate timestamps.
func (b *Blade) TryHit(va mem.VA, write bool) bool {
	p, ok := b.cache.Peek(va)
	if !ok || (write && !p.Writable) {
		return false
	}
	b.cache.touch(p)
	if write {
		p.Dirty = true
	}
	b.col.IncH(b.hAccesses, 1)
	b.col.IncH(b.hLocalHits, 1)
	return true
}

// Access performs one LOAD/STORE and calls done exactly once: before
// returning true when the cache serves it (the caller charges HitLatency
// itself), or when the page fault it starts completes, after it returned
// false. A page cached read-only under a write takes a coherence upgrade
// fault (§3.2) and still counts as a use of the cached copy.
func (b *Blade) Access(pdid mem.PDID, va mem.VA, write bool, done func(AccessResult)) (hit bool) {
	if done == nil {
		panic("computeblade: access with nil completion callback")
	}
	if b.TryHit(va, write) {
		done(AccessResult{Page: mem.PageBase(va)})
		return true
	}
	b.col.IncH(b.hAccesses, 1)
	b.cache.Lookup(va) // a read-only copy under a write fault becomes most recent
	want := mem.PermRead
	if write {
		want = mem.PermReadWrite
	}
	b.startFault(pdid, mem.PageBase(va), want, done)
	return false
}

// newFault takes a fault from the free list (or allocates one) and
// initializes it for (page, want).
func (b *Blade) newFault(pdid mem.PDID, page mem.VA, want mem.Perm) *fault {
	f := b.faultFree.Get()
	if f != nil {
		f.waiters = f.waiters[:0]
		f.retries, f.bounces, f.sends, f.comps = 0, 0, 0, 0
		f.settled, f.installing, f.resetPending = false, false, false
		f.comp = coherence.Completion{}
	} else {
		f = &fault{b: b}
		f.onComplete = func(c coherence.Completion) { f.b.onCompletion(f, c) }
	}
	f.page, f.want, f.pdid, f.start = page, want, pdid, b.eng.Now()
	return f
}

// startFault begins or joins a page fault for (page, want).
func (b *Blade) startFault(pdid mem.PDID, page mem.VA, want mem.Perm, done func(AccessResult)) {
	key := packFaultKey(page, want)
	if f := b.faults.get(key); f != nil {
		// Another thread on this blade already faulted: share the fault.
		f.waiters = append(f.waiters, waiter{start: b.eng.Now(), done: done})
		return
	}
	f := b.newFault(pdid, page, want)
	f.waiters = append(f.waiters, waiter{start: f.start, done: done})
	b.faults.put(key, f)
	// Kernel fault entry, then the request goes out.
	f.pendingIssues++
	b.eng.ScheduleArg(b.cfg.PageFaultCost, faultIssue, f)
}

// Pre-bound fault continuations (package-level so scheduling them never
// allocates; the fault itself is the bound argument).
func faultIssue(x any) {
	f := x.(*fault)
	f.pendingIssues--
	f.b.issue(f)
}
func faultTimeout(x any) { f := x.(*fault); f.b.onTimeout(f) }
func faultInstall(x any) { f := x.(*fault); f.b.install(f) }

// maybeRecycle returns a settled, fully quiescent fault to the pool: no
// outstanding completion, reset callback, or queued reissue event may
// still reference it. Called from settle and from every late callback
// that could be the last reference to drain.
func (b *Blade) maybeRecycle(f *fault) {
	if f.settled && f.sends == f.comps && !f.resetPending && f.pendingIssues == 0 {
		f.comp = coherence.Completion{}
		// Drop the waiter callbacks now, not at next reuse: a pooled
		// fault must not pin the last access's completion closures.
		for i := range f.waiters {
			f.waiters[i] = waiter{}
		}
		f.waiters = f.waiters[:0]
		b.faultFree.Put(f)
	}
}

func (b *Blade) issue(f *fault) {
	if f.settled {
		b.maybeRecycle(f)
		return
	}
	// Back-to-back reissues can find the timer still pending (two Retry
	// completions — original plus retransmission — each queue a reissue
	// with no completion in between); the newest issue owns the timeout.
	b.eng.Cancel(f.timeout)
	f.timeout = b.eng.Rearm(f.timeout, b.cfg.FaultTimeout, faultTimeout, f)
	f.sends++
	b.deps.SendRequest(f.pdid, f.page, f.want, f.onComplete)
}

func (b *Blade) onTimeout(f *fault) {
	if f.settled {
		return
	}
	f.retries++
	if f.retries <= b.cfg.MaxRetries {
		b.col.IncH(b.hRetransmits, 1)
		b.issue(f)
		return
	}
	// Retransmissions exhausted: reset the address at the control plane
	// (§4.4), then retry once from scratch.
	f.resetPending = true
	b.deps.Reset(f.page, func() {
		f.resetPending = false
		if f.settled {
			b.maybeRecycle(f)
			return
		}
		f.retries = 0
		b.issue(f)
	})
}

func (b *Blade) onCompletion(f *fault, c coherence.Completion) {
	f.comps++
	if f.settled || f.installing {
		// A duplicate completion (the answer to a retransmission that
		// raced the original response): the first one wins. This may be
		// the last outstanding reference — try to recycle.
		b.maybeRecycle(f)
		return
	}
	// State-guarded cancel; the timer object stays with the fault for
	// reuse by the next issue.
	b.eng.Cancel(f.timeout)
	if c.Retry {
		// Region reset mid-flight, or the area is frozen for migration
		// (§4.4): reissue after a fresh fault cost plus exponential
		// backoff, so a long freeze is polled, not hammered.
		f.bounces++
		delay := b.cfg.PageFaultCost
		if f.bounces > 1 {
			shift := f.bounces - 2
			if shift > 16 {
				shift = 16
			}
			delay += min(retryBackoff<<uint(shift), maxRetryBackoff)
		}
		f.pendingIssues++
		b.eng.ScheduleArg(delay, faultIssue, f)
		return
	}
	if c.Err != nil {
		b.settle(f, AccessResult{Err: c.Err, Retries: f.retries})
		return
	}
	// Evict if needed, then install the page and charge PTE population.
	for b.cache.NeedsEviction() {
		b.evictOne()
	}
	p := b.cache.Insert(f.page, c.Writable)
	if b.deps.FetchData != nil {
		// The record may carry a recycled buffer from its previous
		// identity; the fetch overwrites it in place (or returns nil for
		// a never-materialized page, which must read as zero).
		p.Data = b.deps.FetchData(f.page, p.Data)
	} else {
		p.Data = nil
	}
	if f.want == mem.PermReadWrite {
		p.Dirty = true
	}
	f.comp = c
	f.installing = true
	b.eng.ScheduleArg(b.cfg.PTEInstall, faultInstall, f)
}

// install finishes a successful fault after the PTE population charge.
func (b *Blade) install(f *fault) {
	c := f.comp
	total := b.eng.Now().Sub(f.start)
	pg := b.cfg.PageFaultCost + b.cfg.PTEInstall
	net := total - pg - c.InvQueue - c.InvTLB
	if net < 0 {
		net = 0
	}
	b.col.AddLatencyH(b.hLatPgFault, pg)
	b.col.AddLatencyH(b.hLatNetwork, net)
	b.col.AddLatencyH(b.hLatInvQueue, c.InvQueue)
	b.col.AddLatencyH(b.hLatInvTLB, c.InvTLB)
	b.settle(f, AccessResult{
		Total:      total,
		PgFault:    pg,
		Network:    net,
		InvQueue:   c.InvQueue,
		InvTLB:     c.InvTLB,
		Transition: c.Transition,
		Retries:    f.retries,
	})
}

func (b *Blade) settle(f *fault, r AccessResult) {
	f.settled = true
	// Defensive: a recycled fault must never have a live timer pointing
	// at it (Cancel is a no-op unless the timer is pending).
	b.eng.Cancel(f.timeout)
	b.faults.del(packFaultKey(f.page, f.want))
	now := b.eng.Now()
	r.Page = f.page
	for _, w := range f.waiters {
		res := r
		res.Total = now.Sub(w.start)
		w.done(res)
	}
	// Faults whose requests were lost in the fabric stay un-recycled
	// (garbage-collected); everything quiescent returns to the pool.
	b.maybeRecycle(f)
}

// evictOne removes the LRU page, writing it back first if dirty.
// Writebacks are asynchronous (swap-out does not block the fault) but
// occupy the NIC via the Writeback hook.
func (b *Blade) evictOne() {
	victim := b.cache.EvictLRU()
	if victim == nil {
		return
	}
	b.col.IncH(b.hEvictions, 1)
	if victim.Dirty {
		b.col.IncH(b.hWritebacks, 1)
		b.pendingWritebacks++
		b.deps.Writeback(victim.VA, victim.Data, b.wbDone)
	}
}

// invJob carries one invalidation through the blade's serial handler.
// Jobs are pooled; finish is bound once per job object.
type invJob struct {
	b          *Blade
	inv        coherence.Invalidation
	queueDelay sim.Duration
	ack        func(coherence.AckInfo)
	info       coherence.AckInfo
	pteChanged bool
	// finish runs after the dirty flushes (if any) land; it charges the
	// TLB shootdown and delivers the ACK.
	finish func()
}

func invProcess(x any) { j := x.(*invJob); j.b.processInvalidation(j) }
func invAck(x any) {
	j := x.(*invJob)
	j.b.finishInv(j)
}

// nopDone is the shared no-op writeback completion for invalidation
// flushes (the barrier writeback tracks the last of them).
func nopDone() {}

// HandleInvalidation implements coherence.BladePort: the switch delivered
// an invalidation for a region. The serial kernel handler queues requests
// (queueing delay), flushes dirty pages in the region, adjusts PTEs, and
// performs a synchronous TLB shootdown before ACKing (§6.1, §7.2).
func (b *Blade) HandleInvalidation(inv coherence.Invalidation, ack func(coherence.AckInfo)) {
	arrive := b.eng.Now()
	start, end := b.invHandler.Reserve(arrive, b.cfg.InvHandlerService)
	j := b.invFree.Get()
	if j == nil {
		j = &invJob{b: b}
		j.finish = func() {
			if j.pteChanged {
				j.info.TLBTime = j.b.cfg.TLBShootdown
				j.b.eng.ScheduleArg(j.b.cfg.TLBShootdown, invAck, j)
				return
			}
			j.b.finishInv(j)
		}
	}
	j.inv, j.queueDelay, j.ack = inv, start.Sub(arrive), ack
	j.info = coherence.AckInfo{}
	j.pteChanged = false
	b.eng.AtArg(end, invProcess, j)
}

func (b *Blade) processInvalidation(j *invJob) {
	inv := j.inv
	pages := b.cache.PagesIn(inv.Region.Base, inv.Region.Size)
	j.info = coherence.AckInfo{Blade: b.cfg.ID, QueueDelay: j.queueDelay}

	var flushes int
	for _, p := range pages {
		if p.Dirty {
			j.info.FlushedDirty++
			if p.VA != inv.Requested {
				j.info.FalseInvals++
			}
			flushes++
			b.deps.Writeback(p.VA, p.Data, nopDone)
			p.Dirty = false
		}
		if inv.Downgrade && !inv.Reset {
			// M→S: keep the copy read-only.
			if p.Writable {
				p.Writable = false
				j.pteChanged = true
			}
		} else {
			// Full invalidation or reset: drop the mapping.
			b.cache.Remove(p.VA)
			j.info.Dropped++
			j.pteChanged = true
		}
	}
	if flushes > 0 {
		// The ACK must not leave before the flushed data is safely at the
		// memory blade; approximate the last flush landing with one
		// writeback round per dirty page through the blade's NIC. The
		// Writeback hook already booked NIC occupancy; here we wait for
		// the slowest flush via a completion barrier: one extra zero-byte
		// writeback that serializes after them on the same NIC.
		b.deps.Writeback(inv.Requested, nil, j.finish)
		return
	}
	j.finish()
}

// finishInv delivers the ACK and recycles the job. The ack callback is
// called exactly once per invalidation (the BladePort contract), so after
// it returns nothing references the job.
func (b *Blade) finishInv(j *invJob) {
	ack, info := j.ack, j.info
	j.ack = nil
	j.inv = coherence.Invalidation{}
	b.invFree.Put(j)
	ack(info)
}
