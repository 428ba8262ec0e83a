package core

// Pod-scale MIND: a Pod composes N racks — each with its own
// programmable ToR switch (TCAM, coherence directory), fabric and
// blades — over an inter-rack interconnect with higher latency and
// bounded bandwidth. One rack is no longer the world: it is a component.
//
// Cross-rack memory works by capacity borrowing at blade granularity. A
// rack whose mmap hits ENOMEM asks the pod for a spare memory blade
// from another rack; the lender retires the blade from its own
// allocator and the borrower registers it as a new (remote-homed)
// blade, so every existing mechanism — translation, placement,
// protection, coherence — applies unchanged. Only the data path
// differs: messages to a borrowed blade leave the borrower's egress
// pipeline, cross the interconnect, and traverse the owning rack's
// switch before reaching the blade's NIC ("routed through both
// switches"). Coherence domains stay per-rack, exactly as in MIND: one
// ToR owns the directory for the address ranges its compute blades
// fault on.
//
// An epoch-driven promotion policy (ctrlplane.PlanPromotions,
// INDIGO-style) watches per-blade remote fetch heat and migrates hot
// remote vmas back to local blades with the elasticity machinery
// (freeze → reset → throttled page copy → TCAM rewrite), and returns
// fully-emptied borrowed blades to their owners.
//
// Execution model: every rack owns its engine and collector, and one
// loop — podExec.drive (parexec.go) — advances them. A multi-rack pod
// moves in lockstep windows one interconnect propagation delay wide;
// racks only interact through boundary-buffered interconnect messages
// and barrier-context control-plane operations, so windows may execute
// concurrently. A 1-rack pod has no peer to wait for and moves
// one event at a time — the classic single-threaded simulation,
// bit-identical to the pre-pod code.

import (
	"fmt"
	"math"

	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/sim"
	"mind/internal/stats"
)

// PromotionConfig paces the pod's hot-page promotion policy.
type PromotionConfig struct {
	// Epoch is the policy scan period (default 500 µs; negative is a
	// config error).
	Epoch sim.Duration
	// Threshold is the minimum remote data-path messages (fault fetch
	// requests plus page writebacks) a borrowed blade must see in one
	// epoch before its vmas become promotion candidates (default 32).
	Threshold uint64
	// MaxVMAsPerEpoch bounds promotions started per rack per epoch
	// (default 8; negative is a config error).
	MaxVMAsPerEpoch int
	// Disable turns the policy off: borrowed memory stays remote (the
	// no-migration ablation the pod experiment toggles).
	Disable bool
}

// DefaultPromotionConfig returns the promotion policy defaults.
func DefaultPromotionConfig() PromotionConfig {
	return PromotionConfig{
		Epoch:           500 * sim.Microsecond,
		Threshold:       32,
		MaxVMAsPerEpoch: 8,
	}
}

// PodConfig assembles a pod.
type PodConfig struct {
	// Racks configures each member rack.
	Racks []Config
	// Interconnect calibrates the inter-rack network (zero value: the
	// fabric package default).
	Interconnect fabric.InterConfig
	// Promotion paces hot-page promotion (zero fields take defaults).
	Promotion PromotionConfig
	// Workers is how many goroutines each window of a multi-rack pod
	// fans its racks out to (0 or 1: serial). Any worker count produces
	// bit-identical results; workers only change wall-clock time.
	Workers int
	// DenseWindows disables the sparse-horizon jump and rack parking:
	// the executor visits every 1-window barrier and enters every rack
	// even when provably a no-op, as it did before sparse execution
	// existed. Either setting produces bit-identical simulations (the
	// conformance pod storm sweeps both); dense exists as the oracle for
	// that comparison and as an escape hatch, not as a supported
	// performance mode.
	DenseWindows bool
}

// Pod is a MIND deployment of one or more racks, each with its own
// engine and collector, advanced by one executor (exec).
type Pod struct {
	// col holds only the pod's own barrier-context counters (borrows,
	// returns); Collector() merges it with the racks' on demand.
	col   *stats.Collector
	racks []*Rack
	ic    *fabric.Interconnect
	promo PromotionConfig
	exec  *podExec
	// multiRack is fixed at construction (before racks are built): it
	// gates address striping, the interconnect, the promotion tick and
	// the pod and cross-rack counters — the machinery a 1-rack pod must
	// not have — and, in the executor, the width of a drive quantum.
	multiRack bool

	// Pod-level counters, bumped only in barrier context (registered
	// only for multi-rack pods, so a 1-rack pod's counter set is
	// exactly the classic single-rack one).
	hBorrows stats.Handle
	hReturns stats.Handle
}

// NewPod builds and wires a pod of racks.
func NewPod(cfg PodConfig) (*Pod, error) {
	if len(cfg.Racks) == 0 {
		return nil, fmt.Errorf("core: pod needs at least one rack")
	}
	if cfg.Promotion.Epoch < 0 {
		return nil, fmt.Errorf("core: negative promotion epoch %v", cfg.Promotion.Epoch)
	}
	if cfg.Promotion.MaxVMAsPerEpoch < 0 {
		return nil, fmt.Errorf("core: negative promotion bound %d vmas per epoch", cfg.Promotion.MaxVMAsPerEpoch)
	}
	if cfg.Promotion.Epoch == 0 {
		cfg.Promotion.Epoch = DefaultPromotionConfig().Epoch
	}
	if cfg.Promotion.Threshold == 0 {
		cfg.Promotion.Threshold = DefaultPromotionConfig().Threshold
	}
	if cfg.Promotion.MaxVMAsPerEpoch == 0 {
		cfg.Promotion.MaxVMAsPerEpoch = DefaultPromotionConfig().MaxVMAsPerEpoch
	}
	p := &Pod{
		col:       stats.NewCollector(),
		promo:     cfg.Promotion,
		multiRack: len(cfg.Racks) > 1,
	}
	if p.multiRack {
		p.hBorrows = p.col.Handle(stats.CtrBladeBorrows)
		p.hReturns = p.col.Handle(stats.CtrBladeReturns)
	}
	for i, rc := range cfg.Racks {
		r, err := newRack(p, i, rc)
		if err != nil {
			return nil, fmt.Errorf("core: rack %d: %w", i, err)
		}
		p.racks = append(p.racks, r)
	}
	// A zero or negative interconnect bandwidth defaults; NaN, +Inf and
	// one too small for a migration batch would make every crossing cost
	// serialize's 1 ns floor.
	if bw := cfg.Interconnect.BytesPerNs; !(bw <= 0) {
		for _, r := range p.racks {
			if math.IsInf(bw, 1) || !batchSerializes(bw, r.cfg.Migration.BatchPages) {
				return nil, fmt.Errorf("core: Interconnect.BytesPerNs must be finite and serialize a %d-page migration batch in a representable time (%v)",
					r.cfg.Migration.BatchPages, bw)
			}
		}
	}
	// No peer to wait for: a 1-rack pod's lookahead is unbounded. A
	// multi-rack pod's is the interconnect propagation delay.
	window := sim.Duration(math.MaxInt64)
	if p.multiRack {
		engs := make([]*sim.Engine, len(p.racks))
		for i, r := range p.racks {
			engs[i] = r.eng
		}
		p.ic = fabric.NewShardedInterconnect(engs, cfg.Interconnect)
		window = p.ic.Config().Propagation
		// A borrow queued inside a window must not fall due before the
		// barrier that resolves it, or its done is late by the difference.
		if rtt := p.ic.CtrlRTT(); rtt < window {
			return nil, fmt.Errorf("core: Interconnect.CtrlRTT %v is below Interconnect.Propagation %v: a borrow negotiation must span a window",
				rtt, window)
		}
		if !cfg.Promotion.Disable {
			for _, r := range p.racks {
				r.schedulePromotionTick(p.promo.Epoch)
			}
		}
	}
	p.exec = newPodExec(p, window, cfg.Workers, cfg.DenseWindows)
	return p, nil
}

// Rack returns member rack i.
func (p *Pod) Rack(i int) *Rack { return p.racks[i] }

// Racks returns the number of member racks.
func (p *Pod) Racks() int { return len(p.racks) }

// ExecutedEvents returns the total events dispatched across the pod's
// engines. Under the parallel executor, read it only between drives or
// at barriers.
func (p *Pod) ExecutedEvents() uint64 {
	var n uint64
	for _, r := range p.racks {
		n += r.eng.Executed
	}
	return n
}

// Collector returns the pod's metrics. For a 1-rack pod this is the
// rack's live collector. For a multi-rack pod it is a merged snapshot:
// counters and latency components sum across the rack shards and the
// pod's own counters; series and histograms are copied in and merged
// sample for sample, never shared by reference (stats.Collector.MergeFrom;
// per-rack series names are rack-qualified, so series never collide, and
// a tenant's histogram shards merge under its one name). Call it between
// drives or at barriers.
func (p *Pod) Collector() *stats.Collector {
	if !p.multiRack {
		return p.racks[0].col
	}
	m := stats.NewCollector()
	m.MergeFrom(p.col)
	for _, r := range p.racks {
		m.MergeFrom(r.col)
	}
	return m
}

// CounterTotal sums one named counter across the pod's collectors — the
// cheap form of Collector().Counter(name) for barrier-context sampling.
func (p *Pod) CounterTotal(name string) uint64 {
	n := p.col.Counter(name)
	for _, r := range p.racks {
		n += r.col.Counter(name)
	}
	return n
}

// Interconnect exposes the inter-rack network model (nil for a 1-rack
// pod).
func (p *Pod) Interconnect() *fabric.Interconnect { return p.ic }

// Leases returns the number of live cross-rack blade loans: the racks'
// borrowed counts, summed at read. Call it between drives or at
// barriers.
func (p *Pod) Leases() int {
	n := 0
	for _, r := range p.racks {
		n += r.borrowed
	}
	return n
}

// WindowStats reports the windowed executor's work accounting: windows
// actually swept, grid windows skipped by the sparse-horizon jump, and
// barriers whose cross-rack flush was elided because no send was
// buffered. All zero for a 1-rack pod, which sweeps no windows. Read
// between drives or at barriers.
func (p *Pod) WindowStats() (executed, skipped, flushesElided uint64) {
	return p.exec.windowsExecuted, p.exec.windowsSkipped, p.exec.flushesElided
}

// Now returns current virtual time. Between drives and at barriers
// every engine of the pod sits on the same instant (the window cursor),
// so rack 0's clock is the pod's; read it only there.
func (p *Pod) Now() sim.Time { return p.racks[0].eng.Now() }

// AdvanceTime idles the pod for d of virtual time (lets epochs run).
func (p *Pod) AdvanceTime(d sim.Duration) {
	target := p.Now().Add(d)
	p.exec.drive(target, func() bool { return p.Now() >= target })
}

// RunThreads drives the pod until every started thread in it finishes,
// then quiesces it: the epoch loops stop and remaining events (in-flight
// writebacks etc.) drain. It returns the virtual time at which the last
// thread finished — with no thread active at entry, the last finish any
// earlier run recorded (zero if none ever ran).
func (p *Pod) RunThreads() sim.Time {
	p.exec.drive(0, func() bool { return p.activeThreadCount() == 0 })
	finishedAt := sim.Time(0)
	for _, r := range p.racks {
		if r.lastFinish > finishedAt {
			finishedAt = r.lastFinish
		}
	}
	p.quiesce()
	return finishedAt
}

// quiesce ends a run: it stops the splitter and promotion epoch loops —
// self-rescheduling events that would keep the engines busy forever —
// and drives the pod until nothing is pending anywhere. RunThreads and
// Serving.Run end in it.
func (p *Pod) quiesce() {
	for _, r := range p.racks {
		r.eng.Cancel(r.epochTick)
		r.eng.Cancel(r.promoTick)
		r.epochTick, r.promoTick = nil, nil
	}
	p.exec.drive(0, p.exec.idle)
}

// activeThreadCount sums started-but-unfinished threads over the racks.
// Rack counts are mutated by rack events; call only at barriers.
func (p *Pod) activeThreadCount() int {
	n := 0
	for _, r := range p.racks {
		n += r.activeThreads
	}
	return n
}

// SampleEvery registers a barrier-driven sampler: fn(now) runs at the
// first window barrier at or after each multiple of every. This
// replaces engine-scheduled self-rescheduling samplers, which would
// keep the engines eternally non-idle and — worse — run as rack events
// whose placement depends on the shard layout. Multi-rack pods only,
// and every must be positive: the barrier catches up on every tick due,
// so a zero period would never let it leave.
func (p *Pod) SampleEvery(every sim.Duration, fn func(now sim.Time)) {
	if !p.multiRack {
		panic("core: SampleEvery requires a multi-rack pod")
	}
	if every <= 0 {
		panic(fmt.Sprintf("core: SampleEvery period %v is not positive", every))
	}
	p.exec.sampleEvery = every
	p.exec.sampleFn = fn
	p.exec.nextSample = p.exec.vnow.Add(every)
}

// borrowAsync asks the pod for a remote memory blade able to hold a
// reservation of need bytes for rack r. The negotiation costs one
// inter-rack control round trip; done(ok) fires in the borrower's event
// context at the due time. Called from rack event context: the request
// only queues on the rack, and the barrier performs the allocator
// transfer exclusively (parexec.go).
func (p *Pod) borrowAsync(r *Rack, need uint64, done func(ok bool)) {
	due := r.eng.Now().Add(p.ic.CtrlRTT())
	r.pendingBorrows = append(r.pendingBorrows, deferred{due: due, run: func() {
		ok := p.borrow(r, need)
		r.eng.At(due, func() { done(ok) })
	}})
}

// borrow transfers one lendable blade from another rack to r. The
// lender scan starts at the next rack index, so load spreads
// deterministically. The lender's blade is only retired after the
// borrower successfully registers the partition, so a borrower-side
// failure (its address stripe cannot host the partition) leaves every
// lender fully intact. Barrier context only: it mutates two racks'
// allocators and blade tables.
func (p *Pod) borrow(r *Rack, need uint64) bool {
	n := len(p.racks)
	for k := 1; k < n; k++ {
		lender := p.racks[(r.idx+k)%n]
		// A blade the lender itself borrowed is not its to lend on: a
		// second-hand lease would record the wrong physical owner (and a
		// fabric node id from a third rack).
		id, ok := lender.ctl.Allocator().LendableBlade(need, func(id ctrlplane.BladeID) bool {
			return !lender.remoteBlade(id)
		})
		if !ok {
			continue
		}
		cap, err := lender.ctl.Allocator().BladeCapacity(id)
		if err != nil {
			continue
		}
		if err := lender.ctl.Allocator().SetBladeAvailable(id, false); err != nil {
			continue
		}
		newID, err := r.ctl.Allocator().AddBlade(cap)
		if err != nil {
			// Borrower-side failure: the lender keeps its blade. A
			// smaller blade from another lender may still fit the
			// borrower's stripe, so the scan continues.
			_ = lender.ctl.Allocator().SetBladeAvailable(id, true)
			continue
		}
		if err := lender.ctl.Allocator().RetireBlade(id); err != nil {
			// Unreachable: the blade is empty and was just made
			// unavailable, and borrows run exclusively at barriers.
			panic(fmt.Sprintf("core: lend of blade %d: %v", id, err))
		}
		lent := lender.mem[int(id)]
		r.attach(newID, lent.blade, lender.idx, lent.node)
		r.borrowed++
		p.col.IncH(p.hBorrows, 1)
		r.col.IncH(r.hBladeEvents, 1)
		return true
	}
	return false
}

// returnBlade hands an empty borrowed blade back to its owner: the
// owner re-registers it under a fresh local id (blade ids are never
// reused), and only then does the borrower retire its side — so a
// failed owner-side registration (e.g. the owner's address stripe is
// exhausted) leaves the lease fully intact instead of stranding the
// blade between the two allocators. Reports whether the return
// happened. Barrier context only.
func (p *Pod) returnBlade(borrower *Rack, id ctrlplane.BladeID) bool {
	owner := p.racks[borrower.mem[int(id)].owner]
	blade := borrower.mem[int(id)].blade
	cap, err := borrower.ctl.Allocator().BladeCapacity(id)
	if err != nil {
		return false
	}
	newID, err := owner.ctl.Allocator().AddBlade(cap)
	if err != nil {
		return false
	}
	if err := borrower.ctl.Allocator().SetBladeAvailable(id, false); err != nil {
		panic(fmt.Sprintf("core: return of borrowed blade %d: %v", id, err))
	}
	if err := borrower.ctl.Allocator().RetireBlade(id); err != nil {
		// Unreachable: the caller verified the blade holds nothing, and
		// returns run exclusively at barriers.
		panic(fmt.Sprintf("core: return of borrowed blade %d: %v", id, err))
	}
	blade.DropAll()
	node := fabric.MemNodeBase + fabric.NodeID(newID)
	owner.fab.AddNode(node)
	owner.attach(newID, blade, owner.idx, node)
	borrower.borrowed--
	p.col.IncH(p.hReturns, 1)
	owner.col.IncH(owner.hBladeEvents, 1)
	return true
}

// crossJob carries one switch -> home blade -> switch round trip
// through the engines (memRound). Jobs are pooled per requester rack,
// so the fault path allocates nothing in steady state; a job is
// allocated and freed on its requester's shard, and in between each
// stage runs on whichever shard currently holds the message — the
// handoffs ride the interconnect's boundary buffering, which is what
// makes the chain safe under the parallel executor.
type crossJob struct {
	p     *Pod
	from  *Rack // requester; for a local round trip also the owner
	owner *Rack // rack physically hosting the blade
	node  fabric.NodeID
	req   int          // request payload size
	resp  int          // response payload size
	dma   sim.Duration // blade-side service between request and response
	fn    func(any)
	arg   any
}

// memRound runs one switch -> home blade -> switch round trip for rack
// c against registered blade id: a req-byte request to the blade, dma
// of blade-side service, and a resp-byte response; fn(arg) fires when
// the response is ready at c's switch. For a local blade this is the
// classic two-hop path (bit-identical to the pre-pod fetch chain). For
// a borrowed blade the whole round trip is fused: request and response
// each cross the interconnect once, and every owner-side hop runs on
// the owner's shard.
func (c *Rack) memRound(id ctrlplane.BladeID, req, resp int, dma sim.Duration, fn func(any), arg any) {
	j := c.crossFree.Get()
	if j == nil {
		j = &crossJob{p: c.pod, from: c}
	}
	slot := &c.mem[int(id)]
	owner := c.pod.racks[slot.owner]
	j.owner, j.node, j.req, j.resp, j.dma, j.fn, j.arg = owner, slot.node, req, resp, dma, fn, arg
	if owner == c {
		c.fab.SendFromSwitchArg(j.node, req, memAtBlade, j)
		return
	}
	slot.heat++
	c.col.IncH(c.hCrossMsgs, 1)
	c.fab.TraverseEgressArg(memReqToUplink, j)
}

func (c *Rack) freeCrossJob(j *crossJob) (fn func(any), arg any) {
	fn, arg = j.fn, j.arg
	j.fn, j.arg = nil, nil
	j.owner = nil
	c.crossFree.Put(j)
	return fn, arg
}

// memReqToUplink: the request left the requester's egress pipeline;
// cross the interconnect.
func memReqToUplink(x any) {
	j := x.(*crossJob)
	j.p.ic.Send(j.from.idx, j.owner.idx, j.req, memReqAtOwner, j)
}

// memReqAtOwner: the request arrived at the owning rack's switch;
// traverse its ingress pipeline.
func memReqAtOwner(x any) {
	j := x.(*crossJob)
	j.owner.fab.TraverseIngressArg(memReqOwnerToBlade, j)
}

// memReqOwnerToBlade: the owner's data plane forwards to the blade (its
// egress + the blade's NIC).
func memReqOwnerToBlade(x any) {
	j := x.(*crossJob)
	if memLostWrite(j) {
		return
	}
	j.owner.fab.SendFromSwitchArg(j.node, j.req, memAtBlade, j)
}

// memAtBlade: the request reached the memory blade — NIC-only DMA
// service, no CPU (§6.2). A zero dma (page writebacks: the payload
// travelled with the request) turns the blade around immediately.
func memAtBlade(x any) {
	j := x.(*crossJob)
	if j.dma > 0 {
		j.owner.eng.ScheduleArg(j.dma, memDMADone, j)
		return
	}
	memDMADone(x)
}

// memDMADone: blade service finished; the response heads back to the
// owning switch.
func memDMADone(x any) {
	j := x.(*crossJob)
	if memLostWrite(j) {
		return
	}
	j.owner.fab.SendToSwitchArg(j.node, j.resp, memRespAtOwnerSwitch, j)
}

// memLostWrite completes a writeback whose borrowed blade's port went
// black while the write was in flight: the fabric would drop the send,
// and a flush barrier waiting on it would wedge its reset. Like
// wbAtSwitch's dead-home path, the reliable connection errors out
// instead — the write is marked lost and the error completion rides the
// response path back to the borrower. Fetches keep drop-and-timeout:
// the §4.4 retransmit path recovers them.
func memLostWrite(j *crossJob) bool {
	wb, ok := j.arg.(*wbJob)
	if !ok || !j.owner.fab.NodeDead(j.node) {
		return false
	}
	wb.lost = true
	j.owner.eng.ScheduleArg(j.owner.fab.OneWayBase(j.resp), memRespAtOwnerSwitch, j)
	return true
}

// memRespAtOwnerSwitch: the response is in the owning rack's switch.
// Local round trips complete here; remote ones cross back.
func memRespAtOwnerSwitch(x any) {
	j := x.(*crossJob)
	if j.owner == j.from {
		fn, arg := j.from.freeCrossJob(j)
		fn(arg)
		return
	}
	j.owner.col.IncH(j.owner.hCrossMsgs, 1)
	j.owner.fab.TraverseEgressArg(memRespToUplink, j)
}

// memRespToUplink: cross the interconnect back toward the requester.
func memRespToUplink(x any) {
	j := x.(*crossJob)
	j.p.ic.Send(j.owner.idx, j.from.idx, j.resp, memRespAtRequester, j)
}

// memRespAtRequester: arrival at the requester's switch; one ingress
// traversal and the data-plane continuation runs.
func memRespAtRequester(x any) {
	j := x.(*crossJob)
	from := j.from
	fn, arg := from.freeCrossJob(j)
	from.fab.TraverseIngressArg(fn, arg)
}
