package core

// Pod execution: the one loop that advances virtual time.
//
// Every way of running a pod — AdvanceTime, RunThreads, Serving.Run, the
// blocking API's await, and the quiesce that ends a run — is a stop
// condition handed to podExec.drive; no other code in this package
// advances an engine. What drive does per iteration, its quantum,
// depends on the one thing a rack can be made to wait for: another rack.
//
// A 1-rack pod has no peer, so its quantum is one event (Engine.Step):
// stop is evaluated after every dispatch and the drive ends on the very
// event that satisfied it. That is what keeps a 1-rack pod bit-identical
// to the classic single-engine simulation — a wider quantum would let an
// epoch tick slip in after the last thread finished. A multi-rack pod's
// quantum is one window of conservative lookahead:
//
// The inter-rack interconnect has a fixed propagation delay P: nothing a
// rack does can affect another rack in less than P of virtual time. The
// executor exploits exactly that bound. All rack engines advance in
// lockstep windows [vnow, vnow+W) with W = P; within a window each
// engine runs independently (runWindow fans the racks out over the
// configured workers), because any cross-rack message sent inside the
// window arrives no earlier than its uplink completion plus P — at or
// beyond the window's end. Sends buffer in the interconnect's
// per-source outboxes and the barrier between windows injects them into
// the destination engines (fabric.Interconnect.FlushBoundary), merged
// in deterministic arrival order.
//
// RunWindow dispatches strictly below the window end and then parks the
// engine's clock ON the boundary, so between windows every engine sits
// at exactly vnow. That makes the lookahead argument airtight: any
// event scheduled from barrier context lands at >= vnow, and any send
// booked during the next window departs at >= vnow, arriving at
// >= vnow + P = the next boundary.
//
// A window pays only for the racks with work due. The executor caches
// one next-event time per rack (podExec.next), and the invariant is
// that next[i] is never above rack i's earliest pending event. A rack
// whose entry is at or past the window's end has nothing to dispatch:
// it is parked (Engine.Park moves its clock to the boundary) instead of
// entered. A rack that runs gets its exact entry back from RunWindow,
// which had to find its next head to stop. A cancel only raises a head,
// so a stale low entry costs one wasted entry, never a skipped event.
// Every path that can put an event on rack i outside rack i's own
// window keeps the invariant:
//
//   - a boundary delivery lowers its destination's entry
//     (fabric.Interconnect.Deliveries);
//   - the barrier's slow path (fault injection, idle-lease returns,
//     borrow resolution), the sampler and the start of every drive, a
//     nested one included, mark the whole cache stale, and the next
//     iteration re-peeks every rack once.
//
// The barrier's own obligations are cached beside it: the earliest
// queued fault or borrow (due), and a flag a window raises when a rack
// that dispatched events has a lease return flagged or a borrow queued.
// So a quiet window — nothing due, no flag, no
// sampler tick — costs one pass over the cache (the minimum that sizes
// the jump), one Park per idle rack, one atomic load for the elided
// flush and one flag test at the barrier; no engine is touched but the
// ones with events. Dense mode
// still enters every rack every window, which makes it the oracle the
// skipping is checked against.
//
// Targets (AdvanceTime) differ accordingly, and only here: a 1-rack pod
// reaches its target with RunUntil, inclusively — an event at the target
// instant is dispatched, as the single-engine simulation always did —
// while a multi-rack pod's final window is capped at the target and,
// like every window, excludes its own end: events at the target instant
// wait for the next drive.
//
// The barrier is also the pod's exclusive section. Operations that
// inherently span racks — blade borrow/return (two allocators), idle
// lease returns, scheduled failure injection (podfail.go), the
// experiment sampler — run only here, with every engine parked. Rack
// events merely flag or enqueue them. Everything else a rack event
// touches is rack-local by construction: per-rack engine, collector,
// fabric, blade table, pools. No rack event writes a Pod field — a lease
// that ends in rack context (a borrowed blade drained or killed) ends in
// the borrower's own count, and Pod.Leases sums the counts at read;
// TestConcurrentBorrowedRetirements holds this under the race detector.
// A borrowed blade's page store belongs to the borrowing rack's shard
// for the duration of the lease (the owner retired it from its own
// tables), which is why data can land in it from borrower events.
//
// A blocking call (Rack.await) drives like every other run. Its
// synchronous prefix — e.g. a kill blackening a borrowed blade's port
// in the lender's fabric — runs on the caller's goroutine before the
// drive, with every engine parked; everything after it is rack events.
// No goroutine outlives a window, so an idle pod holds none, and a
// drive nested in barrier-context code is just another drive.
//
// Determinism: none of this depends on the worker count. Window
// contents are fixed by the event schedule, boundary injection order is
// fixed by arrival time (ties by source rack, then send order), and
// barrier work runs in rack-index order. 1-worker and N-worker
// execution produce bit-identical simulations; workers only change
// wall-clock time. The conformance pod storm (conformance.RunPodSchedule,
// searched by FuzzPodSchedule) enforces this with engine dispatch hashes.

import (
	"sync"

	"mind/internal/sim"
)

// borrowReq is one queued blade-borrow negotiation: the allocator
// transfer happens at the barrier preceding the window that contains
// due, and done(ok) fires as a borrower event at due.
type borrowReq struct {
	need uint64
	due  sim.Time
	done func(ok bool)
}

// podExec advances a pod's engines: one event at a time for a 1-rack
// pod, in lockstep windows for a multi-rack one.
type podExec struct {
	p *Pod
	// window is the executor's lookahead: the lockstep window width,
	// the interconnect propagation delay (the conservative bound), or
	// unbounded for a 1-rack pod, which waits for nobody.
	window sim.Duration
	// workers is how many goroutines a window fans out to.
	workers int
	// vnow is the window cursor of a multi-rack pod: every rack engine
	// sits exactly here between drives.
	vnow sim.Time
	// dense disables the sparse-horizon jump, and with it parking: every
	// 1-window barrier is visited and every rack entered even when
	// provably a no-op. The equivalence suites sweep it to pin sparse
	// execution bit-identical to the dense baseline.
	dense bool

	// next caches each rack's next event time (sim.MaxTime: none). The
	// invariant, held between windows: next[i] is never above rack i's
	// earliest pending event (see the file comment for what keeps it).
	// Multi-rack pods only.
	next []sim.Time
	// stale marks next as untrusted: some path put events on a rack
	// without lowering its entry, so the next iteration re-peeks every
	// rack once (refresh).
	stale bool
	// work: a window left barrier work behind — a flagged lease return
	// or a queued borrow on a rack that dispatched events. Only rack
	// events flag returns and queue borrows, so only windows raise it.
	work bool
	// due is the earliest queued fault injection or borrow resolution
	// (sim.MaxTime: none); at a barrier it is never above either.
	// scheduleFault lowers it, a borrow queued inside a window raises
	// work instead, and the barrier's slow path recomputes it from the
	// faults and borrows it leaves queued.
	due sim.Time
	// executed counts the events windows dispatched: the drive's budget.
	executed uint64
	// entered and parked count, per rack, the windows that ran its
	// engine and the windows that only parked its clock.
	entered, parked []uint64
	// lanes holds each worker's tally of one window, reduced after Wait.
	lanes []lane

	// Barrier-driven sampler (Pod.SampleEvery).
	sampleEvery sim.Duration
	sampleFn    func(sim.Time)
	nextSample  sim.Time

	// Executor observability, read via Pod.WindowStats: windows actually
	// swept, grid windows skipped by the sparse-horizon jump, and
	// barriers whose cross-rack flush was elided (no buffered sends).
	windowsExecuted uint64
	windowsSkipped  uint64
	flushesElided   uint64
}

// lane is one worker's tally of a window: events dispatched and whether
// any of its racks left barrier work.
type lane struct {
	events uint64
	work   bool
}

// newPodExec builds the executor; a multi-rack pod gets the per-rack
// next-event cache, which every drive starts by peeking.
func newPodExec(p *Pod, window sim.Duration, workers int, dense bool) *podExec {
	x := &podExec{p: p, window: window, workers: max(workers, 1), dense: dense,
		due: sim.MaxTime}
	if p.multiRack {
		n := len(p.racks)
		x.next = make([]sim.Time, n)
		x.entered = make([]uint64, n)
		x.parked = make([]uint64, n)
		x.lanes = make([]lane, min(x.workers, n))
	}
	return x
}

// wedged: stop() does not hold and nothing is left that could make it.
const wedged = "core: pod drive ran out of events (protocol wedge)"

// drive advances the pod, quantum by quantum (see the file comment),
// until stop() reports done. A nonzero target bounds the drive
// (AdvanceTime, whose stop is "the target is reached"); a zero target
// means "until stop", and running dry beforehand is a wedge. The 1-rack
// loop carries no budget and no bookkeeping: it is every figure's inner
// loop. Every caller — AdvanceTime, RunThreads, Serving.Run, quiesce and
// the blocking API's await — drives the same way.
//
// In sparse mode (the default) each iteration jumps the cursor directly
// to the window containing the pod's safe horizon (nextBarrier),
// collapsing every provably-empty grid window in between into the
// single barrier at the jump's end. stop() need not be re-evaluated at
// the skipped boundaries: every stop condition used by callers
// (targets, thread counts, serve completion, await flags, idleness) can
// only change through dispatched events or barrier work, and the
// skipped region has neither.
//
// Code between drives may schedule anything on any rack, so a drive
// starts with the next-event cache stale. A drive nested in barrier
// code starts the same way, and the barrier code around it marks the
// cache stale again when it is done.
func (x *podExec) drive(target sim.Time, stop func() bool) {
	if !x.p.multiRack {
		eng := x.p.racks[0].eng
		if target != 0 {
			eng.RunUntil(target)
		}
		for !stop() {
			if !eng.Step() {
				panic(wedged)
			}
		}
		return
	}
	x.stale = true
	start := x.executed
	for !stop() {
		if x.stale {
			x.refresh()
		}
		head := x.earliest()
		// next[i] == MaxTime means rack i has no event at all, so only an
		// empty cache can be a wedge; idle() confirms it.
		if target == 0 && head == sim.MaxTime && x.idle() {
			panic(wedged)
		}
		end := x.nextBarrier(target, head)
		x.runWindow(end)
		x.vnow = end
		x.windowsExecuted++
		// Elide the cross-rack merge entirely on a quiet boundary: the
		// pending counter is exact here (workers joined), so skipping
		// FlushBoundary when it is zero delivers the same nothing. A
		// delivery lowers its destination's cached next event.
		if x.p.ic.PendingBoundary() > 0 {
			x.p.ic.FlushBoundary()
			for _, d := range x.p.ic.Deliveries() {
				x.next[d.To] = min(x.next[d.To], d.At)
			}
		} else {
			x.flushesElided++
		}
		x.barrier(end)
		if x.executed-start > 2_000_000_000 {
			panic("core: pod drive exceeded event budget")
		}
	}
}

// refresh re-reads every rack's cached next event from its engine.
func (x *podExec) refresh() {
	for i, r := range x.p.racks {
		t, ok := r.eng.PeekTime()
		if !ok {
			t = sim.MaxTime
		}
		x.next[i] = t
	}
	x.stale = false
}

// earliest returns the pod's earliest cached next event (sim.MaxTime:
// no rack has one).
func (x *podExec) earliest() sim.Time {
	head := sim.MaxTime
	for _, t := range x.next {
		head = min(head, t)
	}
	return head
}

// runWindow advances every rack to end. With n = min(workers, racks)
// above 1, worker w steps racks w, w+n, … on its own goroutine, writing
// only those racks' cache entries and its own lane, and Wait orders
// every rack mutation of the window before the reduction and the
// barrier's reads. No goroutine outlives the window.
func (x *podExec) runWindow(end sim.Time) {
	n := min(x.workers, len(x.p.racks))
	if n <= 1 {
		x.lanes[0] = x.stepRacks(0, 1, end)
	} else {
		var wg sync.WaitGroup
		wg.Add(n)
		for w := 0; w < n; w++ {
			go func() {
				defer wg.Done()
				x.lanes[w] = x.stepRacks(w, n, end)
			}()
		}
		wg.Wait()
	}
	for _, l := range x.lanes[:n] {
		x.executed += l.events
		x.work = x.work || l.work
	}
}

// stepRacks advances racks first, first+stride, … to end. In sparse
// mode a rack whose cached next event is at or past end has nothing to
// dispatch and is only parked; otherwise its window runs and reports
// the new head. The lane tallies the events dispatched and whether a
// window left barrier work: a flagged lease return or a queued borrow.
func (x *podExec) stepRacks(first, stride int, end sim.Time) (l lane) {
	racks := x.p.racks
	for i := first; i < len(racks); i += stride {
		r := racks[i]
		if !x.dense && x.next[i] >= end {
			r.eng.Park(end)
			x.parked[i]++
			continue
		}
		x.entered[i]++
		executed := r.eng.Executed
		t, ok := r.eng.RunWindow(end)
		if !ok {
			t = sim.MaxTime
		}
		x.next[i] = t
		// Only an event flags a lease return or queues a borrow. A queued
		// borrow not yet due raises work too: the slow path it costs is
		// exact, and borrows are rare.
		if n := r.eng.Executed - executed; n > 0 {
			l.events += n
			l.work = l.work || r.wantReturns || len(r.pendingBorrows) > 0
		}
	}
	return l
}

// nextBarrier returns the end of the next window to sweep; head is the
// pod's earliest cached next event. Dense mode always advances one
// window (capped at target). Sparse mode jumps ahead k windows when the
// k-1 intermediate grid barriers are provably no-ops, which is exactly
// when every obligation lies at or beyond the jump's end:
//
//   - earliest pending event: with every engine parked on vnow and the
//     outboxes empty (the previous barrier flushed), no rack can
//     dispatch before tE = min over racks of the next event, and no
//     cross-rack send can exist before a dispatch. The jump lands on
//     the grid window containing tE, so skipped windows dispatch
//     nothing, flush nothing, and consume no sequence numbers — the
//     (time, seq) dispatch order is bit-identical to grinding densely.
//     Sends booked inside the final window still arrive at or beyond
//     its boundary (send time >= end-W, propagation >= W).
//   - sampler tick: the dense run fires sampleFn at the first barrier
//     >= nextSample; the jump stops there.
//   - pending fault injection / borrow resolution: each resolves at the
//     first barrier end with at < end+W (podfail.go / barrier); the
//     jump stops at that barrier so injection happens at the same grid
//     point, at the same vnow, as in dense mode.
//   - run target: the final window is capped exactly as dense capping
//     would, so AdvanceTime lands on its deadline and the grid
//     re-anchors there identically.
//
// Serve-termination probes and thread-completion checks need no clamp:
// they are stop() conditions evaluated at barriers, and nothing in a
// skipped region can change them (see drive).
func (x *podExec) nextBarrier(target, head sim.Time) sim.Time {
	end := x.vnow.Add(x.window)
	if !x.dense {
		if k := x.safeJump(target, head); k > 1 {
			end = x.vnow.Add(x.window * sim.Duration(k))
			x.windowsSkipped += uint64(k - 1)
		}
	}
	if target != 0 && end > target {
		end = target
	}
	return end
}

// safeJump returns how many grid windows the cursor may advance in one
// sweep: the largest k such that no obligation (event dispatch, sampler
// tick, fault injection, borrow resolution) is due at any of the k-1
// intermediate barriers. Returns at least 1. Barrier context only.
//
// Each obligation bounds the jump by a latest instant lim that the
// final window must contain — the minimal k with vnow+kW > lim — so the
// clamps fold into one minimum and k = (lim-vnow)/W + 1, one division,
// taken only when lim lies past the adjacent window:
//
//   - an event at tE must be inside the final window: lim = tE;
//   - a sampler tick fires at the first barrier >= nextSample:
//     lim = nextSample-1;
//   - a fault or borrow due at t resolves at the first barrier end with
//     t < end+W (barriersUntil's clamp): lim = t-W;
//   - dense mode reaches target in ceil((target-vnow)/W) windows, never
//     jump past that (nextBarrier caps the final window): lim = target-1.
func (x *podExec) safeJump(target, head sim.Time) int64 {
	lim := head
	if x.sampleFn != nil {
		lim = min(lim, x.nextSample-1)
	}
	if x.due != sim.MaxTime {
		lim = min(lim, x.due.Add(-x.window))
	}
	if target != 0 {
		lim = min(lim, target-1)
	}
	// Below the adjacent window's end an obligation forces it; an
	// unbounded lim (nothing pending, no target) leaves the wedge check
	// in drive to own the case: advance exactly one window.
	if lim < x.vnow.Add(x.window) || lim == sim.MaxTime {
		return 1
	}
	return int64(lim.Sub(x.vnow)/x.window) + 1
}

// idle reports whether the pod can make no further progress: every
// engine empty and no queued borrow negotiations. Outboxes are always
// empty here (the previous barrier flushed them).
func (x *podExec) idle() bool {
	for _, r := range x.p.racks {
		if r.eng.Pending() > 0 || len(r.pendingBorrows) > 0 || len(r.pendingFaults) > 0 {
			return false
		}
	}
	return true
}

// barrier is the exclusive section between windows: every rack engine
// is parked on end. It performs the due fault injections, the flagged
// idle-blade returns, the due borrow negotiations, and the sampler — in
// rack-index order, so the outcome is independent of how the windows
// were scheduled. A quiet barrier — no rack flagged work, no fault or
// borrow due inside the next window, no sampler tick — is one test.
// Everything behind the test may schedule on any rack, so it leaves the
// next-event cache stale.
func (x *podExec) barrier(end sim.Time) {
	horizon := end.Add(x.window)
	if x.work || x.due < horizon {
		x.work, x.due = false, sim.MaxTime
		// Failure injection precedes the barrier's lease traffic: a fault
		// due inside the next window [end, end+window) becomes ordinary
		// rack events at its exact injection time (podfail.go), before any
		// blade changes hands at this boundary.
		x.injectDueFaults(horizon)
		for _, r := range x.p.racks {
			if r.wantReturns {
				r.wantReturns = false
				r.returnIdleBorrowedBlades()
			}
		}
		// A borrow whose due time falls inside the next window [end,
		// end+window) must resolve now; later ones keep waiting. done fires
		// as a normal borrower event at the due time, so threads observe
		// the negotiation RTT exactly.
		for _, r := range x.p.racks {
			if len(r.pendingBorrows) == 0 {
				continue
			}
			rest := r.pendingBorrows[:0]
			for _, req := range r.pendingBorrows {
				if req.due >= horizon {
					rest = append(rest, req)
					x.due = min(x.due, req.due)
					continue
				}
				ok := x.p.borrow(r, req.need)
				done := req.done
				r.eng.At(req.due, func() { done(ok) })
			}
			r.pendingBorrows = rest
		}
		x.stale = true
	}
	if x.sampleFn != nil && x.nextSample <= x.vnow {
		for x.nextSample <= x.vnow {
			x.sampleFn(x.nextSample)
			x.nextSample = x.nextSample.Add(x.sampleEvery)
		}
		x.stale = true
	}
}
