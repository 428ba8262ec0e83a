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
	// dense disables the sparse-horizon jump: every 1-window barrier is
	// visited even when provably a no-op. The equivalence suites sweep
	// it to pin sparse execution bit-identical to the dense baseline.
	dense bool

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
	startExec := x.p.ExecutedEvents()
	for !stop() {
		if target == 0 && x.idle() {
			panic(wedged)
		}
		end := x.nextBarrier(target)
		x.runWindow(end)
		x.vnow = end
		x.windowsExecuted++
		// Elide the cross-rack merge entirely on a quiet boundary: the
		// pending counter is exact here (workers joined), so skipping
		// FlushBoundary when it is zero delivers the same nothing.
		if x.p.ic.PendingBoundary() > 0 {
			x.p.ic.FlushBoundary()
		} else {
			x.flushesElided++
		}
		x.barrier(end)
		if x.p.ExecutedEvents()-startExec > 2_000_000_000 {
			panic("core: pod drive exceeded event budget")
		}
	}
}

// runWindow runs every rack engine up to end. With n = min(workers,
// racks) above 1, worker w runs racks w, w+n, … on its own goroutine,
// and Wait orders every rack mutation of the window before the
// barrier's reads. No goroutine outlives the window.
func (x *podExec) runWindow(end sim.Time) {
	racks := x.p.racks
	n := min(x.workers, len(racks))
	if n <= 1 {
		for _, r := range racks {
			r.eng.RunWindow(end)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for i := w; i < len(racks); i += n {
				racks[i].eng.RunWindow(end)
			}
		}()
	}
	wg.Wait()
}

// nextBarrier returns the end of the next window to sweep. Dense mode
// always advances one window (capped at target). Sparse mode jumps
// ahead k windows when the k-1 intermediate grid barriers are provably
// no-ops, which is exactly when every obligation lies at or beyond the
// jump's end:
//
//   - earliest pending event: with every engine parked on vnow and the
//     outboxes empty (the previous barrier flushed), no rack can
//     dispatch before tE = min PeekTime across engines, and no
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
func (x *podExec) nextBarrier(target sim.Time) sim.Time {
	end := x.vnow.Add(x.window)
	if x.dense {
		if target != 0 && end > target {
			end = target
		}
		return end
	}
	k := x.safeJump(target)
	if k > 1 {
		end = x.vnow.Add(x.window * sim.Duration(k))
		x.windowsSkipped += uint64(k - 1)
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
func (x *podExec) safeJump(target sim.Time) int64 {
	w := int64(x.window)
	vnow := int64(x.vnow)
	const unbounded = int64(1) << 62
	k := unbounded

	// Earliest pending event across the rack engines. kE is the minimal
	// k with vnow+kW > tE, i.e. the jump's final window contains tE. One
	// pass, exiting on the first rack that forces the adjacent window —
	// an event inside it, or a flagged lease return (wantReturns can
	// only be set by a rack event and is consumed by the barrier
	// immediately after, so it is clear here; if it ever were set, the
	// next barrier must run it). In busy phases some rack nearly always
	// has imminent work, so the sparse check typically costs one peek
	// instead of a full sweep plus the obligation clamps below.
	for _, r := range x.p.racks {
		if r.wantReturns {
			return 1
		}
		t, ok := r.eng.PeekTime()
		if !ok {
			continue
		}
		kE := (int64(t)-vnow)/w + 1
		if kE <= 1 {
			return 1
		}
		if kE < k {
			k = kE
		}
	}
	// Sampler tick: minimal k with vnow+kW >= nextSample.
	if x.sampleFn != nil {
		if d := int64(x.nextSample) - vnow; d > 0 {
			if kS := (d + w - 1) / w; kS < k {
				k = kS
			}
		} else {
			k = 1
		}
	}
	// Queued fault injections (podfail.go) and borrow resolutions.
	for _, r := range x.p.racks {
		for _, f := range r.pendingFaults {
			k = min(k, x.barriersUntil(f.at))
		}
		for _, req := range r.pendingBorrows {
			k = min(k, x.barriersUntil(req.due))
		}
	}
	if target != 0 {
		// Dense mode reaches target in ceil((target-vnow)/W) windows;
		// never jump past that (nextBarrier caps the final window).
		if kT := (int64(target) - vnow + w - 1) / w; kT < k {
			k = kT
		}
	}
	if k < 1 || k == unbounded {
		// Clamped below a window (an overdue obligation — cannot happen
		// after a correct barrier, but never jump past one), or nothing
		// pending at all with no target (the idle/wedge check in drive
		// owns that case): advance exactly one window.
		return 1
	}
	return k
}

// barriersUntil returns how many grid windows the cursor may advance
// without deferring an obligation queued for time at — a fault to
// inject, a borrow to resolve. The first barrier end with at < end+W
// performs it (injectDueFaults, barrier), so the jump must stop at the
// minimal k with vnow+kW > at-W. Queued obligations satisfy at >= vnow+W
// (earlier ones were performed at registration or a prior barrier), so
// the bound is at least 1.
func (x *podExec) barriersUntil(at sim.Time) int64 {
	w := int64(x.window)
	return (int64(at)-w-int64(x.vnow))/w + 1
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
// is parked on end. It performs the flagged idle-blade returns, the due
// borrow negotiations, and the sampler — in rack-index order, so the
// outcome is independent of how the windows were scheduled.
func (x *podExec) barrier(end sim.Time) {
	// Failure injection precedes the barrier's lease traffic: a fault
	// due inside the next window [end, end+window) becomes ordinary
	// rack events at its exact injection time (podfail.go), before any
	// blade changes hands at this boundary.
	x.injectDueFaults(end.Add(x.window))
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
	horizon := end.Add(x.window)
	for _, r := range x.p.racks {
		if len(r.pendingBorrows) == 0 {
			continue
		}
		rest := r.pendingBorrows[:0]
		for _, req := range r.pendingBorrows {
			if req.due >= horizon {
				rest = append(rest, req)
				continue
			}
			ok := x.p.borrow(r, req.need)
			done := req.done
			r.eng.At(req.due, func() { done(ok) })
		}
		r.pendingBorrows = rest
	}
	if x.sampleFn != nil {
		for x.nextSample <= x.vnow {
			x.sampleFn(x.nextSample)
			x.nextSample = x.nextSample.Add(x.sampleEvery)
		}
	}
}
