package core

import (
	"mind/internal/computeblade"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
)

// AccessGen produces a thread's memory access stream: each call returns
// the next access; ok=false ends the thread. Generators must be
// deterministic.
type AccessGen func() (va mem.VA, write bool, ok bool)

// Thread executes an access stream on one compute blade under the
// cluster's consistency model.
type Thread struct {
	c     *Rack
	proc  *Process
	tid   ctrlplane.TID
	blade int
	pdid  mem.PDID

	gen      AccessGen
	done     bool
	ops      uint64
	faults   uint64
	finished func()

	// PSO state (§6.1): pages with writes still propagating.
	pendingWrites map[mem.VA]int
	pendingTotal  int

	// The parked access: step leaves a faulting access here and
	// schedules threadIssue after the accrued local time, instead of
	// minting a closure per fault. A PSO stall parks its access here too
	// and sets stalled; writeDrained replays it.
	issueVA    mem.VA
	issueWrite bool
	stalled    bool

	// Pre-bound completion callbacks, created once in Start: blockDone
	// resumes the main loop after a blocking access; asyncDone drains a
	// PSO write (the page comes back in AccessResult.Page).
	blockDone func(computeblade.AccessResult)
	asyncDone func(computeblade.AccessResult)
}

// Pre-bound thread continuations: scheduling them allocates neither a
// closure nor (steady-state) an event.
func threadStep(x any)   { x.(*Thread).step() }
func threadFinish(x any) { x.(*Thread).finish() }
func threadIssue(x any)  { x.(*Thread).issueBlocking() }

// TID returns the thread id.
func (t *Thread) TID() ctrlplane.TID { return t.tid }

// BladeID returns the hosting compute blade.
func (t *Thread) BladeID() int { return t.blade }

// Ops returns completed accesses.
func (t *Thread) Ops() uint64 { return t.ops }

// Faults returns the number of remote faults the thread triggered.
func (t *Thread) Faults() uint64 { return t.faults }

// Done reports whether the access stream is exhausted.
func (t *Thread) Done() bool { return t.done }

// thinkTime is the per-access CPU cost threads and serve workers pay
// between memory accesses (models instruction execution).
const thinkTime = 30 * sim.Nanosecond

// yieldQuantum bounds how much local (cache-hit) time a thread
// accumulates before re-entering the event loop, keeping virtual-time
// interleaving fine-grained.
const yieldQuantum = 5 * sim.Microsecond

// inlineBatch bounds hits processed per event dispatch.
const inlineBatch = 4096

// Start begins executing the generator; onFinish (optional) runs when the
// stream is exhausted.
func (t *Thread) Start(gen AccessGen, onFinish func()) {
	t.gen = gen
	t.finished = onFinish
	if t.c.cfg.Consistency != TSO {
		t.pendingWrites = make(map[mem.VA]int)
	}
	t.blockDone = func(computeblade.AccessResult) {
		t.ops++
		t.c.eng.ScheduleArg(0, threadStep, t)
	}
	t.asyncDone = func(r computeblade.AccessResult) { t.writeDrained(r.Page) }
	t.c.activeThreads++
	t.c.eng.ScheduleArg(0, threadStep, t)
}

func (t *Thread) finish() {
	if t.done {
		return
	}
	t.done = true
	t.c.activeThreads--
	if t.c.eng.Now() > t.c.lastFinish {
		t.c.lastFinish = t.c.eng.Now()
	}
	if t.finished != nil {
		t.finished()
	}
}

// step is the thread's main loop: cache hits are consumed inline
// (accumulating local virtual time), faults are issued after that local
// time elapses, and the thread resumes via completion callbacks.
func (t *Thread) step() {
	blade := t.c.cblades[t.blade]
	var local sim.Duration
	for i := 0; i < inlineBatch && local < yieldQuantum; i++ {
		va, write, ok := t.gen()
		if !ok {
			t.c.eng.ScheduleArg(local, threadFinish, t)
			return
		}
		local += thinkTime
		pso := t.pendingWrites != nil

		// PSO read-after-write hazard: block until the page's pending
		// writes drain (§6.1).
		if pso && !write && t.pendingWrites[mem.PageBase(va)] > 0 {
			t.issueVA, t.issueWrite, t.stalled = va, write, true
			return
		}

		if blade.TryHit(va, write) {
			t.ops++
			local += computeblade.HitLatency
			continue
		}

		// Miss. Under PSO, writes go asynchronous unless the store
		// buffer is full.
		if pso && write {
			if t.pendingTotal >= t.c.cfg.StoreBufferDepth {
				t.issueVA, t.issueWrite, t.stalled = va, write, true
				return
			}
			t.issueAsyncWrite(va)
			continue
		}

		// Blocking fault, issued after the accrued local time (at least
		// one positive think time).
		t.issueVA, t.issueWrite = va, write
		t.c.eng.ScheduleArg(local, threadIssue, t)
		return
	}
	t.c.eng.ScheduleArg(local, threadStep, t)
}

// issueBlocking performs the parked access and waits for it (TSO
// accesses, PSO reads): blockDone resumes the main loop, whether the
// cache or a fault served it.
func (t *Thread) issueBlocking() {
	if !t.c.cblades[t.blade].Access(t.pdid, t.issueVA, t.issueWrite, t.blockDone) {
		t.faults++
	}
}

// issueAsyncWrite starts a PSO write fault the thread does not wait on.
// It always follows a failed TryHit in the same event, so it is a miss.
func (t *Thread) issueAsyncWrite(va mem.VA) {
	t.ops++
	t.faults++
	t.pendingWrites[mem.PageBase(va)]++
	t.pendingTotal++
	t.c.cblades[t.blade].Access(t.pdid, va, true, t.asyncDone)
}

// writeDrained runs when an async PSO write completes.
func (t *Thread) writeDrained(page mem.VA) {
	if t.pendingWrites[page] > 0 {
		t.pendingWrites[page]--
		if t.pendingWrites[page] == 0 {
			delete(t.pendingWrites, page)
		}
	}
	if t.pendingTotal > 0 {
		t.pendingTotal--
	}
	// A stalled read resumes once its page drained, a stalled write once
	// any store-buffer slot freed.
	if !t.stalled || (!t.issueWrite && t.pendingWrites[mem.PageBase(t.issueVA)] > 0) {
		return
	}
	t.stalled = false
	t.replay()
}

// replay re-issues the stalled access, then continues the main loop.
func (t *Thread) replay() {
	if t.c.cblades[t.blade].TryHit(t.issueVA, t.issueWrite) {
		t.ops++
		t.c.eng.ScheduleArg(computeblade.HitLatency, threadStep, t)
		return
	}
	if t.issueWrite {
		t.issueAsyncWrite(t.issueVA)
		t.c.eng.ScheduleArg(0, threadStep, t)
		return
	}
	t.issueBlocking()
}

// RunThreads drives the engine until every started thread in the pod
// finishes, then stops the epoch loops and drains remaining events
// (in-flight writebacks etc.). It returns the virtual time at which the
// last thread finished.
func (c *Rack) RunThreads() sim.Time {
	return c.pod.RunThreads()
}
