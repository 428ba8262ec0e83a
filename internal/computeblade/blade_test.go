package computeblade

import (
	"testing"

	"mind/internal/coherence"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// fakeSwitch fabricates completions with a configurable latency and drop
// behaviour, letting us unit-test the blade's fault machinery without a
// full rack.
type fakeSwitch struct {
	eng      *sim.Engine
	latency  sim.Duration
	dropNext int // swallow this many requests (simulating loss)
	writable bool
	requests int
	resets   int
}

func (f *fakeSwitch) deps(col *stats.Collector) Deps {
	return Deps{
		Engine:    f.eng,
		Collector: col,
		SendRequest: func(pdid mem.PDID, va mem.VA, want mem.Perm, done func(coherence.Completion)) {
			f.requests++
			if f.dropNext > 0 {
				f.dropNext--
				return
			}
			f.eng.Schedule(f.latency, func() {
				done(coherence.Completion{Writable: f.writable || want == mem.PermReadWrite, Transition: "I->S"})
			})
		},
		Writeback: func(va mem.VA, data []byte, done func()) {
			f.eng.Schedule(500*sim.Nanosecond, done)
		},
		FetchData: func(va mem.VA, dst []byte) []byte { return nil },
		Reset: func(va mem.VA, done func()) {
			f.resets++
			f.eng.Schedule(f.latency, done)
		},
	}
}

func newTestBlade(t *testing.T, sw *fakeSwitch, cachePages int) (*Blade, *stats.Collector) {
	t.Helper()
	col := stats.NewCollector()
	cfg := DefaultConfig(0, cachePages)
	cfg.FaultTimeout = 100 * sim.Microsecond
	cfg.MaxRetries = 2
	return New(cfg, sw.deps(col)), col
}

func TestFaultCompletesAndCaches(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 5 * sim.Microsecond}
	b, col := newTestBlade(t, sw, 8)
	var res AccessResult
	fired := false
	if hit := b.Access(1, 0x1234, false, func(r AccessResult) { res = r; fired = true }); hit {
		t.Fatal("cold access hit")
	}
	eng.Run()
	if !fired || res.Err != nil {
		t.Fatalf("fault did not complete: %v %v", fired, res.Err)
	}
	// Total = pgfault + latency + PTE install.
	want := b.cfg.PageFaultCost + 5*sim.Microsecond + b.cfg.PTEInstall
	if res.Total != want {
		t.Errorf("total = %v, want %v", res.Total, want)
	}
	if !wouldHit(b, 0x1234, false) {
		t.Error("page not cached after fault")
	}
	if wouldHit(b, 0x1234, true) {
		t.Error("read fault should not grant write")
	}
	if col.Counter(stats.CtrAccesses) != 1 {
		t.Errorf("accesses = %d", col.Counter(stats.CtrAccesses))
	}
}

func TestFaultSharingAcrossThreads(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 5 * sim.Microsecond}
	b, _ := newTestBlade(t, sw, 8)
	done := 0
	for i := 0; i < 3; i++ {
		b.Access(1, 0x1000, false, func(r AccessResult) { done++ })
	}
	eng.Run()
	if done != 3 {
		t.Fatalf("waiters completed = %d", done)
	}
	if sw.requests != 1 {
		t.Errorf("requests = %d, want 1 (fault sharing)", sw.requests)
	}
}

func TestReadAndWriteFaultsAreSeparate(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 5 * sim.Microsecond}
	b, _ := newTestBlade(t, sw, 8)
	b.Access(1, 0x1000, false, func(AccessResult) {})
	b.Access(1, 0x1000, true, func(AccessResult) {})
	eng.Run()
	if sw.requests != 2 {
		t.Errorf("requests = %d, want 2 (distinct want levels)", sw.requests)
	}
}

func TestTimeoutRetransmits(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 5 * sim.Microsecond, dropNext: 1}
	b, col := newTestBlade(t, sw, 8)
	fired := false
	b.Access(1, 0x1000, false, func(r AccessResult) { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("fault never completed after retransmit")
	}
	if sw.requests != 2 {
		t.Errorf("requests = %d, want 2", sw.requests)
	}
	if col.Counter(stats.CtrRetransmits) != 1 {
		t.Errorf("retransmits = %d", col.Counter(stats.CtrRetransmits))
	}
	if sw.resets != 0 {
		t.Error("reset should not fire for a single loss")
	}
}

func TestResetAfterMaxRetries(t *testing.T) {
	eng := sim.NewEngine()
	// Swallow the original + both retries: the blade must escalate to
	// reset, then the post-reset retry succeeds.
	sw := &fakeSwitch{eng: eng, latency: 5 * sim.Microsecond, dropNext: 3}
	b, _ := newTestBlade(t, sw, 8)
	fired := false
	b.Access(1, 0x1000, false, func(r AccessResult) { fired = true })
	eng.Run()
	if sw.resets != 1 {
		t.Fatalf("resets = %d, want 1", sw.resets)
	}
	if !fired {
		t.Fatal("fault never completed after reset")
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 1 * sim.Microsecond}
	b, col := newTestBlade(t, sw, 2)
	for i := 0; i < 4; i++ {
		va := mem.VA(0x1000 * (i + 1))
		b.Access(1, va, true, func(AccessResult) {})
		eng.Run()
	}
	if col.Counter(stats.CtrEvictions) != 2 {
		t.Errorf("evictions = %d, want 2", col.Counter(stats.CtrEvictions))
	}
	if col.Counter(stats.CtrWritebacks) != 2 {
		t.Errorf("writebacks = %d, want 2 (all dirty)", col.Counter(stats.CtrWritebacks))
	}
}

func TestInvalidationFlushAndDrop(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 1 * sim.Microsecond}
	b, _ := newTestBlade(t, sw, 16)
	// Cache 3 pages in a 16KB region, two dirty.
	for i := 0; i < 3; i++ {
		b.Access(1, mem.VA(0x4000+i*0x1000), i < 2, func(AccessResult) {})
		eng.Run()
	}
	var ack coherence.AckInfo
	b.HandleInvalidation(coherence.Invalidation{
		Region:    mem.Range{Base: 0x4000, Size: 0x4000},
		Requested: 0x4000,
	}, func(info coherence.AckInfo) { ack = info })
	eng.Run()
	if ack.FlushedDirty != 2 {
		t.Errorf("flushed = %d, want 2", ack.FlushedDirty)
	}
	if ack.FalseInvals != 1 {
		t.Errorf("false invals = %d, want 1 (page other than requested)", ack.FalseInvals)
	}
	if ack.TLBTime == 0 {
		t.Error("PTE changes require a TLB shootdown")
	}
	if b.Cache().Len() != 0 {
		t.Error("invalidation left pages cached")
	}
}

func TestDowngradeKeepsReadOnlyCopies(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 1 * sim.Microsecond}
	b, _ := newTestBlade(t, sw, 16)
	b.Access(1, 0x4000, true, func(AccessResult) {})
	eng.Run()
	var ack coherence.AckInfo
	b.HandleInvalidation(coherence.Invalidation{
		Region:    mem.Range{Base: 0x4000, Size: 0x4000},
		Requested: 0x4000,
		Downgrade: true,
	}, func(info coherence.AckInfo) { ack = info })
	eng.Run()
	if ack.FlushedDirty != 1 {
		t.Errorf("downgrade ack = %+v", ack)
	}
	if !wouldHit(b, 0x4000, false) {
		t.Error("downgrade dropped the copy")
	}
	if wouldHit(b, 0x4000, true) {
		t.Error("downgrade left the page writable")
	}
}

func TestInvalidationOfUncachedRegionAcksClean(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 1 * sim.Microsecond}
	b, _ := newTestBlade(t, sw, 8)
	var ack coherence.AckInfo
	acked := false
	// Spurious invalidation (stale sharer list after silent eviction,
	// §4.3.1): must ACK immediately with no flushes and no TLB cost.
	b.HandleInvalidation(coherence.Invalidation{
		Region:    mem.Range{Base: 0x8000, Size: 0x4000},
		Requested: 0x8000,
	}, func(info coherence.AckInfo) { ack = info; acked = true })
	eng.Run()
	if !acked {
		t.Fatal("no ack")
	}
	if ack.FlushedDirty != 0 || ack.TLBTime != 0 {
		t.Errorf("spurious invalidation ack = %+v", ack)
	}
}

func TestInvalidationQueueingDelay(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 1 * sim.Microsecond}
	b, _ := newTestBlade(t, sw, 8)
	var delays []sim.Duration
	for i := 0; i < 3; i++ {
		b.HandleInvalidation(coherence.Invalidation{
			Region:    mem.Range{Base: mem.VA(0x10000 * (i + 1)), Size: 0x4000},
			Requested: mem.VA(0x10000 * (i + 1)),
		}, func(info coherence.AckInfo) { delays = append(delays, info.QueueDelay) })
	}
	eng.Run()
	if len(delays) != 3 {
		t.Fatalf("acks = %d", len(delays))
	}
	if delays[0] != 0 {
		t.Errorf("first delay = %v", delays[0])
	}
	// The serial handler queues the rest (Figure 7 right "Inv (queue)").
	if delays[1] == 0 || delays[2] <= delays[1] {
		t.Errorf("queueing not increasing: %v", delays)
	}
}

func TestAccessMissWithNilCallbackPanics(t *testing.T) {
	eng := sim.NewEngine()
	sw := &fakeSwitch{eng: eng, latency: 1 * sim.Microsecond}
	b, _ := newTestBlade(t, sw, 8)
	defer func() {
		if recover() == nil {
			t.Error("miss with nil callback should panic")
		}
	}()
	b.Access(1, 0x9999, false, nil)
}

// TestFaultPoolDuplicateCompletion pins the fault-pool safety rule: when
// a retransmitted request produces a second completion, the fault must
// not recycle until both completions have landed, and the duplicate must
// be ignored — no double settle, no corrupted reuse.
func TestFaultPoolDuplicateCompletion(t *testing.T) {
	eng := sim.NewEngine()
	col := stats.NewCollector()
	cfg := DefaultConfig(0, 8)
	cfg.FaultTimeout = 100 * sim.Microsecond
	cfg.MaxRetries = 2
	// A switch that answers EVERY request it sees, but the first answer
	// arrives only after the blade has timed out and retransmitted — so
	// the blade receives two completions for one fault.
	var b *Blade
	answers := 0
	deps := Deps{
		Engine:    eng,
		Collector: col,
		SendRequest: func(pdid mem.PDID, va mem.VA, want mem.Perm, done func(coherence.Completion)) {
			answers++
			delay := 10 * sim.Microsecond
			if answers == 1 {
				delay = 150 * sim.Microsecond // past FaultTimeout
			}
			eng.Schedule(delay, func() {
				done(coherence.Completion{Writable: true, Transition: "I->M"})
			})
		},
		Writeback: func(va mem.VA, data []byte, done func()) { eng.Schedule(1, done) },
		FetchData: func(va mem.VA, dst []byte) []byte { return nil },
		Reset:     func(va mem.VA, done func()) { eng.Schedule(1, done) },
	}
	b = New(cfg, deps)
	completions := 0
	if hit := b.Access(1, 0x4000, true, func(r AccessResult) {
		completions++
		if r.Err != nil {
			t.Errorf("fault failed: %v", r.Err)
		}
	}); hit {
		t.Fatal("cold access hit")
	}
	eng.Run()
	if answers != 2 {
		t.Fatalf("switch answered %d requests, want 2 (original + retransmission)", answers)
	}
	if completions != 1 {
		t.Fatalf("waiter completed %d times, want exactly 1", completions)
	}
	if got := col.Counter(stats.CtrRetransmits); got != 1 {
		t.Errorf("retransmits = %d, want 1", got)
	}
	// With both completions consumed, the fault must now be recycled and
	// reusable without corrupting the previous outcome.
	if b.faultFree.Len() != 1 {
		t.Fatalf("fault pool holds %d, want 1 (recycle deferred until the duplicate landed)", b.faultFree.Len())
	}
	done2 := false
	if hit := b.Access(1, 0x8000, false, func(r AccessResult) { done2 = true }); hit {
		t.Fatal("second cold access hit")
	}
	eng.Run()
	if !done2 {
		t.Fatal("recycled fault did not complete a fresh access")
	}
}

// TestFaultDoubleRetryReissue pins the stacked-reissue interleaving: when
// a timed-out fault's original AND retransmitted requests both bounce
// with Retry (e.g. the region is frozen for a migration drain), two
// reissue events queue back to back with no completion in between. The
// second must not trip over the first's re-armed timeout timer.
func TestFaultDoubleRetryReissue(t *testing.T) {
	eng := sim.NewEngine()
	col := stats.NewCollector()
	cfg := DefaultConfig(0, 8)
	cfg.FaultTimeout = 100 * sim.Microsecond
	cfg.MaxRetries = 3
	answers := 0
	deps := Deps{
		Engine:    eng,
		Collector: col,
		SendRequest: func(pdid mem.PDID, va mem.VA, want mem.Perm, done func(coherence.Completion)) {
			answers++
			switch answers {
			case 1:
				// The original's Retry arrives only after the blade has
				// retransmitted...
				eng.Schedule(110*sim.Microsecond, func() { done(coherence.Completion{Retry: true}) })
			case 2:
				// ...and the retransmission's Retry lands right behind it,
				// inside the first reissue's PageFaultCost window.
				eng.Schedule(10*sim.Microsecond+200*sim.Nanosecond, func() { done(coherence.Completion{Retry: true}) })
			default:
				eng.Schedule(50*sim.Microsecond, func() { done(coherence.Completion{Writable: true, Transition: "I->S"}) })
			}
		},
		Writeback: func(va mem.VA, data []byte, done func()) { eng.Schedule(1, done) },
		FetchData: func(va mem.VA, dst []byte) []byte { return nil },
		Reset:     func(va mem.VA, done func()) { eng.Schedule(1, done) },
	}
	b := New(cfg, deps)
	completed := false
	if hit := b.Access(1, 0xA000, false, func(r AccessResult) {
		completed = true
		if r.Err != nil {
			t.Errorf("fault failed: %v", r.Err)
		}
	}); hit {
		t.Fatal("cold access hit")
	}
	eng.Run() // must not panic ("Rearm of a pending event")
	if !completed {
		t.Fatal("fault never completed after double Retry")
	}
}
