package fabric

import (
	"testing"

	"mind/internal/sim"
)

// twoRacks builds an interconnect between two racks, each on an engine
// of its own.
func twoRacks(cfg InterConfig) (*Interconnect, []*sim.Engine) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	return NewShardedInterconnect(engs, cfg), engs
}

func TestInterconnectUnloadedLatency(t *testing.T) {
	ic, engs := twoRacks(DefaultInterConfig())
	var at sim.Time
	ic.Send(0, 1, PageBytes, func(any) { at = engs[1].Now() }, nil)
	ic.FlushBoundary()
	engs[1].Run()
	want := ic.OneWay(PageBytes)
	if got := at.Sub(0); got != want {
		t.Fatalf("unloaded crossing = %v, want OneWay = %v", got, want)
	}
	if ic.Sent() != 1 || ic.BytesSent() != PageBytes {
		t.Fatalf("accounting: sent=%d bytes=%d", ic.Sent(), ic.BytesSent())
	}
}

// TestInterconnectZeroConfigDefaults pins the defaulting bugfix: a
// zero-value InterConfig used to keep Propagation and Overhead at zero
// (a free spine, and a zero-width lookahead window), while the other
// fields were defaulted. All fields must now default consistently.
func TestInterconnectZeroConfigDefaults(t *testing.T) {
	ic, _ := twoRacks(InterConfig{})
	def := DefaultInterConfig()
	got := ic.Config()
	if got != def {
		t.Fatalf("zero-value config defaulted to %+v, want %+v", got, def)
	}
	if ic.OneWay(0) == 0 {
		t.Fatal("zero-value config yields a zero-latency spine")
	}
}

// TestInterconnectSerializeRoundsUp pins the truncation bugfix:
// sub-bandwidth payloads (1-4 bytes at 5 B/ns) used to serialize for
// 0 ns. Any nonzero payload must cost at least 1 ns of lane time, so a
// 1-byte crossing is strictly slower than the payload-free baseline.
func TestInterconnectSerializeRoundsUp(t *testing.T) {
	ic, _ := twoRacks(DefaultInterConfig())
	if ic.OneWay(1) <= ic.OneWay(0) {
		t.Fatalf("OneWay(1)=%v not above OneWay(0)=%v: 1-byte payload serialized for free",
			ic.OneWay(1), ic.OneWay(0))
	}
	// 7 bytes at 5 B/ns is 1.4 ns on the wire; truncation said 1 ns.
	if ic.OneWay(7) <= ic.OneWay(5) {
		t.Fatalf("OneWay(7)=%v not above OneWay(5)=%v: fractional ns truncated",
			ic.OneWay(7), ic.OneWay(5))
	}
}

// TestInterconnectConcurrentSends pins the counter-sharding bugfix: with
// per-rack engines, racks send concurrently, and the old bare
// Sent/BytesSent fields were a data race (run under -race to see it on
// the pre-fix code). Sharded per source port, parallel sends from
// distinct racks are safe and the merged totals exact.
func TestInterconnectConcurrentSends(t *testing.T) {
	const racks = 4
	const perRack = 1000
	engs := make([]*sim.Engine, racks)
	for i := range engs {
		engs[i] = sim.NewEngine()
	}
	ic := NewShardedInterconnect(engs, DefaultInterConfig())
	done := make(chan struct{}, racks)
	for r := 0; r < racks; r++ {
		go func(r int) {
			for i := 0; i < perRack; i++ {
				ic.Send(r, (r+1)%racks, CtrlMsgBytes, func(any) {}, nil)
			}
			done <- struct{}{}
		}(r)
	}
	for r := 0; r < racks; r++ {
		<-done
	}
	if ic.Sent() != racks*perRack || ic.BytesSent() != racks*perRack*CtrlMsgBytes {
		t.Fatalf("accounting after concurrent sends: sent=%d bytes=%d", ic.Sent(), ic.BytesSent())
	}
}

// TestInterconnectBufferedDelivery checks boundary buffering: sends on a
// sharded interconnect stay in the outbox until FlushBoundary, then land
// on the destination engine at the precomputed arrival, in arrival
// order.
func TestInterconnectBufferedDelivery(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	ic := NewShardedInterconnect(engs, DefaultInterConfig())
	var order []int
	ic.Send(0, 1, PageBytes, func(any) { order = append(order, 0) }, nil)
	ic.Send(0, 1, CtrlMsgBytes, func(any) { order = append(order, 1) }, nil)
	engs[1].Run()
	if len(order) != 0 {
		t.Fatal("buffered send delivered before FlushBoundary")
	}
	if n := ic.FlushBoundary(); n != 2 {
		t.Fatalf("FlushBoundary delivered %d, want 2", n)
	}
	engs[1].Run()
	// The control message rides a parallel lane and serializes faster,
	// so it arrives first; FlushBoundary must deliver in arrival order,
	// not send order.
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("delivery order %v, want [1 0] (arrival order)", order)
	}
	if at := engs[1].Now().Sub(0); at < ic.OneWay(CtrlMsgBytes) {
		t.Fatalf("arrivals completed at %v, below unloaded latency %v", at, ic.OneWay(CtrlMsgBytes))
	}
	if n := ic.FlushBoundary(); n != 0 {
		t.Fatalf("second FlushBoundary delivered %d, want 0", n)
	}
}

// TestInterconnectBandwidthQueues pins the bounded-bandwidth property:
// a burst wider than the lane count serializes on the uplink, so the
// last arrival is strictly later than an unloaded crossing.
func TestInterconnectBandwidthQueues(t *testing.T) {
	cfg := DefaultInterConfig()
	cfg.LinkSlots = 1
	ic, engs := twoRacks(cfg)
	const burst = 8
	var last sim.Time
	for i := 0; i < burst; i++ {
		ic.Send(0, 1, PageBytes, func(any) { last = engs[1].Now() }, nil)
	}
	ic.FlushBoundary()
	engs[1].Run()
	unloaded := ic.OneWay(PageBytes)
	if got := last.Sub(0); got < unloaded+sim.Duration(burst-1)*(cfg.Overhead) {
		t.Fatalf("burst of %d finished at %v; no uplink queueing visible (unloaded %v)",
			burst, got, unloaded)
	}
	// Traffic in the opposite direction uses separate lanes and must not
	// have been delayed by this burst's uplink occupancy.
	ic2, engs2 := twoRacks(cfg)
	var revAt sim.Time
	ic2.Send(0, 1, PageBytes, func(any) {}, nil)
	ic2.Send(1, 0, CtrlMsgBytes, func(any) { revAt = engs2[0].Now() }, nil)
	ic2.FlushBoundary()
	engs2[0].Run()
	if got := revAt.Sub(0); got != ic2.OneWay(CtrlMsgBytes) {
		t.Fatalf("reverse-direction crossing = %v, want unloaded %v", got, ic2.OneWay(CtrlMsgBytes))
	}
}

func TestInterconnectRejectsIntraRackSend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("send within one rack did not panic")
		}
	}()
	ic, _ := twoRacks(DefaultInterConfig())
	ic.Send(1, 1, 64, func(any) {}, nil)
}

// TestInterconnectPendingCounter pins the O(1) pending accounting the
// pod executor's flush elision relies on: sends increment it and
// FlushBoundary consumes it.
func TestInterconnectPendingCounter(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine(), sim.NewEngine()}
	ic := NewShardedInterconnect(engs, DefaultInterConfig())
	if got := ic.PendingBoundary(); got != 0 {
		t.Fatalf("fresh interconnect pending = %d, want 0", got)
	}
	ic.Send(0, 1, PageBytes, func(any) {}, nil)
	ic.Send(2, 0, CtrlMsgBytes, func(any) {}, nil)
	ic.Send(1, 2, CtrlMsgBytes, func(any) {}, nil)
	if got := ic.PendingBoundary(); got != 3 {
		t.Fatalf("pending after 3 buffered sends = %d, want 3", got)
	}
	if n := ic.FlushBoundary(); n != 3 {
		t.Fatalf("FlushBoundary delivered %d, want 3", n)
	}
	if got := ic.PendingBoundary(); got != 0 {
		t.Fatalf("pending after flush = %d, want 0", got)
	}
}

// TestInterconnectFlushBoundaryEmptyFree is the elision regression
// test: FlushBoundary on an all-empty boundary must perform no port
// scan, no sort and no allocation — quiet barriers are the common case
// under sparse-horizon execution, and this pins their cost to one
// atomic load.
func TestInterconnectFlushBoundaryEmptyFree(t *testing.T) {
	engs := []*sim.Engine{sim.NewEngine(), sim.NewEngine()}
	ic := NewShardedInterconnect(engs, DefaultInterConfig())
	// One delivered message first, so the scratch buffer exists and the
	// measured path is the steady-state empty boundary, not a fresh
	// struct's zero value.
	ic.Send(0, 1, PageBytes, func(any) {}, nil)
	ic.FlushBoundary()
	allocs := testing.AllocsPerRun(100, func() {
		if n := ic.FlushBoundary(); n != 0 {
			t.Fatalf("empty FlushBoundary delivered %d, want 0", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("empty FlushBoundary allocated %.1f times per call, want 0", allocs)
	}
}
