package fabric

import (
	"testing"

	"mind/internal/sim"
)

func newTestFabric(t *testing.T) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig())
	for i := NodeID(0); i < 4; i++ {
		f.AddNode(i)
	}
	return eng, f
}

func TestSendToSwitchLatency(t *testing.T) {
	eng, f := newTestFabric(t)
	cfg := f.Config()
	var at sim.Time = -1
	f.SendToSwitch(0, CtrlMsgBytes, func() { at = eng.Now() })
	eng.Run()
	want := sim.Time(0).Add(cfg.NICOverhead +
		sim.Duration(float64(CtrlMsgBytes)/cfg.NICBytesPerNs) +
		cfg.WireDelay + cfg.PipelineService + cfg.PipelineDelay)
	if at != want {
		t.Errorf("arrival = %v, want %v", at, want)
	}
}

func TestUnicastRoundTripScale(t *testing.T) {
	eng, f := newTestFabric(t)
	var reqAt, respAt sim.Time
	f.Unicast(0, 1, CtrlMsgBytes, func() {
		reqAt = eng.Now()
		f.Unicast(1, 0, PageBytes, func() { respAt = eng.Now() })
	})
	eng.Run()
	if reqAt == 0 || respAt <= reqAt {
		t.Fatalf("req=%v resp=%v", reqAt, respAt)
	}
	// An unloaded control+page round trip through the switch should land
	// in single-digit microseconds — the regime the paper's 9 µs remote
	// access builds on.
	rtt := respAt.Sub(0)
	if rtt < 2*sim.Microsecond || rtt > 9*sim.Microsecond {
		t.Errorf("unloaded RTT = %v, want 2-9us", rtt)
	}
}

func TestPageSerializationCost(t *testing.T) {
	eng, f := newTestFabric(t)
	var ctrlAt, pageAt sim.Time
	f.SendToSwitch(0, CtrlMsgBytes, func() { ctrlAt = eng.Now() })
	eng.Run()
	eng2 := sim.NewEngine()
	f2 := New(eng2, DefaultConfig())
	f2.AddNode(0)
	f2.SendToSwitch(0, PageBytes, func() { pageAt = eng2.Now() })
	eng2.Run()
	diff := pageAt.Sub(ctrlAt)
	// 4 KB at 12.5 B/ns is ~322 ns more serialization than 64 B.
	want := sim.Duration(float64(PageBytes-CtrlMsgBytes) / f.Config().NICBytesPerNs)
	if diff != want {
		t.Errorf("page vs ctrl delta = %v, want %v", diff, want)
	}
}

func TestNICSerializesBackToBack(t *testing.T) {
	eng, f := newTestFabric(t)
	var first, second sim.Time
	f.SendToSwitch(0, PageBytes, func() { first = eng.Now() })
	f.SendToSwitch(0, PageBytes, func() { second = eng.Now() })
	eng.Run()
	gap := second.Sub(first)
	svc := f.Config().NICOverhead + sim.Duration(float64(PageBytes)/f.Config().NICBytesPerNs)
	if gap != svc {
		t.Errorf("back-to-back gap = %v, want NIC service %v", gap, svc)
	}
}

func TestDistinctNICsDoNotContend(t *testing.T) {
	eng, f := newTestFabric(t)
	var a, b sim.Time
	f.SendToSwitch(0, CtrlMsgBytes, func() { a = eng.Now() })
	f.SendToSwitch(1, CtrlMsgBytes, func() { b = eng.Now() })
	eng.Run()
	if a != b {
		t.Errorf("independent blades should arrive together: %v vs %v", a, b)
	}
}

func TestMulticastSingleEgressOccupancy(t *testing.T) {
	eng, f := newTestFabric(t)
	got := map[NodeID]sim.Time{}
	f.MulticastFromSwitchArg([]NodeID{1, 2, 3}, CtrlMsgBytes, func(_ any, to NodeID) {
		got[to] = eng.Now()
	}, nil)
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d copies, want 3", len(got))
	}
	// All copies replicate from one egress pass, so all arrive together.
	if got[1] != got[2] || got[2] != got[3] {
		t.Errorf("multicast copies skewed: %v", got)
	}
}

func TestDropInjection(t *testing.T) {
	eng, f := newTestFabric(t)
	f.DropFn = func(from, to NodeID) bool { return to == 2 }
	delivered := map[NodeID]bool{}
	f.MulticastFromSwitchArg([]NodeID{1, 2, 3}, CtrlMsgBytes, func(_ any, to NodeID) {
		delivered[to] = true
	}, nil)
	eng.Run()
	if delivered[2] {
		t.Error("dropped copy was delivered")
	}
	if !delivered[1] || !delivered[3] {
		t.Error("non-dropped copies missing")
	}
	if f.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", f.Dropped)
	}
	if f.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", f.Delivered)
	}
}

func TestCtrlCallSlowPath(t *testing.T) {
	eng, f := newTestFabric(t)
	var ctrlAt sim.Time
	f.CtrlCall(0, func() { ctrlAt = eng.Now() })
	eng.Run()
	if ctrlAt.Sub(0) != f.Config().CtrlRTT {
		t.Errorf("ctrl RTT = %v", ctrlAt.Sub(0))
	}
	// Control-plane calls must be far slower than a data-plane one-way.
	if f.Config().CtrlRTT < 10*f.OneWayBase(CtrlMsgBytes) {
		t.Error("control path should be much slower than data path")
	}
}

func TestAddNodeDuplicatePanics(t *testing.T) {
	_, f := newTestFabric(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode should panic")
		}
	}()
	f.AddNode(0)
}

func TestUnregisteredNodePanics(t *testing.T) {
	_, f := newTestFabric(t)
	defer func() {
		if recover() == nil {
			t.Error("unregistered node should panic")
		}
	}()
	f.SendToSwitch(99, 64, func() {})
}

func TestHasNode(t *testing.T) {
	_, f := newTestFabric(t)
	if !f.HasNode(0) || f.HasNode(99) {
		t.Error("HasNode wrong")
	}
}

func TestRecirculateAddsDelay(t *testing.T) {
	eng, f := newTestFabric(t)
	var direct, recirc sim.Time
	f.SendToSwitch(0, CtrlMsgBytes, func() {
		direct = eng.Now()
		f.RecirculateArg(func(any) { recirc = eng.Now() }, nil)
	})
	eng.Run()
	if recirc.Sub(direct) < f.Config().RecircDelay {
		t.Errorf("recirculation added only %v", recirc.Sub(direct))
	}
}

func TestPipelineStatsCount(t *testing.T) {
	eng, f := newTestFabric(t)
	f.Unicast(0, 1, CtrlMsgBytes, func() {})
	f.Unicast(2, 3, CtrlMsgBytes, func() {})
	eng.Run()
	in, out := f.PipelineStats()
	if in != 2 || out != 2 {
		t.Errorf("pipeline stats = %d/%d, want 2/2", in, out)
	}
}

func TestDeadNodeDropsDeliveries(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, DefaultConfig())
	f.AddNode(1)
	f.AddNode(2)

	f.SetNodeDead(2, true)
	if !f.NodeDead(2) {
		t.Fatal("node 2 not marked dead")
	}
	delivered := 0
	f.SendFromSwitch(2, CtrlMsgBytes, func() { delivered++ })
	f.SendFromSwitch(1, CtrlMsgBytes, func() { delivered++ })
	f.MulticastFromSwitchArg([]NodeID{1, 2}, CtrlMsgBytes, func(any, NodeID) { delivered++ }, nil)
	f.SendToSwitch(2, CtrlMsgBytes, func() { delivered++ }) // dead sender
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d messages, want 2 (only node 1's)", delivered)
	}
	if f.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", f.Dropped)
	}

	// Revival restores delivery.
	f.SetNodeDead(2, false)
	f.SendFromSwitch(2, CtrlMsgBytes, func() { delivered++ })
	eng.Run()
	if delivered != 3 {
		t.Fatalf("revived node did not receive (delivered=%d)", delivered)
	}
}

// TestUnicastArgMatchesUnicast holds the pre-bound form to the closure
// form it replaced underneath: same delivery time, same Delivered and
// Dropped accounting, the drop hook consulted once (on the second hop),
// and a dead sender losing the message on the first leg, before anything
// is scheduled.
func TestUnicastArgMatchesUnicast(t *testing.T) {
	type outcome struct {
		at                 sim.Time // delivery time, -1 if never delivered
		delivered, dropped uint64
		dropCalls          int
		events             uint64
	}
	for _, tc := range []struct {
		name      string
		bytes     int
		drop      func(from, to NodeID) bool
		dead      NodeID // -1: nobody
		delivered bool
		dropCalls int
		events    uint64 // engine events a message costs: one per leg reached
	}{
		{name: "ctrl", bytes: CtrlMsgBytes, dead: -1, delivered: true, events: 2},
		{name: "page", bytes: PageBytes, dead: -1, delivered: true, events: 2},
		{name: "hook passes", bytes: CtrlMsgBytes, dead: -1, delivered: true, dropCalls: 1, events: 2,
			drop: func(from, to NodeID) bool { return false }},
		{name: "hook drops", bytes: CtrlMsgBytes, dead: -1, dropCalls: 1, events: 1,
			drop: func(from, to NodeID) bool { return from == SwitchNode && to == 1 }},
		{name: "dead sender", bytes: CtrlMsgBytes, dead: 0, events: 0,
			drop: func(from, to NodeID) bool { return false }},
		{name: "dead receiver", bytes: CtrlMsgBytes, dead: 1, events: 1},
	} {
		run := func(send func(f *Fabric, fn func())) outcome {
			eng, f := newTestFabric(t)
			o := outcome{at: -1}
			if tc.drop != nil {
				f.DropFn = func(from, to NodeID) bool {
					o.dropCalls++
					return tc.drop(from, to)
				}
			}
			if tc.dead >= 0 {
				f.SetNodeDead(tc.dead, true)
			}
			send(f, func() { o.at = eng.Now() })
			eng.Run()
			o.delivered, o.dropped, o.events = f.Delivered, f.Dropped, eng.Executed
			return o
		}
		closure := run(func(f *Fabric, fn func()) { f.Unicast(0, 1, tc.bytes, fn) })
		arg := run(func(f *Fabric, fn func()) {
			f.UnicastArg(0, 1, tc.bytes, func(x any) { x.(func())() }, fn)
		})
		if closure != arg {
			t.Errorf("%s: Unicast %+v, UnicastArg %+v", tc.name, closure, arg)
		}
		want := outcome{at: -1, dropped: 1, dropCalls: tc.dropCalls, events: tc.events}
		if tc.delivered {
			want.delivered, want.dropped = 1, 0
			want.at = arg.at
			if arg.at <= 0 {
				t.Errorf("%s: never delivered", tc.name)
			}
		}
		if arg != want {
			t.Errorf("%s: got %+v, want %+v", tc.name, arg, want)
		}
	}
}

// TestUnicastArgWarmAllocs: once the hop pool and the engine's event
// pool are warm, a unicast round trip allocates nothing.
func TestUnicastArgWarmAllocs(t *testing.T) {
	eng, f := newTestFabric(t)
	type trip struct {
		f    *Fabric
		back bool
	}
	var arrive func(any)
	arrive = func(x any) {
		tr := x.(*trip)
		if !tr.back {
			tr.back = true
			tr.f.UnicastArg(1, 0, PageBytes, arrive, tr)
		}
	}
	tr := &trip{f: f}
	roundTrip := func() {
		tr.back = false
		f.UnicastArg(0, 1, CtrlMsgBytes, arrive, tr)
		eng.Run()
	}
	roundTrip()
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("warm UnicastArg round trip allocates %.1f objects, want 0", n)
	}
	if f.Delivered != 2*102 || f.Dropped != 0 {
		t.Errorf("Delivered = %d, Dropped = %d, want %d and 0", f.Delivered, f.Dropped, 2*102)
	}
}
