package fabric

import (
	"fmt"
	"math"
	"sync/atomic"

	"mind/internal/sim"
)

// InterConfig calibrates the inter-rack interconnect of a pod: each
// rack's ToR switch owns one uplink into a spine, with much higher
// propagation delay and lower per-lane bandwidth than the rack-internal
// fabric. Queueing above line rate shows up as delay, exactly like the
// rack-local resources.
type InterConfig struct {
	// Propagation is the one-way ToR-to-ToR latency through the spine
	// (cabling plus spine pipeline traversals). It is also the
	// conservative lookahead of the parallel pod executor: no rack can
	// affect another in less than one propagation delay, so racks may
	// safely run Propagation ahead of each other.
	Propagation sim.Duration
	// Overhead is the fixed per-message gateway/encapsulation cost paid
	// on each uplink and downlink crossing.
	Overhead sim.Duration
	// BytesPerNs is the serialization bandwidth of one uplink lane;
	// 40 Gbps = 5 B/ns.
	BytesPerNs float64
	// LinkSlots is the number of parallel lanes per direction per rack.
	LinkSlots int
	// CtrlRTT is the inter-rack control-plane round trip (switch CPU to
	// switch CPU) used for borrow negotiations.
	CtrlRTT sim.Duration
}

// DefaultInterConfig returns an interconnect calibrated as a pod-scale
// spine: ~5x the rack's wire delay per direction and a third of the
// per-NIC bandwidth, so remote memory is distinctly — but not
// hopelessly — slower than rack-local memory.
func DefaultInterConfig() InterConfig {
	return InterConfig{
		Propagation: 1 * sim.Microsecond,
		Overhead:    150 * sim.Nanosecond,
		BytesPerNs:  5.0,
		LinkSlots:   4,
		CtrlRTT:     100 * sim.Microsecond,
	}
}

// withDefaults fills every zero field from DefaultInterConfig. A zero
// Propagation or Overhead used to slip through and yield a free spine —
// and, worse, a zero-width lookahead window for the parallel executor —
// so all five fields now default consistently.
func (cfg InterConfig) withDefaults() InterConfig {
	def := DefaultInterConfig()
	if cfg.Propagation <= 0 {
		cfg.Propagation = def.Propagation
	}
	if cfg.Overhead <= 0 {
		cfg.Overhead = def.Overhead
	}
	if cfg.BytesPerNs <= 0 {
		cfg.BytesPerNs = def.BytesPerNs
	}
	if cfg.LinkSlots < 1 {
		cfg.LinkSlots = def.LinkSlots
	}
	if cfg.CtrlRTT == 0 {
		cfg.CtrlRTT = def.CtrlRTT
	}
	return cfg
}

// crossMsg is one buffered rack-to-rack message: uplink serialization is
// already paid (arrive includes it plus propagation); delivery books the
// destination downlink and schedules fn(arg) on the destination engine.
type crossMsg struct {
	to     int
	bytes  int
	arrive sim.Time
	fn     func(any)
	arg    any
}

// icPort is one rack's attachment point: its engine, its uplink/downlink
// lane pair, its outbox of not-yet-delivered messages, and its share of
// the send accounting. Everything in a port is written only from its own
// rack's execution context (or the barrier), so concurrent racks never
// touch the same port — the sharding that makes Send race-free under the
// parallel executor.
type icPort struct {
	eng       *sim.Engine
	up        *sim.Resource
	down      *sim.Resource
	outbox    []crossMsg
	sent      uint64
	bytesSent uint64
}

// Interconnect is the instantiated inter-rack network: one port (engine
// + uplink/downlink lane pair) per rack. Send only books the source
// uplink and appends to the source port's outbox; FlushBoundary, called
// at window barriers, books destination downlinks and injects arrivals —
// the boundary-buffering that lets racks run a window apart without
// observing each other mid-window.
type Interconnect struct {
	cfg   InterConfig
	ports []icPort

	// pending counts buffered messages across every outbox, maintained
	// O(1) so a barrier can decide to elide FlushBoundary — and all the
	// merge work behind it — without scanning the ports. It is atomic
	// because Send runs concurrently from per-rack worker goroutines;
	// the barrier's read happens with every worker parked, so the value
	// it observes is exact, not a racy estimate.
	pending atomic.Int64

	flushScratch []crossMsg
}

// NewShardedInterconnect builds the boundary-buffered interconnect for a
// pod whose racks each own an engine (engs[i] drives rack i). Sends
// buffer in per-source outboxes until FlushBoundary. Zero config fields
// default from DefaultInterConfig.
func NewShardedInterconnect(engs []*sim.Engine, cfg InterConfig) *Interconnect {
	cfg = cfg.withDefaults()
	ic := &Interconnect{cfg: cfg, ports: make([]icPort, len(engs))}
	for i := range ic.ports {
		ic.ports[i] = icPort{
			eng:  engs[i],
			up:   sim.NewResource(cfg.LinkSlots),
			down: sim.NewResource(cfg.LinkSlots),
		}
	}
	return ic
}

// Config returns the interconnect's calibration constants (after
// defaulting).
func (ic *Interconnect) Config() InterConfig { return ic.cfg }

// serialize converts a payload to wire time, rounding up so that a
// nonzero message never serializes for free: a 1-byte control nibble at
// 5 B/ns still occupies its lane for 1 ns, instead of truncating to zero
// and queueing behind nothing.
func (ic *Interconnect) serialize(bytes int) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	d := sim.Duration(math.Ceil(float64(bytes) / ic.cfg.BytesPerNs))
	if d < 1 {
		d = 1
	}
	return d
}

// Send models one rack-to-rack crossing: serialization on the source
// rack's uplink, spine propagation, and serialization on the target
// rack's downlink. fn(arg) fires on the target rack's engine when the
// message is ready to enter the target ToR's ingress pipeline.
//
// Only the source half happens here — from the source rack's own
// execution context — and the message waits in the source outbox for the
// next FlushBoundary. Because arrive includes the full propagation delay
// and windows are no wider than it, the arrival always lands at or
// beyond the barrier doing the delivery.
func (ic *Interconnect) Send(from, to int, bytes int, fn func(any), arg any) {
	if from == to {
		panic(fmt.Sprintf("fabric: interconnect send within rack %d", from))
	}
	p := &ic.ports[from]
	cost := ic.cfg.Overhead + ic.serialize(bytes)
	_, upEnd := p.up.Reserve(p.eng.Now(), cost)
	arrive := upEnd.Add(ic.cfg.Propagation)
	p.sent++
	p.bytesSent += uint64(bytes)
	p.outbox = append(p.outbox, crossMsg{to: to, bytes: bytes, arrive: arrive, fn: fn, arg: arg})
	ic.pending.Add(1)
}

func (ic *Interconnect) deliver(m crossMsg) {
	q := &ic.ports[m.to]
	_, downEnd := q.down.Reserve(m.arrive, ic.cfg.Overhead+ic.serialize(m.bytes))
	q.eng.AtArg(downEnd, m.fn, m.arg)
}

// PendingBoundary returns how many sends are buffered awaiting the next
// FlushBoundary, in O(1). Read it only at barriers (workers parked).
func (ic *Interconnect) PendingBoundary() int { return int(ic.pending.Load()) }

// FlushBoundary delivers every buffered message: it drains all outboxes,
// orders messages by arrival time (ties keep source-port then send
// order, so the merge is deterministic for any window schedule), books
// each destination downlink, and schedules the arrival on the
// destination engine. Call it at window barriers, with every rack parked
// on the boundary; it returns how many messages it delivered. An
// all-empty boundary returns immediately — no port scan, no sort, no
// allocation — so quiet barriers cost one atomic load.
func (ic *Interconnect) FlushBoundary() int {
	if ic.pending.Load() == 0 {
		return 0
	}
	ic.pending.Store(0)
	s := ic.flushScratch[:0]
	for i := range ic.ports {
		p := &ic.ports[i]
		s = append(s, p.outbox...)
		for j := range p.outbox {
			p.outbox[j].fn, p.outbox[j].arg = nil, nil
		}
		p.outbox = p.outbox[:0]
	}
	// Stable insertion sort by arrival: outbox batches are tiny (a
	// handful of crossings per window) and this avoids the per-call
	// allocation of the generic stable sort at barrier frequency.
	for i := 1; i < len(s); i++ {
		m := s[i]
		j := i - 1
		for j >= 0 && m.arrive < s[j].arrive {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = m
	}
	for i := range s {
		ic.deliver(s[i])
		s[i].fn, s[i].arg = nil, nil
	}
	n := len(s)
	ic.flushScratch = s[:0]
	return n
}

// Sent returns how many messages have crossed the interconnect, summed
// over the per-rack shards. Under the parallel executor, read it only at
// barriers or after the run — mid-window reads would race with sends.
func (ic *Interconnect) Sent() uint64 {
	var n uint64
	for i := range ic.ports {
		n += ic.ports[i].sent
	}
	return n
}

// BytesSent returns the total payload bytes crossed, summed over the
// per-rack shards. Same barrier-only read rule as Sent.
func (ic *Interconnect) BytesSent() uint64 {
	var n uint64
	for i := range ic.ports {
		n += ic.ports[i].bytesSent
	}
	return n
}

// CtrlRTT returns the inter-rack control-plane round-trip time.
func (ic *Interconnect) CtrlRTT() sim.Duration { return ic.cfg.CtrlRTT }

// OneWay returns the unloaded one-way crossing latency for a message of
// the given size — for calibration tests and documentation.
func (ic *Interconnect) OneWay(bytes int) sim.Duration {
	return 2*(ic.cfg.Overhead+ic.serialize(bytes)) + ic.cfg.Propagation
}
