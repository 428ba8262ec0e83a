// Package fabric models the rack-scale network of the MIND architecture:
// compute and memory blades, each with a dedicated 100 Gbps RDMA NIC,
// connected by a single programmable switch (§2 "Assumptions").
//
// The model captures the latency structure that MIND's evaluation depends
// on — per-message NIC overhead and serialization, link propagation, and
// switch pipeline traversal/recirculation occupancy — without simulating
// individual bytes. All queueing points are sim.Resources, so contention
// (e.g. many blades flushing to one memory blade) produces the queueing
// delays the paper reports in Figure 7 (right).
package fabric

import (
	"fmt"

	"mind/internal/bitset"
	"mind/internal/sim"
)

// NodeID identifies a network endpoint: a compute blade, a memory blade,
// or the switch control-plane CPU.
type NodeID int

// SwitchNode is the reserved NodeID of the switch control plane CPU
// (reached via PCIe from the ASIC; system-call path).
const SwitchNode NodeID = -1

// MemNodeBase is the first memory-blade NodeID. Compute blades take ids
// from 0 up and memory blades from MemNodeBase up, so the two never
// collide; the fabric keeps one dense NIC table for each range.
const MemNodeBase NodeID = 1000

// Standard message sizes in bytes.
const (
	CtrlMsgBytes = 64   // RDMA request headers, invalidations, ACKs
	PageBytes    = 4096 // one 4 KB page payload
)

// Config holds the calibration constants of the network model. Defaults
// are tuned so that the end-to-end MSI transition latencies match the
// paper's Figure 7 (left): ~9 µs for transitions without invalidation and
// ~18 µs for M→S/M.
type Config struct {
	// WireDelay is one link traversal (propagation plus PHY/MAC).
	WireDelay sim.Duration
	// NICOverhead is the fixed per-message NIC cost (doorbell, DMA setup,
	// completion handling).
	NICOverhead sim.Duration
	// NICBytesPerNs is NIC serialization bandwidth in bytes per
	// nanosecond; 100 Gbps = 12.5 B/ns.
	NICBytesPerNs float64
	// PipelineDelay is the fixed latency of one ingress or egress pipeline
	// traversal (parse + match-action stages + deparse).
	PipelineDelay sim.Duration
	// PipelineService is the per-packet occupancy of a pipeline (the
	// reciprocal of packet rate); contention above line rate queues here.
	PipelineService sim.Duration
	// RecircDelay is the added latency of one recirculation through the
	// traffic manager back to the ingress pipeline (§6.3, Figure 4).
	RecircDelay sim.Duration
	// PipelineSlots is the parallelism of each pipeline (ports served
	// concurrently by the ASIC).
	PipelineSlots int
	// MemDMA is the memory-blade-side DMA setup cost for serving a
	// one-sided RDMA request (no CPU involvement).
	MemDMA sim.Duration
	// CtrlRTT is the round-trip for control-plane (system call) traffic:
	// TCP to the switch CPU over PCIe, much slower than the data path.
	CtrlRTT sim.Duration
}

// DefaultConfig returns the calibrated rack model: 100 Gbps NICs, a
// 6.4 Tbps 32-port switch.
func DefaultConfig() Config {
	return Config{
		WireDelay:       200 * sim.Nanosecond,
		NICOverhead:     600 * sim.Nanosecond,
		NICBytesPerNs:   12.5,
		PipelineDelay:   400 * sim.Nanosecond,
		PipelineService: 60 * sim.Nanosecond,
		RecircDelay:     400 * sim.Nanosecond,
		PipelineSlots:   32,
		MemDMA:          500 * sim.Nanosecond,
		CtrlRTT:         30 * sim.Microsecond,
	}
}

// Fabric is the instantiated network: one NIC pair per node and the
// shared switch pipelines.
type Fabric struct {
	eng *sim.Engine
	cfg Config
	// NIC resources live in two dense tables: compute holds the ids
	// below MemNodeBase at index NodeID+1 (the +1 makes room for
	// SwitchNode = -1), memory the ids from MemNodeBase up at index
	// NodeID-MemNodeBase. Each grows to the highest id registered in its
	// range, so the per-hop lookup is one bounds check instead of a map
	// probe and a rack pays for the blades it has, not for the gap
	// between the two id ranges.
	compute []nic
	memory  []nic
	ingress *sim.Resource
	egress  *sim.Resource

	// DropFn, when non-nil, is consulted once per point-to-point delivery;
	// returning true silently drops the message (failure injection for
	// §4.4 communication-failure handling).
	DropFn func(from, to NodeID) bool

	// dead marks failed endpoints (a bitset indexed by NodeID+1): every message addressed to (or sent from) a dead
	// node is silently lost, the way a link to a crashed blade goes
	// black. Unlike DropFn this is permanent rack state, set by
	// failure-injection events (Pod.KillMemBladeAt).
	dead bitset.Set

	// Delivered counts successful end-point deliveries; Dropped counts
	// injected losses (DropFn hits plus messages to dead nodes).
	// Delivered is incremented when a delivery commits (the drop
	// decision is made at send time), so it may run ahead of the
	// delivery callbacks by the messages currently in flight.
	Delivered uint64
	Dropped   uint64

	// mcFree recycles the per-copy delivery records of
	// MulticastFromSwitchArg; hopFree the two-hop records of UnicastArg.
	mcFree  sim.Pool[mcDelivery]
	hopFree sim.Pool[unicastHop]
}

// nic is one node's NIC pair.
type nic struct{ tx, rx *sim.Resource }

// mcDelivery carries one multicast copy's pre-bound completion through
// the engine (the per-copy extra it needs beyond (fn, arg) is the target
// node).
type mcDelivery struct {
	f   *Fabric
	fn  func(arg any, to NodeID)
	arg any
	to  NodeID
}

func fireMCDelivery(x any) {
	d := x.(*mcDelivery)
	f, fn, arg, to := d.f, d.fn, d.arg, d.to
	d.fn, d.arg = nil, nil
	f.mcFree.Put(d)
	fn(arg, to)
}

// New constructs a fabric on the given engine.
func New(eng *sim.Engine, cfg Config) *Fabric {
	return &Fabric{
		eng:     eng,
		cfg:     cfg,
		ingress: sim.NewResource(cfg.PipelineSlots),
		egress:  sim.NewResource(cfg.PipelineSlots),
	}
}

// slot maps a NodeID onto its bit in the dead set.
func slot(id NodeID) int {
	i := int(id) + 1
	if i < 0 {
		panic(fmt.Sprintf("fabric: invalid node id %d", id))
	}
	return i
}

// SetNodeDead marks (or revives) an endpoint. Messages to a dead node
// are dropped at the switch; nothing a dead node "sends" is delivered.
func (f *Fabric) SetNodeDead(id NodeID, dead bool) {
	if dead {
		f.dead.Add(slot(id))
	} else {
		f.dead.Remove(slot(id))
	}
}

// NodeDead reports whether id has been marked failed.
func (f *Fabric) NodeDead(id NodeID) bool { return f.dead.Has(slot(id)) }

// lost reports whether a delivery from → to should be dropped, counting
// the loss.
func (f *Fabric) lost(from, to NodeID) bool {
	if f.dead.Has(slot(from)) || f.dead.Has(slot(to)) {
		f.Dropped++
		return true
	}
	if f.DropFn != nil && f.DropFn(from, to) {
		f.Dropped++
		return true
	}
	return false
}

// Config returns the fabric's calibration constants.
func (f *Fabric) Config() Config { return f.cfg }

// Engine returns the underlying simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// AddNode registers a node's NIC with the fabric. Each blade has
// dedicated access to a separate 100 Gbps NIC (§7 cluster setup).
func (f *Fabric) AddNode(id NodeID) {
	t, i := f.table(id)
	if n := i + 1 - len(*t); n > 0 {
		*t = append(*t, make([]nic, n)...)
	}
	if (*t)[i].tx != nil {
		panic(fmt.Sprintf("fabric: duplicate node %d", id))
	}
	(*t)[i] = nic{tx: sim.NewResource(1), rx: sim.NewResource(1)}
}

// table returns the NIC table holding id and id's index in it.
func (f *Fabric) table(id NodeID) (*[]nic, int) {
	if id >= MemNodeBase {
		return &f.memory, int(id - MemNodeBase)
	}
	return &f.compute, slot(id)
}

// HasNode reports whether id is registered.
func (f *Fabric) HasNode(id NodeID) bool {
	t, i := f.table(id)
	return i < len(*t) && (*t)[i].tx != nil
}

func (f *Fabric) serialize(bytes int) sim.Duration {
	return sim.Duration(float64(bytes) / f.cfg.NICBytesPerNs)
}

// nic returns id's NIC pair; kind names the side wanted for the panic
// on an unregistered node.
func (f *Fabric) nic(id NodeID, kind string) *nic {
	t, i := f.table(id)
	if i >= len(*t) || (*t)[i].tx == nil {
		panic(fmt.Sprintf("fabric: %s for unregistered node %d", kind, id))
	}
	return &(*t)[i]
}

// SendToSwitchArg models node → switch: TX NIC serialization, the wire,
// and one ingress pipeline traversal. The pre-bound fn(arg) fires when
// the packet has completed ingress match-action processing and is ready
// for data-plane logic.
func (f *Fabric) SendToSwitchArg(from NodeID, bytes int, fn func(any), arg any) {
	tx := f.nic(from, "TX").tx
	_, txEnd := tx.Reserve(f.eng.Now(), f.cfg.NICOverhead+f.serialize(bytes))
	if f.dead.Has(slot(from)) {
		f.Dropped++
		return
	}
	arrive := txEnd.Add(f.cfg.WireDelay)
	_, ingEnd := f.ingress.Reserve(arrive, f.cfg.PipelineService)
	f.eng.AtArg(ingEnd.Add(f.cfg.PipelineDelay), fn, arg)
}

// SendToSwitch is the closure form of SendToSwitchArg.
func (f *Fabric) SendToSwitch(from NodeID, bytes int, fn func()) {
	f.SendToSwitchArg(from, bytes, sim.CallFunc, fn)
}

// RecirculateArg models one pass through the traffic manager back into
// the ingress pipeline (used by directory state updates, §6.3 step 2).
func (f *Fabric) RecirculateArg(fn func(any), arg any) {
	_, ingEnd := f.ingress.Reserve(f.eng.Now().Add(f.cfg.RecircDelay), f.cfg.PipelineService)
	f.eng.AtArg(ingEnd, fn, arg)
}

// TraverseIngressArg models one ingress pipeline traversal for a packet
// arriving on a port with no NIC model of its own (a pod uplink):
// fn(arg) fires after match-action processing.
func (f *Fabric) TraverseIngressArg(fn func(any), arg any) {
	_, ingEnd := f.ingress.Reserve(f.eng.Now(), f.cfg.PipelineService)
	f.eng.AtArg(ingEnd.Add(f.cfg.PipelineDelay), fn, arg)
}

// TraverseEgressArg models one egress pipeline traversal toward a port
// with no NIC model of its own (a pod uplink): fn(arg) fires when the
// packet leaves the pipeline.
func (f *Fabric) TraverseEgressArg(fn func(any), arg any) {
	_, egrEnd := f.egress.Reserve(f.eng.Now(), f.cfg.PipelineService)
	f.eng.AtArg(egrEnd.Add(f.cfg.PipelineDelay), fn, arg)
}

// SendFromSwitchArg models switch → node: one egress pipeline traversal,
// the wire, and RX NIC processing. The pre-bound fn(arg) fires at
// delivery, unless the drop hook eats the message.
func (f *Fabric) SendFromSwitchArg(to NodeID, bytes int, fn func(any), arg any) {
	_, egrEnd := f.egress.Reserve(f.eng.Now(), f.cfg.PipelineService)
	arrive := egrEnd.Add(f.cfg.PipelineDelay + f.cfg.WireDelay)
	rx := f.nic(to, "RX").rx
	_, rxEnd := rx.Reserve(arrive, f.cfg.NICOverhead+f.serialize(bytes))
	if f.lost(SwitchNode, to) {
		return
	}
	f.Delivered++
	f.eng.AtArg(rxEnd, fn, arg)
}

// SendFromSwitch is the closure form of SendFromSwitchArg.
func (f *Fabric) SendFromSwitch(to NodeID, bytes int, fn func()) {
	f.SendFromSwitchArg(to, bytes, sim.CallFunc, fn)
}

// MulticastFromSwitchArg models the native multicast primitive (§4.3.2):
// the packet occupies the egress pipeline once and the traffic manager
// replicates it to every target port. fn(arg, to) is invoked once per
// delivered copy; the per-copy records are pooled.
func (f *Fabric) MulticastFromSwitchArg(tos []NodeID, bytes int, fn func(arg any, to NodeID), arg any) {
	_, egrEnd := f.egress.Reserve(f.eng.Now(), f.cfg.PipelineService)
	for _, to := range tos {
		arrive := egrEnd.Add(f.cfg.PipelineDelay + f.cfg.WireDelay)
		rx := f.nic(to, "RX").rx
		_, rxEnd := rx.Reserve(arrive, f.cfg.NICOverhead+f.serialize(bytes))
		if f.lost(SwitchNode, to) {
			continue
		}
		f.Delivered++
		d := f.mcFree.Get()
		if d == nil {
			d = &mcDelivery{f: f}
		}
		d.fn, d.arg, d.to = fn, arg, to
		f.eng.AtArg(rxEnd, fireMCDelivery, d)
	}
}

// unicastHop carries a unicast across its first leg: what the switch
// needs to forward it once ingress processing completes.
type unicastHop struct {
	f     *Fabric
	to    NodeID
	bytes int
	fn    func(any)
	arg   any
}

func fireUnicastHop(x any) {
	h := x.(*unicastHop)
	f, to, bytes, fn, arg := h.f, h.to, h.bytes, h.fn, h.arg
	h.fn, h.arg = nil, nil
	f.hopFree.Put(h)
	f.SendFromSwitchArg(to, bytes, fn, arg)
}

// UnicastArg models a full node → switch → node path with no data-plane
// processing beyond forwarding (e.g. blade-to-blade transfers in the GAM
// baseline). The pre-bound fn(arg) fires at delivery. The drop hook is
// consulted once, on the second hop; a dead sender loses the message on
// the first leg, and the hop record of such a message is left to the
// garbage collector rather than returned to the pool (as coherence does
// for lost requests).
func (f *Fabric) UnicastArg(from, to NodeID, bytes int, fn func(any), arg any) {
	h := f.hopFree.Get()
	if h == nil {
		h = &unicastHop{f: f}
	}
	h.to, h.bytes, h.fn, h.arg = to, bytes, fn, arg
	f.SendToSwitchArg(from, bytes, fireUnicastHop, h)
}

// Unicast is the closure form of UnicastArg.
func (f *Fabric) Unicast(from, to NodeID, bytes int, fn func()) {
	f.UnicastArg(from, to, bytes, sim.CallFunc, fn)
}

// MemDMA returns the memory-blade DMA service cost for one-sided RDMA.
func (f *Fabric) MemDMA() sim.Duration { return f.cfg.MemDMA }

// CtrlCall models a system-call round trip to the switch control plane
// (TCP to the switch CPU, §6.1). fn fires when the response arrives back.
func (f *Fabric) CtrlCall(from NodeID, fn func()) {
	f.eng.Schedule(f.cfg.CtrlRTT, fn)
}

// PipelineStats exposes ingress/egress occupancy accounting for resource
// reports.
func (f *Fabric) PipelineStats() (ingressServed, egressServed uint64) {
	is, _, _, _ := f.ingress.Stats()
	es, _, _, _ := f.egress.Stats()
	return is, es
}

// OneWayBase returns the unloaded one-way latency of a control message
// from a node to the switch data plane — useful for calibration tests.
func (f *Fabric) OneWayBase(bytes int) sim.Duration {
	return f.cfg.NICOverhead + f.serialize(bytes) + f.cfg.WireDelay +
		f.cfg.PipelineService + f.cfg.PipelineDelay
}
