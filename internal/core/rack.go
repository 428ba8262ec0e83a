package core

import (
	"fmt"
	"math"

	"mind/internal/coherence"
	"mind/internal/computeblade"
	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/memblade"
	"mind/internal/sim"
	"mind/internal/stats"
)

// Rack is one simulated MIND rack (Figure 2): a programmable ToR switch
// holding the TCAM translations and the coherence directory for its
// blades, the rack-local fabric, and the compute/memory blades behind
// it. Racks are always members of a Pod; a 1-rack Pod is the classic
// single-rack MIND deployment (Cluster is its facade).
type Rack struct {
	pod *Pod
	idx int
	cfg Config

	// eng and col are this rack's own engine and collector, whatever the
	// pod's size: racks share no mutable state, so a multi-rack pod's
	// windows can execute concurrently (parexec.go).
	eng *sim.Engine
	col *stats.Collector

	fab *fabric.Fabric

	ctl      *ctrlplane.Controller
	dir      *coherence.Directory
	splitter *ctrlplane.Splitter

	cblades []*computeblade.Blade
	// mem is the blade table, indexed by the allocator's blade id: one
	// slot per memory blade ever registered here (ids are never reused).
	// attach is its only writer.
	mem []memSlot
	// borrowed counts live leases: registered, unretired blades homed in
	// other racks. A lease starts in Pod.borrow and ends in retire or
	// Pod.returnBlade.
	borrowed int

	// promoting serializes vma promotions: at most one freeze→copy→
	// TCAM-rewrite chain runs per rack at a time.
	promoting bool
	// wantReturns marks that this rack's promotion epoch found idle
	// borrowed blades; the next window barrier performs the returns
	// (cross-rack allocator mutations never run from rack events).
	wantReturns bool
	// pendingFaults and pendingBorrows queue this rack's work for the
	// barrier (parexec.go): scheduled failure injections (podfail.go)
	// and blade-borrow negotiations. The barrier runs the due ones in
	// rack-index order, so what they do is independent of the worker
	// count. A 1-rack pod's unbounded lookahead makes every fault due at
	// registration and it rejects borrowing up front, so there both
	// queues stay empty.
	pendingFaults, pendingBorrows []deferred
	// recovering counts failure recoveries in flight on this rack (blade
	// kill re-homing, switch failover). While it is nonzero the rack is
	// in recovery blackout; the serving layer's brownout admission sheds
	// load against it. Written only from rack event context.
	recovering int
	// failoverDone holds the completions of the switch failover in
	// flight (nonempty exactly while one is): the call that started it
	// and any that joined it since.
	failoverDone []func(SwitchFailoverReport, error)

	// activeThreads counts started-but-unfinished threads on this rack;
	// lastFinish is the virtual time the most recent one finished. Both
	// are written only from rack event context.
	activeThreads int
	lastFinish    sim.Time

	epochTick *sim.Event
	promoTick *sim.Event
	// promoEpoch is the promotion tick period; the tick event is rearmed
	// in place each epoch (sim.Rearm), so the loop never allocates.
	promoEpoch sim.Duration

	// Free lists for the pooled fabric-glue jobs (accessed only from
	// this rack's execution context).
	reqFree   sim.Pool[reqJob]
	wbFree    sim.Pool[wbJob]
	crossFree sim.Pool[crossJob]

	hLostWrites    stats.Handle
	hBladeEvents   stats.Handle
	hMigratedPages stats.Handle
	hKills         stats.Handle
	hRecoveries    stats.Handle
	// Registered only for multi-rack pods (their code paths are
	// unreachable in a 1-rack pod, whose counter set must stay exactly
	// the classic single-rack one).
	hCrossMsgs     stats.Handle
	hPromotedVMAs  stats.Handle
	hPromotedPages stats.Handle
}

// memSlot is what a rack knows about one registered memory blade.
type memSlot struct {
	blade *memblade.Blade
	// owner is the pod rack index that physically hosts the device and
	// node its fabric NodeID in the owner's fabric. Local blades own
	// themselves.
	owner int
	node  fabric.NodeID
	// dead records that this rack killed the blade. A rack may read the
	// blade's own state only while its page store is the rack's: a lent
	// blade's store belongs to the borrower, whose shard may kill it
	// inside the same window.
	dead bool
	// heat counts the data-path messages (fault fetch requests and page
	// writebacks) routed to a remote blade in the current promotion epoch
	// — the signal the hot-page promotion policy consumes.
	heat uint64
}

// attach registers a memory blade under the id the allocator just gave
// it — at construction, on a hot-add, when a borrowed blade arrives and
// when a returned one comes home. Allocator ids and table indexes must
// stay in step, whichever path registered the blade.
func (c *Rack) attach(id ctrlplane.BladeID, blade *memblade.Blade, owner int, node fabric.NodeID) {
	if int(id) != len(c.mem) {
		panic(fmt.Sprintf("core: rack %d attaches blade %d at table index %d", c.idx, id, len(c.mem)))
	}
	c.mem = append(c.mem, memSlot{blade: blade, owner: owner, node: node})
}

// reqJob carries one page-fault request blade -> switch; jobs are pooled
// and recycled as soon as the request is handed to the directory.
type reqJob struct {
	c     *Rack
	blade int
	pdid  mem.PDID
	va    mem.VA
	want  mem.Perm
	done  func(coherence.Completion)
}

// reqAtSwitch runs when the fault request finishes ingress processing.
func reqAtSwitch(x any) {
	j := x.(*reqJob)
	c, blade, pdid, va, want, done := j.c, j.blade, j.pdid, j.va, j.want, j.done
	j.done = nil
	c.reqFree.Put(j)
	c.dir.RequestPage(blade, pdid, va, want, done)
}

// wbJob carries one page writeback blade -> switch -> memory blade. The
// job owns its page bytes: writeback snapshots the caller's buffer into
// buf at enqueue (the compute blade recycles its buffers immediately,
// and an invalidation downgrade keeps the page cached while its flush
// is still in flight), and buf stays with the pooled job forever.
type wbJob struct {
	c    *Rack
	va   mem.VA
	data []byte
	buf  []byte
	home ctrlplane.BladeID
	lost bool // a borrowed home's port went black with the write in flight
	done func()
}

// wbAtSwitch runs when the writeback reaches the switch: translate and
// forward to the home memory blade (or account a lost write).
func wbAtSwitch(x any) {
	j := x.(*wbJob)
	c := j.c
	home, err := c.ctl.Allocator().Translate(j.va)
	if err != nil {
		c.freeWB(j, true) // unmapped (racing munmap); drop
		return
	}
	if c.mem[int(home)].blade.Dead() {
		// One-sided write to a failed blade: the NIC's reliable
		// connection errors out after the send attempt. The data is
		// lost, but the completion (with error) still fires — flush
		// barriers must not wedge on a dead target (§4.4).
		c.col.IncH(c.hLostWrites, 1)
		done := j.done
		c.freeWB(j, false)
		c.eng.ScheduleArg(c.fab.OneWayBase(fabric.PageBytes), sim.CallFunc, done)
		return
	}
	j.home = home
	if c.remoteBlade(home) {
		// Remote writeback: the page rides to the borrowed blade and a
		// small ack rides back (the NIC's reliable-connection
		// completion). The page lands in the blade's store when the ack
		// reaches the borrower — the blade's page map belongs to the
		// borrower's shard while the lease is live, so only borrower
		// events may touch it; the in-flight window is invisible because
		// every read of the blade also comes from this rack.
		c.memRound(home, fabric.PageBytes, fabric.CtrlMsgBytes, 0, wbLanded, j)
		return
	}
	c.fab.SendFromSwitchArg(c.mem[int(home)].node, fabric.PageBytes, wbLanded, j)
}

// wbLanded persists the page and completes. For a local blade it runs at
// the blade, at delivery; for a borrowed blade it runs at the borrower's
// switch when the write ack (or the error completion of a write whose
// target died in flight, memLostWrite) returns.
func wbLanded(x any) {
	j := x.(*wbJob)
	c, va, data, home, lost, done := j.c, j.va, j.data, j.home, j.lost, j.done
	c.freeWB(j, false)
	if lost {
		c.col.IncH(c.hLostWrites, 1)
	} else {
		c.mem[int(home)].blade.WritePage(va, data)
	}
	done()
}

func (c *Rack) freeWB(j *wbJob, callDone bool) {
	done := j.done
	j.done, j.data, j.lost = nil, nil, false
	c.wbFree.Put(j)
	if callDone {
		done()
	}
}

// checkConfig validates and defaults one rack's configuration.
func checkConfig(cfg Config) (Config, error) {
	if cfg.ComputeBlades < 1 || cfg.MemoryBlades < 1 {
		return cfg, fmt.Errorf("core: need at least one compute and one memory blade")
	}
	if cfg.ComputeBlades > coherence.MaxBlades {
		// A rack is one switch, whose directory keeps a sharer set as one
		// 64-bit word over the rack's compute blades.
		return cfg, fmt.Errorf("core: ComputeBlades %d exceeds the %d compute blades one rack's directory tracks",
			cfg.ComputeBlades, coherence.MaxBlades)
	}
	if cfg.CachePagesPerBlade < 1 || cfg.CachePagesPerBlade > computeblade.MaxCachePages {
		// A blade cache names its records in 24 bits.
		return cfg, fmt.Errorf("core: CachePagesPerBlade %d outside [1, %d]",
			cfg.CachePagesPerBlade, computeblade.MaxCachePages)
	}
	if cfg.StoreBufferDepth < 0 {
		return cfg, fmt.Errorf("core: negative store buffer depth (%d)", cfg.StoreBufferDepth)
	}
	if cfg.StoreBufferDepth == 0 {
		cfg.StoreBufferDepth = 16
	}
	if cfg.InitialRegionSize == 0 {
		cfg.InitialRegionSize = coherence.DefaultConfig().InitialRegionSize
	}
	if cfg.TopLevelRegionSize == 0 {
		cfg.TopLevelRegionSize = coherence.DefaultConfig().TopLevelSize
	}
	initial, top := cfg.InitialRegionSize, cfg.TopLevelRegionSize
	if !mem.IsPow2(initial) || !mem.IsPow2(top) || initial < mem.PageSize || top < initial {
		return cfg, fmt.Errorf("core: region sizes must be powers of two with page <= initial (%d) <= top level (%d)", initial, top)
	}
	if cfg.SplitterEpoch < 0 {
		return cfg, fmt.Errorf("core: negative splitter epoch (%v)", cfg.SplitterEpoch)
	}
	if cfg.SplitterEpoch == 0 {
		cfg.SplitterEpoch = sim.Duration(ctrlplane.DefaultSplitterConfig().Epoch)
	}
	if cfg.Migration.BatchPages < 0 || cfg.Migration.DetectionDelay < 0 {
		return cfg, fmt.Errorf("core: negative migration batch (%d) or detection delay (%v)",
			cfg.Migration.BatchPages, cfg.Migration.DetectionDelay)
	}
	if cfg.Migration.BatchPages == 0 {
		cfg.Migration.BatchPages = DefaultMigrationConfig().BatchPages
	}
	if cfg.Migration.DetectionDelay == 0 {
		cfg.Migration.DetectionDelay = DefaultMigrationConfig().DetectionDelay
	}
	// A fabric calibration must not run time backwards or make a transfer
	// free; zero delays stay legal (an ablation may drop recirculation).
	f := cfg.Fabric
	if !(f.NICBytesPerNs > 0) || math.IsInf(f.NICBytesPerNs, 1) {
		return cfg, fmt.Errorf("core: fabric NICBytesPerNs must be positive and finite (%v)", f.NICBytesPerNs)
	}
	if !batchSerializes(f.NICBytesPerNs, cfg.Migration.BatchPages) {
		return cfg, fmt.Errorf("core: fabric NICBytesPerNs %v cannot serialize a %d-page migration batch in a representable time",
			f.NICBytesPerNs, cfg.Migration.BatchPages)
	}
	names := [...]string{"WireDelay", "NICOverhead", "PipelineDelay", "PipelineService", "RecircDelay", "MemDMA", "CtrlRTT"}
	for i, d := range [...]sim.Duration{f.WireDelay, f.NICOverhead, f.PipelineDelay, f.PipelineService, f.RecircDelay, f.MemDMA, f.CtrlRTT} {
		if d < 0 {
			return cfg, fmt.Errorf("core: negative fabric %s (%v)", names[i], d)
		}
	}
	return cfg, nil
}

// batchSerializes reports whether one migration batch of batchPages
// pages, the largest payload a rack fabric or the interconnect carries,
// serializes at bytesPerNs (positive) within math.MaxInt64 ns. A
// bandwidth below that overflows sim.Duration, and the transfer comes
// out free.
func batchSerializes(bytesPerNs float64, batchPages int) bool {
	return float64(batchPages)*fabric.PageBytes/bytesPerNs < math.MaxInt64
}

// newRack builds and wires one rack on an engine and collector of its
// own. The construction order (stat handles, fabric, controller, nodes,
// blades, directory, splitter) fixes resource identities and therefore
// the event schedule; it must stay exactly what the single-rack Cluster
// constructor did so a 1-rack pod is bit-identical to the pre-pod code.
func newRack(pod *Pod, idx int, cfg Config) (*Rack, error) {
	cfg, err := checkConfig(cfg)
	if err != nil {
		return nil, err
	}

	asicCfg := cfg.ASIC
	if cfg.Consistency == PSOPlus {
		// MIND-PSO+ simulates infinite directory capacity (§7.1).
		asicCfg.SlotCapacity = 0
	}

	c := &Rack{
		pod: pod,
		idx: idx,
		cfg: cfg,
		eng: sim.NewEngine(),
		col: stats.NewCollector(),
	}
	c.hLostWrites = c.col.Handle(stats.CtrLostWrites)
	c.hBladeEvents = c.col.Handle(stats.CtrBladeEvents)
	c.hMigratedPages = c.col.Handle(stats.CtrMigratedPages)
	c.hKills = c.col.Handle(stats.CtrBladeKills)
	c.hRecoveries = c.col.Handle(stats.CtrBladeRecoveries)
	if pod.multiRack {
		c.hCrossMsgs = c.col.Handle(stats.CtrCrossRackMsgs)
		c.hPromotedVMAs = c.col.Handle(stats.CtrPromotedVMAs)
		c.hPromotedPages = c.col.Handle(stats.CtrPromotedPages)
	}
	c.fab = fabric.New(c.eng, cfg.Fabric)
	c.ctl = ctrlplane.NewController(asicCfg, cfg.Placement, cfg.ComputeBlades)
	if pod.multiRack {
		// Each rack gets a disjoint 1 TB stripe of the pod-global
		// virtual address space (enforced end-to-end by the allocator),
		// so a physical page store lent across racks can never see
		// aliased addresses. Rack 0 keeps the classic single-rack base;
		// a 1-rack pod stays unbounded, exactly the pre-pod behavior.
		const stripe = uint64(1) << 40
		base := mem.VA(uint64(idx) * stripe)
		if idx == 0 {
			base = mem.VA(1) << 32
		}
		c.ctl.Allocator().SetAddressStripe(base, uint64(mem.VA(uint64(idx+1)*stripe)-base))
	}

	for i := 0; i < cfg.ComputeBlades; i++ {
		c.fab.AddNode(fabric.NodeID(i))
	}
	for m := 0; m < cfg.MemoryBlades; m++ {
		c.fab.AddNode(fabric.MemNodeBase + fabric.NodeID(m))
		id, err := c.ctl.Allocator().AddBlade(cfg.MemoryBladeCapacity)
		if err != nil {
			return nil, fmt.Errorf("core: register memory blade %d (MemoryBladeCapacity %#x): %w", m, cfg.MemoryBladeCapacity, err)
		}
		c.attach(id, memblade.New(m), idx, fabric.MemNodeBase+fabric.NodeID(m))
	}

	c.dir = coherence.NewDirectory(coherence.Config{
		InitialRegionSize: cfg.InitialRegionSize,
		TopLevelSize:      cfg.TopLevelRegionSize,
	}, coherence.Deps{
		Engine:    c.eng,
		Fabric:    c.fab,
		ASIC:      c.ctl.ASIC(),
		Collector: c.col,
		Translate: c.ctl.Allocator().Translate,
		Protect:   c.ctl.Protection().Check,
		MemFetch:  c.memFetch,
	})

	for i := 0; i < cfg.ComputeBlades; i++ {
		blade := computeblade.New(computeblade.DefaultConfig(i, cfg.CachePagesPerBlade), computeblade.Deps{
			Engine:    c.eng,
			Collector: c.col,
			SendRequest: func(i int) func(mem.PDID, mem.VA, mem.Perm, func(coherence.Completion)) {
				return func(pdid mem.PDID, va mem.VA, want mem.Perm, done func(coherence.Completion)) {
					j := c.newReqJob()
					j.blade, j.pdid, j.va, j.want, j.done = i, pdid, va, want, done
					c.fab.SendToSwitchArg(fabric.NodeID(i), fabric.CtrlMsgBytes, reqAtSwitch, j)
				}
			}(i),
			Writeback: func(i int) func(mem.VA, []byte, func()) {
				return func(va mem.VA, data []byte, done func()) {
					c.writeback(fabric.NodeID(i), va, data, done)
				}
			}(i),
			FetchData: c.fetchData,
			Reset: func(va mem.VA, done func()) {
				// Reset goes through the (slow) control plane (§4.4).
				c.fab.CtrlCall(fabric.SwitchNode, func() {
					c.dir.ResetRegion(va, done)
				})
			},
		})
		c.cblades = append(c.cblades, blade)
		c.dir.RegisterBlade(i, blade)
	}

	// Bounded Splitting runs as a control-plane epoch loop (§5).
	if !cfg.DisableSplitting {
		scfg := ctrlplane.DefaultSplitterConfig()
		scfg.Epoch = int64(cfg.SplitterEpoch)
		scfg.TopLevelSize = cfg.TopLevelRegionSize
		c.splitter = ctrlplane.NewSplitter(scfg, c.dir)
		c.scheduleEpoch(sim.Duration(scfg.Epoch))
	}
	return c, nil
}

func (c *Rack) scheduleEpoch(epoch sim.Duration) {
	c.epochTick = c.eng.Schedule(epoch, func() {
		c.splitter.RunEpoch()
		c.col.Series(c.seriesName("directory_entries")).Append(c.eng.Now(), float64(c.dir.SlotsInUse()))
		c.scheduleEpoch(epoch)
	})
}

// seriesName qualifies a per-rack series so the racks' never collide in
// the pod's merged collector. Rack 0 keeps the bare name every
// single-rack consumer reads.
func (c *Rack) seriesName(name string) string {
	if c.idx == 0 {
		return name
	}
	return fmt.Sprintf("%s[rack%d]", name, c.idx)
}

// newReqJob takes a request job from the free list (or allocates one).
func (c *Rack) newReqJob() *reqJob {
	if j := c.reqFree.Get(); j != nil {
		return j
	}
	return &reqJob{c: c}
}

// remoteBlade reports whether registered memory blade id is homed in
// another rack of the pod.
func (c *Rack) remoteBlade(id ctrlplane.BladeID) bool {
	return c.mem[int(id)].owner != c.idx
}

// memFetch serves the directory's page-fetch round trip against the
// home memory blade: a control request to the blade, the blade-side
// DMA, and the 4 KB page back, with fn(arg) firing when the page is
// ready at this rack's switch. For a local blade that is the exact
// classic event chain; for a borrowed blade the round trip crosses the
// pod interconnect in both directions (memRound, pod.go).
func (c *Rack) memFetch(id ctrlplane.BladeID, fn func(any), arg any) {
	c.memRound(id, fabric.CtrlMsgBytes, fabric.PageBytes, c.fab.MemDMA(), fn, arg)
}

// writeback models a one-sided RDMA page write from a blade to the home
// memory blade, via the switch.
func (c *Rack) writeback(from fabric.NodeID, va mem.VA, data []byte, done func()) {
	j := c.wbFree.Get()
	if j == nil {
		j = &wbJob{c: c}
	}
	j.va, j.data, j.done = va, nil, done
	if data != nil {
		if j.buf == nil {
			j.buf = make([]byte, mem.PageSize)
		}
		copy(j.buf, data)
		j.data = j.buf
	}
	c.fab.SendToSwitchArg(from, fabric.PageBytes, wbAtSwitch, j)
}

// fetchData copies page bytes from the home memory blade at the simulated
// moment of delivery, filling the caller's recycled buffer when one is
// offered (allocation-free on the steady-state fault path).
func (c *Rack) fetchData(va mem.VA, dst []byte) []byte {
	home, err := c.ctl.Allocator().Translate(va)
	if err != nil {
		return nil
	}
	return c.mem[int(home)].blade.ReadPageInto(va, dst)
}

// Pod returns the pod this rack is a member of.
func (c *Rack) Pod() *Pod { return c.pod }

// Engine exposes the simulation engine.
func (c *Rack) Engine() *sim.Engine { return c.eng }

// Collector exposes run metrics.
func (c *Rack) Collector() *stats.Collector { return c.col }

// Controller exposes the switch control plane.
func (c *Rack) Controller() *ctrlplane.Controller { return c.ctl }

// Directory exposes the coherence directory (tests, experiments).
func (c *Rack) Directory() *coherence.Directory { return c.dir }

// Splitter exposes the Bounded Splitting controller (nil when disabled).
func (c *Rack) Splitter() *ctrlplane.Splitter { return c.splitter }

// Blade returns compute blade i.
func (c *Rack) Blade(i int) *computeblade.Blade { return c.cblades[i] }

// MemBlade returns memory blade m.
func (c *Rack) MemBlade(m int) *memblade.Blade { return c.mem[m].blade }

// BorrowedBlades returns how many of this rack's registered memory
// blades are physically homed in other racks.
func (c *Rack) BorrowedBlades() int { return c.borrowed }

// Config returns the rack's configuration.
func (c *Rack) Config() Config { return c.cfg }

// Now returns current virtual time.
func (c *Rack) Now() sim.Time { return c.eng.Now() }

// await runs op on the caller's goroutine, with every engine parked, and
// then drives the pod like any other run until done() has been called
// by some event. The whole pod advances — the operation may wait on
// other racks (a borrow negotiation, a remote blade). The flag done sets
// is read only by drive's stop condition, at a barrier, after the
// window's workers have joined.
func (c *Rack) await(op func(done func())) {
	fired := false
	op(func() { fired = true })
	c.pod.exec.drive(0, func() bool { return fired })
}

// InjectFailure installs a message-drop hook on the fabric (nil clears).
func (c *Rack) InjectFailure(drop func(from, to fabric.NodeID) bool) {
	c.fab.DropFn = drop
}
