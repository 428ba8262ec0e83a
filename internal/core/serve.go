package core

import (
	"fmt"

	"mind/internal/computeblade"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// Open-loop multi-tenant serving: arrivals are scheduled as engine
// events from per-tenant arrival processes, independent of service
// completion. A closed-loop Thread issues its next op only when the
// previous one finishes, so its offered load self-throttles at
// saturation; here the arrival chain keeps firing, queues build, and
// tail latency diverges past the knee — the signature that defines
// real serving SLOs. Each compute blade runs one serve worker pulling
// from a FIFO of admitted requests; per-tenant latency (completion
// minus arrival, i.e. queueing + service) streams into a fixed-memory
// stats.StreamHist.
//
// Sharding: a Serving spans its whole pod. All mutable serving state —
// arrival chains, worker FIFOs, request pools, token buckets, latency
// histograms, counters — is owned by a per-rack serveShard and touched
// only from that rack's event context, so a multi-rack serving run
// rides the conservative-lookahead windowed executor (parexec.go)
// unchanged: shards execute their windows concurrently, interact only
// through boundary-buffered interconnect messages (cross-rack faults
// on borrowed blades), and the run's termination condition is read at
// barriers, where every engine is parked. Per-tenant SLO accounting
// across shards is exactly the commutative StreamHist.MergeFrom /
// Collector.MergeFrom path: a tenant spanning racks registers one
// share per rack under the same name, and Pod.Collector() folds the
// shards' histograms and counters into pod-wide totals on read.

// ArrivalProcess mirrors workloads.ArrivalProcess structurally: core
// cannot import workloads (workloads imports core), so the serving
// layer declares the one method it needs and any workloads process
// satisfies it.
type ArrivalProcess interface {
	Next(now sim.Time) sim.Duration
}

// TenantWorkload wires one tenant (or, in a multi-rack pod, one rack's
// share of a tenant) into the serving layer. The home rack is implied
// by Proc: requests are served by compute blade Blade of Proc's rack.
// A tenant spanning racks registers one TenantWorkload per rack under
// the same Name; the per-share Arrival streams must use distinct
// per-(tenant,rack) RNG tags so the event schedule is deterministic,
// and the per-share Limiters carry the tenant's contracted rate split
// by placement share (ctrlplane.PodPlacement.Bucket).
type TenantWorkload struct {
	// Name labels the tenant's stats (serve_lat[Name], per-tenant
	// counters). Shares of one tenant on different racks reuse the
	// Name; Pod.Collector() merges them into pod-wide totals.
	Name string
	// Proc is the tenant's process (owns its protection domain) and
	// pins the share to Proc's rack.
	Proc *Process
	// Blade is the compute blade (within Proc's rack) serving this
	// share's requests.
	Blade int
	// Arrival generates the share's open-loop inter-arrival gaps.
	Arrival ArrivalProcess
	// NextOp yields the share's next (va, write) op — an endless
	// stream (workloads.RequestStreamIn).
	NextOp func() (mem.VA, bool)
	// Limiter, when non-nil, gates admission (QoS throttling): an
	// arrival that cannot take a token is shed and counted, never
	// queued.
	Limiter *ctrlplane.TokenBucket
}

// ServeConfig shapes a serving run.
type ServeConfig struct {
	// Horizon is how long (virtual time, from Run's start) arrivals
	// keep coming. After the horizon the queues drain and the run ends.
	Horizon sim.Duration
	// QueueCap bounds each blade's request queue; an arrival to a full
	// queue is dropped and counted. 0 means 4096.
	QueueCap int

	// Request-robustness layer. All zero values disable every
	// mechanism and keep the event schedule bit-identical to a run
	// without the layer — no timers arm, no RNG draws happen.

	// Deadline is the end-to-end request budget, fixed at admission: a
	// request that has not completed Deadline after its arrival is timed
	// out, and retries spend from the same budget (deadline propagation
	// — a retry of an already-expired request fails at dequeue without
	// touching the blade). The in-service deadline is a pooled engine
	// timer racing the fault chain (a kill's blackout stalls faults in
	// the §4.4 timeout machinery for milliseconds; the timer is what
	// keeps the client's view of the request bounded). 0 disables
	// deadlines.
	Deadline sim.Duration
	// MaxRetries re-admits a timed-out or errored request up to this
	// many times, after exponential backoff, within the request's
	// original deadline.
	MaxRetries int
	// RetryBackoff is the base backoff: attempt k waits
	// RetryBackoff<<(k-1), clamped to 64x RetryBackoff, plus a
	// deterministic jitter in [0, RetryBackoff). 0 with retries enabled
	// defaults to 2us.
	RetryBackoff sim.Duration
	// Brownout is the probability that an arrival on a rack currently
	// in recovery blackout (blade-kill re-homing or switch failover in
	// flight) is shed at admission — graceful degradation instead of
	// queue collapse while the rack heals. 0 disables brownout.
	Brownout float64
	// Seed roots the per-shard RNG streams behind retry jitter and
	// brownout coins (tag "serve-robust/r<rack>"); draws happen only in
	// shard event order, so the schedule is deterministic across worker
	// counts.
	Seed uint64
}

// retryBackoff computes attempt's backoff (attempt >= 1): exponential
// from the base with an overflow-proof doubling loop, clamped to 64x the
// base (to the base itself when that would overflow), plus a jitter draw
// in [0, base) from the shard's RNG stream.
func (cfg *ServeConfig) retryBackoff(attempt int, rng *sim.RNG) sim.Duration {
	base := cfg.RetryBackoff
	if base <= 0 {
		base = 2 * sim.Microsecond
	}
	max := base << 6
	if base > sim.Duration(1)<<56 {
		max = base
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d > max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	return d + sim.Duration(rng.Uint64n(uint64(base)))
}

// serveReq is one admitted request; pooled and chained intrusively
// into its blade's FIFO so steady-state serving allocates nothing.
type serveReq struct {
	tenant  *serveTenant
	va      mem.VA
	write   bool
	arrival sim.Time
	next    *serveReq

	// attempt counts re-admissions; deadline is the request's end-to-end
	// expiry, fixed at admission and never refreshed across retries
	// (zero when the run has no request budget). arrival stays the
	// original arrival across retries, so a served retry's observed
	// sojourn spans the whole client wait.
	attempt  int
	deadline sim.Time
}

// serveTenant is the runtime state behind one TenantWorkload share.
type serveTenant struct {
	s    *serveShard
	spec TenantWorkload
	pdid mem.PDID

	// Stop generating arrivals past this virtual time.
	deadline sim.Time

	lat *stats.StreamHist
	// ctr counts this share's outcomes under "<counter>[<tenant>]".
	ctr serveCounters
}

// serveOutcome names what can happen to an arrival; every one is counted
// once for its shard and once for its tenant.
type serveOutcome int

const (
	outArrived serveOutcome = iota
	outCompleted
	outThrottled
	outDropped
	outTimedOut
	outRetried
	outShed
	outFailed
	numServeOutcomes
)

// serveCounterNames is index-aligned with the outcomes.
var serveCounterNames = [numServeOutcomes]string{
	stats.CtrServeArrivals, stats.CtrServeCompleted, stats.CtrServeThrottled, stats.CtrServeDropped,
	stats.CtrServeTimedOut, stats.CtrServeRetried, stats.CtrServeShed, stats.CtrServeFailed,
}

// serveCounters holds one counter handle per outcome.
type serveCounters [numServeOutcomes]stats.Handle

// newServeCounters registers the outcome counters on col, in outcome
// order, each named by its counter name with suffix appended.
func newServeCounters(col *stats.Collector, suffix string) (c serveCounters) {
	for i, name := range serveCounterNames {
		c[i] = col.Handle(name + suffix)
	}
	return c
}

// count records one outcome for the tenant's shard and for the tenant.
func (st *serveTenant) count(o serveOutcome) {
	col := st.s.c.col
	col.IncH(st.s.ctr[o], 1)
	col.IncH(st.ctr[o], 1)
}

// serveWorker drains one blade's FIFO, one request at a time.
type serveWorker struct {
	s     *serveShard
	blade int

	head, tail *serveReq
	qlen       int
	busy       bool

	// cur is the request in service; accessDone is the pre-bound access
	// completion (one per worker — a worker serves one request at a
	// time, so no per-request closure is needed). curErr carries the
	// access's error into complete.
	cur        *serveReq
	curErr     error
	accessDone func(computeblade.AccessResult)

	// deadEv is the worker's pooled deadline timer (engine.Rearm): it
	// races the in-service fault chain and, firing first, marks the
	// attempt expired. The worker still waits for the access completion
	// — exactly one access per worker is ever outstanding — so a late
	// fault return can never be confused with a newer request's.
	deadEv  *sim.Event
	expired bool
}

// Pre-bound continuations (see thread.go): scheduling these allocates
// neither a closure nor, steady-state, an event.
func serveArrival(x any)    { x.(*serveTenant).arrive() }
func serveWorkerStep(x any) { x.(*serveWorker).step() }
func serveIssue(x any)      { x.(*serveWorker).issue() }
func serveComplete(x any)   { x.(*serveWorker).complete() }
func serveDeadline(x any)   { x.(*serveWorker).expired = true }
func serveRetry(x any)      { req := x.(*serveReq); req.tenant.readmit(req) }

// serveShard owns one rack's slice of a serving run. Every field is
// mutated only from its rack's event context (or, for multi-rack pods,
// read at window barriers where all engines are parked), which is the
// whole determinism argument: a shard's window contents are fixed by
// its own event schedule regardless of how many OS threads execute the
// windows.
type serveShard struct {
	sv *Serving
	c  *Rack

	tenants []*serveTenant
	workers []*serveWorker
	reqFree sim.Pool[serveReq]

	// rng feeds retry jitter and brownout coins; drawn from only in
	// shard event order, so the stream is schedule-deterministic.
	rng *sim.RNG
	// ctr counts the shard's outcomes under the plain counter names.
	ctr serveCounters

	// liveArrivals counts tenant shares whose arrival chain has not
	// passed its deadline; pending counts admitted-but-incomplete
	// requests. lastFinish is the virtual time of the shard's most
	// recent completion or chain close — the pod-wide maximum is the
	// run's finish time.
	liveArrivals int
	pending      int
	lastFinish   sim.Time
}

// outstanding reports the shard's open work. Barrier/rack context only.
func (sh *serveShard) outstanding() int { return sh.liveArrivals + sh.pending }

// settle is where an admitted request meets its terminal fate —
// completed, timed out, failed or dropped at readmission; the caller has
// counted which. The shard's pending count drops, the finish time
// advances and the request returns to the pool.
func (s *serveShard) settle(req *serveReq) {
	s.pending--
	if now := s.c.eng.Now(); now > s.lastFinish {
		s.lastFinish = now
	}
	req.tenant = nil
	s.reqFree.Put(req)
}

// Serving runs open-loop tenants over a pod: one serving shard per
// rack, advanced by the pod's executor like everything else. On a
// 1-rack pod that is the classic single-engine injector, bit-identical
// to the pre-shard serving layer.
type Serving struct {
	p   *Pod
	cfg ServeConfig

	// shards is index-aligned with the pod's racks.
	shards []*serveShard

	tenants int // total registered shares, across all shards
}

// NewPodServing attaches a serving layer to a pod: one shard per rack,
// one serve worker per compute blade. Invalid configurations are
// reported as errors, never panics.
func NewPodServing(p *Pod, cfg ServeConfig) (*Serving, error) {
	if p == nil {
		return nil, fmt.Errorf("core: serving needs a pod")
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("core: serving horizon must be positive (got %v)", cfg.Horizon)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	s := &Serving{p: p, cfg: cfg}
	for _, c := range p.racks {
		if len(c.cblades) == 0 {
			return nil, fmt.Errorf("core: serving rack %d has no compute blades", c.idx)
		}
		sh := &serveShard{
			sv:  s,
			c:   c,
			rng: sim.NewRNG(cfg.Seed, fmt.Sprintf("serve-robust/r%d", c.idx)),
			ctr: newServeCounters(c.col, ""),
		}
		eng := c.eng
		for i := range c.cblades {
			w := &serveWorker{s: sh, blade: i}
			w.accessDone = func(r computeblade.AccessResult) {
				w.curErr = r.Err
				eng.ScheduleArg(0, serveComplete, w)
			}
			sh.workers = append(sh.workers, w)
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// AddTenant registers a tenant share on its process's rack. Must be
// called before Run.
func (s *Serving) AddTenant(t TenantWorkload) error {
	if t.Arrival == nil || t.NextOp == nil || t.Proc == nil {
		return fmt.Errorf("core: serving tenant %s: missing arrival/ops/process", t.Name)
	}
	sh := s.shards[t.Proc.Rack().idx]
	if t.Blade < 0 || t.Blade >= len(sh.c.cblades) {
		return fmt.Errorf("core: serving tenant %s: no compute blade %d on rack %d", t.Name, t.Blade, sh.c.idx)
	}
	st := &serveTenant{
		s:    sh,
		spec: t,
		pdid: t.Proc.PID(),
		lat:  sh.c.col.StreamHist("serve_lat[" + t.Name + "]"),
		ctr:  newServeCounters(sh.c.col, "["+t.Name+"]"),
	}
	sh.tenants = append(sh.tenants, st)
	s.tenants++
	return nil
}

// Run schedules each tenant share's first arrival on its home shard,
// drives the pod until every arrival chain has passed the horizon and
// every admitted request has completed, then quiesces it (the epoch
// loops stop, remaining events drain). It returns the virtual time the
// last request finished.
//
// The termination condition — every shard's outstanding count zero — is
// a stop condition of the pod executor like any other: a multi-rack pod
// evaluates it only at window barriers, where all engines are parked
// and the window's joined workers make the counter reads safe and
// deterministic; a 1-rack pod evaluates it after every event, the
// classic serial injector.
func (s *Serving) Run() (sim.Time, error) {
	if s.tenants == 0 {
		return s.p.Now(), fmt.Errorf("core: serving run with no tenants")
	}
	start := s.p.Now()
	for _, sh := range s.shards {
		for _, st := range sh.tenants {
			st.deadline = start.Add(s.cfg.Horizon)
			sh.liveArrivals++
			sh.c.eng.ScheduleArg(st.spec.Arrival.Next(start), serveArrival, st)
		}
	}

	s.p.exec.drive(0, func() bool {
		for _, sh := range s.shards {
			if sh.outstanding() > 0 {
				return false
			}
		}
		return true
	})
	finishedAt := sim.Time(0)
	for _, sh := range s.shards {
		if sh.lastFinish > finishedAt {
			finishedAt = sh.lastFinish
		}
	}
	s.p.quiesce()
	return finishedAt, nil
}

// arrive processes one arrival: chain the next arrival first (the
// open-loop property — the successor is scheduled whether or not this
// request is even admitted), then run admission and enqueue.
func (st *serveTenant) arrive() {
	s := st.s
	now := s.c.eng.Now()

	// Chain the successor while the horizon is open; closing the chain
	// is what lets Run's drain loop terminate.
	if next := now.Add(st.spec.Arrival.Next(now)); next <= st.deadline {
		s.c.eng.ScheduleArg(sim.Duration(next-now), serveArrival, st)
	} else {
		s.liveArrivals--
		if now > s.lastFinish {
			s.lastFinish = now
		}
	}

	st.count(outArrived)

	// Brownout admission: while the rack is in recovery blackout (a
	// blade kill's re-homing or a switch failover in flight), shed a
	// fraction of arrivals instead of letting queues collapse onto the
	// degraded data plane. The coin is a shard-RNG draw in event order,
	// so the shed set is deterministic.
	if s.sv.cfg.Brownout > 0 && s.c.recovering > 0 && s.rng.Bool(s.sv.cfg.Brownout) {
		st.count(outShed)
		return
	}

	// QoS admission: over-rate arrivals are shed, not queued — the
	// whole point is that an aggressor's excess never occupies the
	// blade the compliant tenants share.
	if st.spec.Limiter != nil && !st.spec.Limiter.Take(now) {
		st.count(outThrottled)
		return
	}

	w := s.workers[st.spec.Blade]
	if w.qlen >= s.sv.cfg.QueueCap {
		st.count(outDropped)
		return
	}

	req := s.reqFree.Get()
	if req == nil {
		req = &serveReq{}
	}
	req.tenant = st
	req.va, req.write = st.spec.NextOp()
	req.arrival = now
	req.attempt = 0
	req.deadline = 0
	if budget := s.sv.cfg.Deadline; budget > 0 {
		req.deadline = now.Add(budget)
	}
	s.pending++
	w.enqueue(req)
}

// enqueue appends req to the worker's FIFO and wakes the worker if it
// sits idle.
func (w *serveWorker) enqueue(req *serveReq) {
	req.next = nil
	if w.tail != nil {
		w.tail.next = req
	} else {
		w.head = req
	}
	w.tail = req
	w.qlen++
	if !w.busy {
		w.busy = true
		w.s.c.eng.ScheduleArg(0, serveWorkerStep, w)
	}
}

// step pulls the next request and starts its service: think time
// accrues first, then the access is issued (inline for a cache hit,
// as a fault round trip otherwise). An attempt whose deadline already
// passed while queued never reaches the blade — it times out at
// dequeue, and the worker moves straight to the next request.
func (w *serveWorker) step() {
	s := w.s
	for {
		req := w.head
		if req == nil {
			w.busy = false
			return
		}
		w.head = req.next
		if w.head == nil {
			w.tail = nil
		}
		req.next = nil
		w.qlen--

		now := s.c.eng.Now()
		if req.deadline != 0 && now >= req.deadline {
			req.tenant.failAttempt(req, true)
			continue
		}
		w.cur = req
		w.curErr = nil
		w.expired = false
		if req.deadline != 0 {
			w.deadEv = s.c.eng.Rearm(w.deadEv, sim.Duration(req.deadline-now), serveDeadline, w)
		}

		if s.c.cblades[w.blade].TryHit(req.va, req.write) {
			s.c.eng.ScheduleArg(thinkTime+computeblade.HitLatency, serveComplete, w)
			return
		}
		s.c.eng.ScheduleArg(thinkTime, serveIssue, w)
		return
	}
}

// issue performs the access of the request in service; accessDone
// completes it, whether the cache or a fault served it. On a memory-poor
// rack the faulted page may live on a borrowed blade: the fetch round
// trip then crosses the pod interconnect (memRound), which is how a
// serving shard exercises cross-rack traffic without ever touching
// another shard's state directly.
func (w *serveWorker) issue() {
	req := w.cur
	w.s.c.cblades[w.blade].Access(req.tenant.pdid, req.va, req.write, w.accessDone)
}

// complete finishes the request in service. The worker always waits
// for the access completion (the §4.4 timeout/retransmit/reset
// machinery bounds every access, even to a dead blade), then settles
// the attempt: expired or errored attempts go to failAttempt; a clean
// completion observes its sojourn time (queueing + service, from the
// original arrival — a served retry's latency spans the whole client
// wait) into the tenant's streaming histogram and recycles the
// request. Either way the worker continues with its queue.
func (w *serveWorker) complete() {
	s := w.s
	req := w.cur
	w.cur = nil
	st := req.tenant
	s.c.eng.Cancel(w.deadEv)

	switch {
	case w.expired:
		st.failAttempt(req, true)
	case w.curErr != nil:
		st.failAttempt(req, false)
	default:
		st.lat.Observe(int64(s.c.eng.Now() - req.arrival))
		st.count(outCompleted)
		s.settle(req)
	}
	w.curErr = nil
	w.expired = false

	if w.head != nil {
		s.c.eng.ScheduleArg(0, serveWorkerStep, w)
		return
	}
	w.busy = false
}

// failAttempt settles one failed attempt. timedOut distinguishes a
// deadline expiry from an access error (the VA was lost in a blade
// kill). With retry budget left the request is re-admitted after
// exponential backoff; otherwise its fate is terminal — timed-out or
// failed — and the shard's pending count finally drops.
func (st *serveTenant) failAttempt(req *serveReq, timedOut bool) {
	s := st.s
	if req.attempt < s.sv.cfg.MaxRetries {
		req.attempt++
		st.count(outRetried)
		s.c.eng.ScheduleArg(s.sv.cfg.retryBackoff(req.attempt, s.rng), serveRetry, req)
		return
	}
	if timedOut {
		st.count(outTimedOut)
	} else {
		st.count(outFailed)
	}
	s.settle(req)
}

// readmit re-enqueues a retried request on its blade. The deadline is
// NOT refreshed: it is the request's end-to-end budget, fixed at
// admission, and retries spend from it (deadline propagation). A full
// queue at readmission is a terminal drop — the same fate an arrival
// would have met.
func (st *serveTenant) readmit(req *serveReq) {
	s := st.s
	w := s.workers[st.spec.Blade]
	if w.qlen >= s.sv.cfg.QueueCap {
		st.count(outDropped)
		s.settle(req)
		return
	}
	w.enqueue(req)
}
