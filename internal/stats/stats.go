// Package stats collects the metrics the MIND evaluation reports: event
// counters, latency-component breakdowns (Figure 7 right), time series of
// switch resource occupancy (Figure 8 left), streaming histograms, and Jain's
// fairness index (Figure 8 right).
package stats

import (
	"fmt"

	"mind/internal/sim"
)

// Counter names used across the simulator. Components register counts
// under these keys so experiment runners can read them uniformly.
const (
	CtrAccesses       = "accesses"        // memory LOAD/STOREs issued
	CtrLocalHits      = "local_hits"      // served from compute-blade cache
	CtrRemoteAccesses = "remote_accesses" // page faults requiring the fabric
	CtrInvalidations  = "invalidations"   // invalidation requests delivered
	CtrFlushedPages   = "flushed_pages"   // dirty pages written back on invalidation
	CtrFalseInvals    = "false_invals"    // flushed pages other than the requested one
	CtrEvictions      = "evictions"       // cache-capacity evictions
	CtrWritebacks     = "writebacks"      // dirty evictions written back
	CtrSplits         = "region_splits"   // bounded-splitting splits
	CtrMerges         = "region_merges"   // bounded-splitting merges
	CtrResets         = "coherence_resets"
	CtrRetransmits    = "retransmits"
	CtrRejected       = "protection_rejects"
	CtrRecirculations = "recirculations"
	CtrMulticasts     = "multicasts"
	CtrPrunedCopies   = "pruned_copies" // multicast copies dropped at egress

	// Online-elasticity counters.
	CtrMigrationStalls = "migration_stalls" // requests bounced off frozen ranges
	CtrMigratedPages   = "migrated_pages"   // pages moved between blades by drains
	CtrLostWrites      = "lost_writes"      // writebacks addressed to a dead blade
	CtrBladeEvents     = "blade_events"     // membership changes (add/drain/kill)

	// Pod-scale (multi-rack) counters; registered only when a pod has
	// more than one rack.
	CtrCrossRackMsgs = "cross_rack_msgs" // messages routed through both switches
	CtrBladeBorrows  = "blade_borrows"   // memory blades lent across racks
	CtrBladeReturns  = "blade_returns"   // borrowed blades handed back
	CtrPromotedVMAs  = "promoted_vmas"   // vmas migrated home by the promotion policy
	CtrPromotedPages = "promoted_pages"  // pages those promotions copied

	// Open-loop serving counters; registered only when a serving layer
	// is attached to a rack.
	CtrServeArrivals  = "serve_arrivals"  // open-loop requests generated
	CtrServeCompleted = "serve_completed" // requests served to completion
	CtrServeThrottled = "serve_throttled" // requests shed by QoS admission
	CtrServeDropped   = "serve_dropped"   // requests shed by a full queue

	// Failure-injection counters: one kill per injected blade death or
	// switch failover, one recovery when its re-home/failover completes.
	CtrBladeKills      = "blade_kills"
	CtrBladeRecoveries = "blade_recoveries"

	// Serving request-robustness counters. A request's terminal fate is
	// exactly one of completed / throttled / dropped / shed / timedout /
	// failed (the serving conservation identity); retried counts
	// re-admissions and is informational, not a terminal state.
	CtrServeTimedOut = "serve_timedout" // deadline exhausted (terminal)
	CtrServeRetried  = "serve_retried"  // failed attempts re-admitted
	CtrServeShed     = "serve_shed"     // arrivals shed by brownout admission
	CtrServeFailed   = "serve_failed"   // errored out of retries (lost)
)

// Latency component names (Figure 7 right breakdown).
const (
	LatPgFault  = "pgfault"
	LatNetwork  = "network"
	LatInvQueue = "inv_queue"
	LatInvTLB   = "inv_tlb"
)

// Handle is an integer index into a Collector's counter (or latency)
// table, resolved once from a name. Components resolve their handles at
// construction and bump plain slice slots per event; name-keyed reads
// (Counter, MeanLatency) remain for cold paths and tests.
type Handle int

// Collector accumulates all metrics for one simulation run. It is not
// safe for concurrent use; the simulator is single-threaded.
type Collector struct {
	// Plain counters: name -> index into cvals.
	cidx  map[string]Handle
	cvals []uint64
	// Latency component sums and sample counts, indexed by handle.
	lidx   map[string]Handle
	lsum   []sim.Duration
	lcount []uint64

	series  map[string]*Series
	streams map[string]*StreamHist

	// hAccesses is the pre-resolved CtrAccesses handle PerAccess uses.
	hAccesses Handle
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{
		cidx:    make(map[string]Handle),
		lidx:    make(map[string]Handle),
		series:  make(map[string]*Series),
		streams: make(map[string]*StreamHist),
	}
	c.hAccesses = c.Handle(CtrAccesses)
	return c
}

// Handle resolves (registering on first use) the integer handle for a
// named counter.
func (c *Collector) Handle(name string) Handle {
	if h, ok := c.cidx[name]; ok {
		return h
	}
	h := Handle(len(c.cvals))
	c.cidx[name] = h
	c.cvals = append(c.cvals, 0)
	return h
}

// IncH adds delta to the counter behind a pre-resolved handle — the
// allocation- and hash-free per-event form. The old string-keyed Inc
// shim (which hashed the name on every call) is gone; resolve a Handle
// once and use IncH.
func (c *Collector) IncH(h Handle, delta uint64) { c.cvals[h] += delta }

// Counter returns the current value of the named counter (zero if never
// incremented).
func (c *Collector) Counter(name string) uint64 {
	if h, ok := c.cidx[name]; ok {
		return c.cvals[h]
	}
	return 0
}

// PerAccess returns counter/accesses, the normalization used by Figure 6.
func (c *Collector) PerAccess(name string) float64 {
	a := c.cvals[c.hAccesses]
	if a == 0 {
		return 0
	}
	return float64(c.Counter(name)) / float64(a)
}

// LatencyHandle resolves (registering on first use) the integer handle
// for a named latency component.
func (c *Collector) LatencyHandle(name string) Handle {
	if h, ok := c.lidx[name]; ok {
		return h
	}
	h := Handle(len(c.lsum))
	c.lidx[name] = h
	c.lsum = append(c.lsum, 0)
	c.lcount = append(c.lcount, 0)
	return h
}

// AddLatencyH accumulates d under a pre-resolved latency handle. The
// old string-keyed AddLatency shim is gone; resolve a Handle once via
// LatencyHandle and use AddLatencyH.
func (c *Collector) AddLatencyH(h Handle, d sim.Duration) {
	c.lsum[h] += d
	c.lcount[h]++
}

// MeanLatency returns the mean of the named component over ops sampled
// operations. If ops is zero the component's own sample count is used.
func (c *Collector) MeanLatency(component string, ops uint64) sim.Duration {
	h, ok := c.lidx[component]
	if !ok {
		return 0
	}
	if ops == 0 {
		ops = c.lcount[h]
	}
	if ops == 0 {
		return 0
	}
	return sim.Duration(int64(c.lsum[h]) / int64(ops))
}

// LatencySum returns the total accumulated duration for a component.
func (c *Collector) LatencySum(component string) sim.Duration {
	if h, ok := c.lidx[component]; ok {
		return c.lsum[h]
	}
	return 0
}

// Series returns (creating on first use) a named time series.
func (c *Collector) Series(name string) *Series {
	s, ok := c.series[name]
	if !ok {
		s = &Series{}
		c.series[name] = s
	}
	return s
}

// MergeFrom folds another collector's metrics into this one: counters
// and latency components add; series and streaming histograms merge
// sample-for-sample (or bucket-for-bucket), never by reference — two
// shards observing under the same name accumulate into one merged metric
// instead of the last shard silently overwriting the rest, and the
// destination never aliases the source's slices. Used to present one
// merged view over the per-rack collector shards of a parallel pod.
func (c *Collector) MergeFrom(o *Collector) {
	for name, h := range o.cidx {
		c.cvals[c.Handle(name)] += o.cvals[h]
	}
	for name, h := range o.lidx {
		hh := c.LatencyHandle(name)
		c.lsum[hh] += o.lsum[h]
		c.lcount[hh] += o.lcount[h]
	}
	for name, s := range o.series {
		d := c.Series(name)
		d.Times = append(d.Times, s.Times...)
		d.Values = append(d.Values, s.Values...)
	}
	for name, sh := range o.streams {
		c.StreamHist(name).MergeFrom(sh)
	}
}

// StreamHist returns (creating on first use) a named streaming
// histogram (fixed-memory log-bucketed percentiles; see streamhist.go).
func (c *Collector) StreamHist(name string) *StreamHist {
	h, ok := c.streams[name]
	if !ok {
		h = NewStreamHist()
		c.streams[name] = h
	}
	return h
}

// Snapshot returns a copy of all plain counters, for test assertions.
func (c *Collector) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.cidx))
	for k, h := range c.cidx {
		out[k] = c.cvals[h]
	}
	return out
}

// Series is an append-only (time, value) sequence, e.g. directory entries
// in use sampled each epoch (Figure 8 left).
type Series struct {
	Times  []sim.Time
	Values []float64
}

// Append records one sample.
func (s *Series) Append(t sim.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// Max returns the maximum value (0 for an empty series). The running
// max is seeded from the first element, not zero, so an all-negative
// series reports its true maximum.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum value (0 for an empty series), seeded from
// the first element like Max.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Normalized returns values with times rescaled to [0,1] of the run, the
// form Figure 8 (left) plots.
func (s *Series) Normalized() (x, y []float64) {
	if len(s.Times) == 0 {
		return nil, nil
	}
	t0 := s.Times[0]
	t1 := s.Times[len(s.Times)-1]
	span := float64(t1 - t0)
	if span == 0 {
		span = 1
	}
	x = make([]float64, len(s.Times))
	y = make([]float64, len(s.Values))
	for i := range s.Times {
		x[i] = float64(s.Times[i]-t0) / span
		y[i] = s.Values[i]
	}
	return x, y
}

// JainFairness computes Jain's fairness index (Σx)² / (n·Σx²) over the
// given loads — 1.0 is perfectly balanced, 1/n is maximally skewed.
// An all-zero or empty input returns 1 (nothing allocated is trivially
// fair, matching the paper's plots which start at 1).
func JainFairness(loads []float64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range loads {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(loads)) * sumSq)
}

// FormatPerAccess renders a per-access rate the way the paper's Figure 6
// axis does (occurrences per access, log scale), for human-readable CLI
// output.
func FormatPerAccess(v float64) string {
	if v == 0 {
		return "0"
	}
	return fmt.Sprintf("%.2e", v)
}
