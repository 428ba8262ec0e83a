package core

import (
	"math"
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// fixedGap is a deterministic arrival process for tests: one arrival
// every d of virtual time.
type fixedGap sim.Duration

func (g fixedGap) Next(now sim.Time) sim.Duration { return sim.Duration(g) }

// serveCluster builds a small serving cluster with one tenant process
// and a round-robin op stream over its vma.
func serveCluster(t *testing.T, blades int) *Cluster {
	t.Helper()
	cfg := DefaultConfig(blades, 1)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 512
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newTestServing builds a serving layer on c's pod, failing the test
// on construction errors.
func newTestServing(t *testing.T, c *Cluster, cfg ServeConfig) *Serving {
	t.Helper()
	s, err := NewPodServing(c.Pod(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustRun drives the serving run, failing the test on errors.
func mustRun(t *testing.T, s *Serving) sim.Time {
	t.Helper()
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// roundRobinOps returns an endless op stream striding pages of a vma.
func roundRobinOps(base mem.VA, pages uint64) func() (mem.VA, bool) {
	i := uint64(0)
	return func() (mem.VA, bool) {
		va := base + mem.VA((i%pages)*mem.PageSize)
		i++
		return va, i%4 == 0
	}
}

func addServeTenant(t *testing.T, c *Cluster, s *Serving, name string, blade int, gap sim.Duration, limiter *ctrlplane.TokenBucket) {
	t.Helper()
	p := c.Exec(name)
	vma, err := p.Mmap(64*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	err = s.AddTenant(TenantWorkload{
		Name:    name,
		Proc:    p,
		Blade:   blade,
		Arrival: fixedGap(gap),
		NextOp:  roundRobinOps(vma.Base, 64),
		Limiter: limiter,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServingCompletesAllAdmitted: a tenant below saturation has every
// arrival admitted, served, and latency-accounted.
func TestServingCompletesAllAdmitted(t *testing.T) {
	c := serveCluster(t, 2)
	s := newTestServing(t, c, ServeConfig{Horizon: 10 * sim.Millisecond})
	addServeTenant(t, c, s, "a", 0, 100*sim.Microsecond, nil)
	mustRun(t, s)

	col := c.Collector()
	arr := col.Counter(stats.CtrServeArrivals)
	done := col.Counter(stats.CtrServeCompleted)
	if arr == 0 {
		t.Fatal("no arrivals generated")
	}
	// 10 ms / 100 µs = ~100 arrivals.
	if arr < 90 || arr > 110 {
		t.Errorf("arrivals = %d, want ~100", arr)
	}
	if done != arr {
		t.Errorf("completed %d of %d arrivals (unsaturated tenant must drain fully)", done, arr)
	}
	if col.Counter(stats.CtrServeThrottled) != 0 || col.Counter(stats.CtrServeDropped) != 0 {
		t.Error("no-QoS unsaturated run must not shed requests")
	}
	lat := col.StreamHist("serve_lat[a]")
	if lat.Count() != done {
		t.Errorf("latency samples %d != completed %d", lat.Count(), done)
	}
	if lat.Percentile(99) <= 0 {
		t.Error("p99 must be positive")
	}
}

// TestServingOpenLoopQueueing: past saturation, latency grows with the
// backlog — the open-loop signature a closed-loop workload cannot
// produce — and per-tenant accounting separates the aggressor from the
// compliant tenant.
func TestServingOpenLoopQueueing(t *testing.T) {
	// Saturated: arrivals every 200 ns on one blade whose per-request
	// service (think + fault) is far slower.
	c := serveCluster(t, 1)
	s := newTestServing(t, c, ServeConfig{Horizon: sim.Millisecond, QueueCap: 1 << 20})
	addServeTenant(t, c, s, "hot", 0, 200*sim.Nanosecond, nil)
	mustRun(t, s)
	hotP99 := c.Collector().StreamHist("serve_lat[hot]").Percentile(99)

	// Same workload far below saturation.
	c2 := serveCluster(t, 1)
	s2 := newTestServing(t, c2, ServeConfig{Horizon: sim.Millisecond, QueueCap: 1 << 20})
	addServeTenant(t, c2, s2, "cool", 0, 50*sim.Microsecond, nil)
	mustRun(t, s2)
	coolP99 := c2.Collector().StreamHist("serve_lat[cool]").Percentile(99)

	if hotP99 < 10*coolP99 {
		t.Errorf("saturated p99 %d ns not >> unsaturated p99 %d ns (no queueing collapse)", hotP99, coolP99)
	}
}

// TestServingQoSThrottling: a token bucket sheds an aggressor's excess
// and keeps the shared blade's backlog bounded for the compliant
// tenant.
func TestServingQoSThrottling(t *testing.T) {
	// Both tenants on blade 0; aggressor at 5M req/s, limited to 100k.
	c := serveCluster(t, 1)
	s := newTestServing(t, c, ServeConfig{Horizon: 2 * sim.Millisecond, QueueCap: 1 << 20})
	addServeTenant(t, c, s, "victim", 0, 100*sim.Microsecond, nil)
	addServeTenant(t, c, s, "aggr", 0, 200*sim.Nanosecond, ctrlplane.NewTokenBucket(100_000, 16))
	mustRun(t, s)

	col := c.Collector()
	if col.Counter("serve_throttled[aggr]") == 0 {
		t.Error("aggressor over its contracted rate must be throttled")
	}
	if col.Counter("serve_throttled[victim]") != 0 {
		t.Error("tenant without a limiter must never be throttled")
	}
	aggrArr := col.Counter("serve_arrivals[aggr]")
	aggrDone := col.Counter("serve_completed[aggr]")
	if aggrDone >= aggrArr {
		t.Errorf("aggressor completed %d of %d arrivals; throttling admitted everything", aggrDone, aggrArr)
	}
	if got := col.Counter("serve_completed[victim]"); got == 0 {
		t.Error("victim starved completely")
	}
}

// TestServingQueueCapDrops: a bounded queue sheds load instead of
// growing without limit.
func TestServingQueueCapDrops(t *testing.T) {
	c := serveCluster(t, 1)
	s := newTestServing(t, c, ServeConfig{Horizon: sim.Millisecond, QueueCap: 8})
	addServeTenant(t, c, s, "a", 0, 200*sim.Nanosecond, nil)
	mustRun(t, s)
	col := c.Collector()
	if col.Counter(stats.CtrServeDropped) == 0 {
		t.Error("overloaded bounded queue must drop")
	}
	if arr, done, thr, drop := col.Counter(stats.CtrServeArrivals), col.Counter(stats.CtrServeCompleted),
		col.Counter(stats.CtrServeThrottled), col.Counter(stats.CtrServeDropped); arr != done+thr+drop {
		t.Errorf("conservation violated: %d arrivals != %d completed + %d throttled + %d dropped",
			arr, done, thr, drop)
	}
}

// TestServingDeterministic: identical runs produce identical counters
// and identical percentile bits.
func TestServingDeterministic(t *testing.T) {
	run := func() (uint64, uint64, int64, sim.Time) {
		c := serveCluster(t, 2)
		s := newTestServing(t, c, ServeConfig{Horizon: 2 * sim.Millisecond})
		addServeTenant(t, c, s, "a", 0, 1*sim.Microsecond, ctrlplane.NewTokenBucket(400_000, 32))
		addServeTenant(t, c, s, "b", 1, 20*sim.Microsecond, nil)
		end := mustRun(t, s)
		col := c.Collector()
		return col.Counter(stats.CtrServeCompleted), col.Counter(stats.CtrServeThrottled),
			col.StreamHist("serve_lat[a]").Percentile(99), end
	}
	d1, t1, p1, e1 := run()
	d2, t2, p2, e2 := run()
	if d1 != d2 || t1 != t2 || p1 != p2 || e1 != e2 {
		t.Fatalf("serving run not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			d1, t1, p1, e1, d2, t2, p2, e2)
	}
}

// TestNegativeKnobsRejected: a negative serving or promotion knob is a
// config error. NewPodServing used to run MaxRetries -1 as no retries,
// Deadline -1 as none, RetryBackoff -1 as 2 µs, QueueCap -3 as 4096 and
// a brownout outside [0, 1] as given; NewPod ran MaxVMAsPerEpoch -1 as
// unbounded.
func TestNegativeKnobsRejected(t *testing.T) {
	c := serveCluster(t, 1)
	serve := func(cfg ServeConfig) func() error {
		return func() error {
			cfg.Horizon = sim.Millisecond
			_, err := NewPodServing(c.Pod(), cfg)
			return err
		}
	}
	for _, tc := range []struct {
		name  string
		build func() error
	}{
		{"MaxRetries -1", serve(ServeConfig{MaxRetries: -1})},
		{"Deadline -1", serve(ServeConfig{Deadline: -1})},
		{"RetryBackoff -1", serve(ServeConfig{MaxRetries: 1, Deadline: sim.Millisecond, RetryBackoff: -1})},
		{"QueueCap -3", serve(ServeConfig{QueueCap: -3})},
		{"Brownout -0.5", serve(ServeConfig{Brownout: -0.5})},
		{"Brownout 1.5", serve(ServeConfig{Brownout: 1.5})},
		{"MaxVMAsPerEpoch -1", func() error {
			_, err := NewPod(PodConfig{
				Racks:     []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024)},
				Promotion: PromotionConfig{MaxVMAsPerEpoch: -1},
			})
			return err
		}},
	} {
		if err := tc.build(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := serve(ServeConfig{Brownout: 1, MaxRetries: 2, Deadline: sim.Millisecond})(); err != nil {
		t.Errorf("brownout 1 with retries: %v", err)
	}
}

// TestServingInvalidConfigs pins the error (not panic) contract for
// genuinely invalid serving configurations.
func TestServingInvalidConfigs(t *testing.T) {
	if _, err := NewPodServing(nil, ServeConfig{Horizon: sim.Millisecond}); err == nil {
		t.Error("NewPodServing(nil pod) must error")
	}
	c := serveCluster(t, 1)
	if _, err := NewPodServing(c.Pod(), ServeConfig{}); err == nil {
		t.Error("zero horizon must error")
	}
	if _, err := NewPodServing(c.Pod(), ServeConfig{Horizon: -sim.Millisecond}); err == nil {
		t.Error("negative horizon must error")
	}
	s := newTestServing(t, c, ServeConfig{Horizon: sim.Millisecond})
	if _, err := s.Run(); err == nil {
		t.Error("Run with zero tenants must error")
	}
	p := c.Exec("t")
	vma, err := p.Mmap(4*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	bad := TenantWorkload{Name: "t", Proc: p, Blade: 7,
		Arrival: fixedGap(sim.Microsecond), NextOp: roundRobinOps(vma.Base, 4)}
	if err := s.AddTenant(bad); err == nil {
		t.Error("out-of-range blade must error")
	}
	bad.Blade = 0
	bad.Arrival = nil
	if err := s.AddTenant(bad); err == nil {
		t.Error("missing arrival process must error")
	}

	// A horizon or deadline whose sum with the start passes sim.MaxTime
	// would wrap the arrivals' cutoff or the requests' deadlines negative.
	for _, cfg := range []ServeConfig{
		{Horizon: 200 * sim.Microsecond, Deadline: sim.Duration(math.MaxInt64)},
		{Horizon: math.MaxInt64},
	} {
		c := serveCluster(t, 1)
		s := newTestServing(t, c, cfg)
		p := c.Exec("t")
		vma, err := p.Mmap(4*mem.PageSize, mem.PermReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddTenant(TenantWorkload{Name: "t", Proc: p,
			Arrival: fixedGap(2 * sim.Microsecond), NextOp: roundRobinOps(vma.Base, 4)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err == nil {
			t.Errorf("Run with horizon %v and deadline %v must error", cfg.Horizon, cfg.Deadline)
		}
	}
}

// servePod builds a small multi-rack pod for sharded-serving tests:
// rack 0 is memory-poor (it borrows from the lenders), the rest have
// spare blades.
func servePod(t *testing.T, racks, blades, workers int) *Pod {
	t.Helper()
	pcfg := PodConfig{Workers: workers}
	for ri := 0; ri < racks; ri++ {
		rc := DefaultConfig(blades, 1)
		rc.CachePagesPerBlade = 256
		if ri == 0 {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 1, 1<<20
		} else {
			rc.MemoryBlades, rc.MemoryBladeCapacity = 3, 1<<26
		}
		pcfg.Racks = append(pcfg.Racks, rc)
	}
	pod, err := NewPod(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	return pod
}

// addPodServeTenant registers one tenant share on the given rack with a
// pages-sized vma (large enough shares on the memory-poor rack 0
// overflow its 1 MB blade and force a cross-rack borrow at mmap time).
func addPodServeTenant(t *testing.T, pod *Pod, s *Serving, name string, rack, blade, pages int, gap sim.Duration, limiter *ctrlplane.TokenBucket) {
	t.Helper()
	p := pod.Rack(rack).Exec(name)
	vma, err := p.Mmap(uint64(pages)*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	err = s.AddTenant(TenantWorkload{
		Name:    name,
		Proc:    p,
		Blade:   blade,
		Arrival: fixedGap(gap),
		NextOp:  roundRobinOps(vma.Base, uint64(pages)),
		Limiter: limiter,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServingMultiRack: the formerly-panicking configuration is now the
// supported path — per-rack shards serve their tenants inside the
// windowed executor, cross-rack faults ride borrowed blades, and the
// pod-wide merged counters conserve requests.
func TestServingMultiRack(t *testing.T) {
	pod := servePod(t, 3, 2, 0)
	s, err := NewPodServing(pod, ServeConfig{Horizon: 2 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Rack 0's vma exceeds its 1 MB local blade, so its tenant's faults
	// cross the interconnect; a same-Name share on rack 1 exercises the
	// merged per-tenant accounting.
	addPodServeTenant(t, pod, s, "spanner", 0, 0, 512, 40*sim.Microsecond, nil)
	addPodServeTenant(t, pod, s, "spanner", 1, 1, 64, 60*sim.Microsecond, nil)
	addPodServeTenant(t, pod, s, "solo", 2, 0, 64, 50*sim.Microsecond, ctrlplane.NewTokenBucket(100_000, 8))
	if pod.Rack(0).BorrowedBlades() == 0 {
		t.Fatal("rack 0 should have borrowed memory for its tenant share")
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Error("run finished at virtual time 0")
	}
	col := pod.Collector()
	arr := col.Counter(stats.CtrServeArrivals)
	done := col.Counter(stats.CtrServeCompleted)
	thr := col.Counter(stats.CtrServeThrottled)
	drop := col.Counter(stats.CtrServeDropped)
	if arr == 0 || done == 0 {
		t.Fatalf("no traffic (arrivals=%d completed=%d)", arr, done)
	}
	if arr != done+thr+drop {
		t.Errorf("pod-wide conservation violated: %d != %d+%d+%d", arr, done, thr, drop)
	}
	// The spanner's two shares merge into one pod-wide histogram.
	spanArr := col.Counter("serve_arrivals[spanner]")
	r0 := pod.Rack(0).Collector().Counter("serve_arrivals[spanner]")
	r1 := pod.Rack(1).Collector().Counter("serve_arrivals[spanner]")
	if r0 == 0 || r1 == 0 || spanArr != r0+r1 {
		t.Errorf("per-rack shares %d+%d must merge to pod-wide %d", r0, r1, spanArr)
	}
	if lat := col.StreamHist("serve_lat[spanner]"); lat.Count() != col.Counter("serve_completed[spanner]") {
		t.Errorf("merged latency samples %d != merged completions %d",
			lat.Count(), col.Counter("serve_completed[spanner]"))
	}
	if col.Counter(stats.CtrCrossRackMsgs) == 0 {
		t.Error("rack 0's faults should have crossed the interconnect")
	}
}
