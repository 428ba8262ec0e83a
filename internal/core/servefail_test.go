package core

// Request-robustness layer: deadlines, retries, backoff and brownout —
// the degenerate configurations (satellite coverage) and the kill-storm
// accounting on a single rack.

import (
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// conservation asserts the serving identity: every arrival meets
// exactly one terminal fate.
func conservation(t *testing.T, c *Cluster) {
	t.Helper()
	col := c.Collector()
	arr := col.Counter(stats.CtrServeArrivals)
	settled := col.Counter(stats.CtrServeCompleted) + col.Counter(stats.CtrServeThrottled) +
		col.Counter(stats.CtrServeDropped) + col.Counter(stats.CtrServeShed) +
		col.Counter(stats.CtrServeTimedOut) + col.Counter(stats.CtrServeFailed)
	if arr != settled {
		t.Errorf("request conservation violated: %d arrivals != %d settled", arr, settled)
	}
}

// TestServeDeadlineShorterThanService: a deadline no service can meet
// (1 ns — shorter than even a cache hit) times out every admitted
// request; with zero retries each is terminal on its first attempt,
// the run still terminates, and conservation holds.
func TestServeDeadlineShorterThanService(t *testing.T) {
	c := serveCluster(t, 1)
	s := newTestServing(t, c, ServeConfig{
		Horizon:  time2ms,
		Deadline: sim.Nanosecond,
	})
	addServeTenant(t, c, s, "a", 0, 50*sim.Microsecond, nil)
	mustRun(t, s)

	col := c.Collector()
	if got := col.Counter(stats.CtrServeCompleted); got != 0 {
		t.Errorf("completed %d requests under a 1ns deadline", got)
	}
	if col.Counter(stats.CtrServeTimedOut) == 0 {
		t.Error("nothing timed out under a 1ns deadline")
	}
	if got := col.Counter(stats.CtrServeRetried); got != 0 {
		t.Errorf("retried %d with MaxRetries=0", got)
	}
	conservation(t, c)
}

// TestServeDeadlineWithRetriesStillTerminates: a deadline shorter than
// one fault round trip plus a retry budget — every attempt times out,
// every request burns its full budget, and the retried count is
// exactly MaxRetries per terminal timeout.
func TestServeDeadlineWithRetriesStillTerminates(t *testing.T) {
	c := serveCluster(t, 1)
	const retries = 3
	s := newTestServing(t, c, ServeConfig{
		Horizon:      time2ms,
		Deadline:     100 * sim.Nanosecond, // shorter than any fault RTT
		MaxRetries:   retries,
		RetryBackoff: sim.Microsecond,
	})
	addServeTenant(t, c, s, "a", 0, 50*sim.Microsecond, nil)
	mustRun(t, s)

	col := c.Collector()
	timedOut := col.Counter(stats.CtrServeTimedOut)
	retried := col.Counter(stats.CtrServeRetried)
	if timedOut == 0 {
		t.Fatal("nothing timed out")
	}
	if retried != timedOut*retries {
		t.Errorf("retried = %d, want %d (MaxRetries per terminal timeout)", retried, timedOut*retries)
	}
	if col.Counter(stats.CtrServeCompleted) != 0 {
		t.Error("completed requests under an unmeetable deadline")
	}
	conservation(t, c)
}

// TestServeGenerousDeadlineCompletesEverything: a deadline far above
// the service time is invisible — nothing times out, nothing retries,
// and every arrival completes.
func TestServeGenerousDeadlineCompletesEverything(t *testing.T) {
	c := serveCluster(t, 1)
	s := newTestServing(t, c, ServeConfig{
		Horizon:    time2ms,
		Deadline:   10 * sim.Millisecond,
		MaxRetries: 2,
	})
	addServeTenant(t, c, s, "a", 0, 50*sim.Microsecond, nil)
	mustRun(t, s)

	col := c.Collector()
	if col.Counter(stats.CtrServeTimedOut) != 0 || col.Counter(stats.CtrServeRetried) != 0 {
		t.Errorf("generous deadline produced timeouts/retries: %d/%d",
			col.Counter(stats.CtrServeTimedOut), col.Counter(stats.CtrServeRetried))
	}
	if col.Counter(stats.CtrServeCompleted) != col.Counter(stats.CtrServeArrivals) {
		t.Error("generous deadline failed to complete every arrival")
	}
	conservation(t, c)
}

// TestRetryBackoffClamp pins the exponential backoff arithmetic at its
// edges: monotone growth, the 64x clamp, and no overflow at absurd
// attempt counts or bases.
func TestRetryBackoffClamp(t *testing.T) {
	rng := sim.NewRNG(1, "backoff-test")
	base := 5 * sim.Microsecond
	cfg := &ServeConfig{RetryBackoff: base}
	prev := sim.Duration(0)
	for attempt := 1; attempt <= 80; attempt++ {
		d := cfg.retryBackoff(attempt, rng)
		if d < base || d >= 64*base+base {
			t.Fatalf("attempt %d: backoff %v outside [base, 64x base+jitter)", attempt, d)
		}
		if attempt <= 7 && d+base < prev {
			// Jitter is < base, so the exponential trend must dominate
			// until the clamp engages (5us << 6 = 320us at attempt 7).
			t.Fatalf("attempt %d: backoff %v fell below previous %v", attempt, d, prev)
		}
		if attempt >= 7 && d < 64*base {
			t.Fatalf("attempt %d: backoff %v below the 64x clamp it reached", attempt, d)
		}
		prev = d
	}

	// Overflow guard: a base too large to shift must clamp to itself,
	// never wrap negative.
	cfg = &ServeConfig{RetryBackoff: sim.Duration(1) << 60}
	for attempt := 1; attempt <= 100; attempt++ {
		if d := cfg.retryBackoff(attempt, rng); d < 0 {
			t.Fatalf("attempt %d: backoff overflowed to %v", attempt, d)
		}
	}

	// Zero base with retries enabled defaults to 2us.
	cfg = &ServeConfig{}
	if d := cfg.retryBackoff(1, rng); d < 2*sim.Microsecond || d >= 4*sim.Microsecond {
		t.Fatalf("zero-base backoff %v, want [2us, 4us)", d)
	}
}

// TestServeKillStormSingleRack: a blade kill under serving load on one
// rack — accesses to the dead blade stall in the §4.4 fault machinery,
// deadlines expire and retries re-admit until the re-home completes;
// afterwards traffic completes again. Conservation holds throughout
// and the kill/recovery counters fire.
func TestServeKillStormSingleRack(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 64
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServing(t, c, ServeConfig{
		Horizon:      time2ms,
		Deadline:     200 * sim.Microsecond,
		MaxRetries:   2,
		RetryBackoff: 5 * sim.Microsecond,
		Brownout:     0.5,
		Seed:         3,
	})
	p := c.Exec("app")
	vma, err := p.Mmap(256*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTenant(TenantWorkload{
		Name:    "app",
		Proc:    p,
		Blade:   0,
		Arrival: fixedGap(20 * sim.Microsecond),
		NextOp:  roundRobinOps(vma.Base, 256),
	}); err != nil {
		t.Fatal(err)
	}
	victim, err := c.Controller().Allocator().Translate(vma.Base)
	if err != nil {
		t.Fatal(err)
	}
	var krep KillReport
	killed := false
	c.Engine().Schedule(500*sim.Microsecond, func() {
		c.killMemBladeAsync(victim, func(r KillReport, e error) {
			if e != nil {
				t.Errorf("kill: %v", e)
			}
			krep, killed = r, true
		})
	})
	mustRun(t, s)

	if !killed {
		t.Fatal("kill recovery never completed")
	}
	if krep.Blackout() < c.Config().Migration.DetectionDelay {
		t.Fatalf("blackout %v shorter than detection delay", krep.Blackout())
	}
	col := c.Collector()
	if col.Counter(stats.CtrBladeKills) != 1 || col.Counter(stats.CtrBladeRecoveries) != 1 {
		t.Errorf("kill/recovery counters = %d/%d, want 1/1",
			col.Counter(stats.CtrBladeKills), col.Counter(stats.CtrBladeRecoveries))
	}
	if col.Counter(stats.CtrServeShed) == 0 {
		t.Error("brownout shed nothing during the recovery blackout")
	}
	if col.Counter(stats.CtrServeCompleted) == 0 {
		t.Error("nothing completed around the kill")
	}
	conservation(t, c)
}

const time2ms = 2 * sim.Millisecond
