package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mind/internal/sim"
)

func TestCounters(t *testing.T) {
	c := NewCollector()
	c.IncH(c.Handle(CtrAccesses), 100)
	c.IncH(c.Handle(CtrInvalidations), 5)
	if c.Counter(CtrAccesses) != 100 {
		t.Errorf("accesses = %d", c.Counter(CtrAccesses))
	}
	if got := c.PerAccess(CtrInvalidations); got != 0.05 {
		t.Errorf("per-access = %v, want 0.05", got)
	}
	if c.Counter("never") != 0 {
		t.Error("unknown counter should be 0")
	}
}

func TestPerAccessZeroDenominator(t *testing.T) {
	c := NewCollector()
	c.IncH(c.Handle(CtrInvalidations), 5)
	if got := c.PerAccess(CtrInvalidations); got != 0 {
		t.Errorf("per-access with zero accesses = %v, want 0", got)
	}
}

func TestLatencyBreakdown(t *testing.T) {
	c := NewCollector()
	c.AddLatencyH(c.LatencyHandle(LatNetwork), 6*sim.Microsecond)
	c.AddLatencyH(c.LatencyHandle(LatNetwork), 4*sim.Microsecond)
	c.AddLatencyH(c.LatencyHandle(LatPgFault), 2*sim.Microsecond)
	if got := c.MeanLatency(LatNetwork, 0); got != 5*sim.Microsecond {
		t.Errorf("mean network = %v", got)
	}
	// Explicit op count normalization (e.g. mean across all ops, not only
	// ops that experienced the component).
	if got := c.MeanLatency(LatPgFault, 4); got != 500*sim.Nanosecond {
		t.Errorf("mean pgfault over 4 ops = %v", got)
	}
	if c.LatencySum(LatPgFault) != 2*sim.Microsecond {
		t.Errorf("sum = %v", c.LatencySum(LatPgFault))
	}
	if c.MeanLatency("none", 0) != 0 {
		t.Error("empty component should be 0")
	}
}

func TestSeries(t *testing.T) {
	c := NewCollector()
	s := c.Series("dir")
	s.Append(0, 10)
	s.Append(50, 30)
	s.Append(100, 20)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Max() != 30 {
		t.Errorf("max = %v", s.Max())
	}
	if s.Mean() != 20 {
		t.Errorf("mean = %v", s.Mean())
	}
	x, y := s.Normalized()
	if x[0] != 0 || x[1] != 0.5 || x[2] != 1 {
		t.Errorf("normalized x = %v", x)
	}
	if y[1] != 30 {
		t.Errorf("normalized y = %v", y)
	}
	// Same name returns the same series.
	if c.Series("dir") != s {
		t.Error("Series not memoized")
	}
}

func TestSeriesEmptyAndSingle(t *testing.T) {
	var s Series
	if s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty series should be zeros")
	}
	x, y := s.Normalized()
	if x != nil || y != nil {
		t.Error("empty normalized should be nil")
	}
	s.Append(42, 7)
	x, _ = s.Normalized()
	if x[0] != 0 {
		t.Errorf("single-point normalized x = %v", x)
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("balanced = %v, want 1", got)
	}
	if got := JainFairness([]float64{4, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("skewed = %v, want 0.25", got)
	}
	if got := JainFairness(nil); got != 1 {
		t.Errorf("empty = %v, want 1", got)
	}
	if got := JainFairness([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v, want 1", got)
	}
}

// Property: Jain's index is always in [1/n, 1] for non-negative loads with
// at least one positive entry.
func TestJainFairnessBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		loads := make([]float64, len(raw))
		any := false
		for i, v := range raw {
			loads[i] = float64(v)
			if v > 0 {
				any = true
			}
		}
		got := JainFairness(loads)
		if !any {
			return got == 1
		}
		n := float64(len(loads))
		return got >= 1/n-1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFormatPerAccess(t *testing.T) {
	if FormatPerAccess(0) != "0" {
		t.Error("zero format")
	}
	if got := FormatPerAccess(0.00123); got != "1.23e-03" {
		t.Errorf("format = %q", got)
	}
}

func TestSnapshot(t *testing.T) {
	c := NewCollector()
	c.IncH(c.Handle("a"), 1)
	snap := c.Snapshot()
	c.IncH(c.Handle("a"), 1)
	if snap["a"] != 1 {
		t.Error("snapshot should be a copy")
	}
}

// TestHandleStringEquivalence pins the contract between the indexed
// hot-path API and the name-keyed reads: both address the same slots.
func TestHandleStringEquivalence(t *testing.T) {
	c := NewCollector()
	h := c.Handle(CtrAccesses)
	if h2 := c.Handle(CtrAccesses); h2 != h {
		t.Fatalf("Handle not stable: %d then %d", h, h2)
	}
	c.IncH(h, 3)
	c.IncH(c.Handle(CtrAccesses), 2)
	if got := c.Counter(CtrAccesses); got != 5 {
		t.Errorf("Counter = %d, want 5 (handle and string increments must merge)", got)
	}
	if got := c.Snapshot()[CtrAccesses]; got != 5 {
		t.Errorf("Snapshot = %d, want 5", got)
	}

	lh := c.LatencyHandle(LatNetwork)
	c.AddLatencyH(lh, 100)
	c.AddLatencyH(c.LatencyHandle(LatNetwork), 300)
	if got := c.LatencySum(LatNetwork); got != 400 {
		t.Errorf("LatencySum = %d, want 400", got)
	}
	if got := c.MeanLatency(LatNetwork, 0); got != 200 {
		t.Errorf("MeanLatency = %d, want 200", got)
	}
}

// TestCounterUnknownName ensures reads of never-registered names stay
// zero-valued (and do not register anything).
func TestCounterUnknownName(t *testing.T) {
	c := NewCollector()
	if got := c.Counter("never-registered"); got != 0 {
		t.Errorf("Counter(unknown) = %d, want 0", got)
	}
	if got := c.MeanLatency("never-registered", 0); got != 0 {
		t.Errorf("MeanLatency(unknown) = %d, want 0", got)
	}
	if got := c.LatencySum("never-registered"); got != 0 {
		t.Errorf("LatencySum(unknown) = %d, want 0", got)
	}
	if _, ok := c.Snapshot()["never-registered"]; ok {
		t.Error("reading an unknown counter registered it")
	}
}

// TestIncHZeroAlloc pins the indexed counter bump at zero allocations.
func TestIncHZeroAlloc(t *testing.T) {
	c := NewCollector()
	h := c.Handle(CtrInvalidations)
	lh := c.LatencyHandle(LatPgFault)
	if avg := testing.AllocsPerRun(1000, func() {
		c.IncH(h, 1)
		c.AddLatencyH(lh, 7)
	}); avg != 0 {
		t.Errorf("IncH/AddLatencyH allocates %v/op, want 0", avg)
	}
}

// TestMergeFromCollidingNames is the regression test for the shard-merge
// bug: series and streaming histograms observed under the same name on
// two shards must merge their points/buckets, not have the second
// shard's object silently replace the first's.
func TestMergeFromCollidingNames(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.Series("occ").Append(1, 1.5)
	b.Series("occ").Append(2, 2.5)
	a.StreamHist("slat").Observe(100)
	b.StreamHist("slat").Observe(200)

	m := NewCollector()
	m.MergeFrom(a)
	m.MergeFrom(b)

	if got := m.Series("occ").Len(); got != 2 {
		t.Errorf("merged series len = %d, want 2 (collision must merge, not overwrite)", got)
	}
	if got := m.StreamHist("slat").Count(); got != 2 {
		t.Errorf("merged stream hist count = %d, want 2", got)
	}
	// Sources must be untouched.
	if a.StreamHist("slat").Count() != 1 || b.StreamHist("slat").Count() != 1 {
		t.Error("merge mutated a source stream hist")
	}
	if a.Series("occ").Len() != 1 || b.Series("occ").Len() != 1 {
		t.Error("merge mutated a source series")
	}
}

// TestMergeFromDoesNotAliasSources: the merged collector copies, it does
// not adopt — observing on a shard after the merge must not show through
// the merged view, and writing through the merged view must not reach
// the shard.
func TestMergeFromDoesNotAliasSources(t *testing.T) {
	shard := NewCollector()
	for i, v := range []float64{5, 1, 9} {
		shard.Series("occ").Append(sim.Time(i), v)
		shard.StreamHist("slat").Observe(int64(v))
	}
	m := NewCollector()
	m.MergeFrom(shard)

	shard.Series("occ").Append(3, 7)
	shard.StreamHist("slat").Observe(7)
	if got := m.Series("occ").Len(); got != 3 {
		t.Errorf("merged series len changed to %d after shard append (aliasing)", got)
	}
	if got := m.StreamHist("slat").Count(); got != 3 {
		t.Errorf("merged stream hist count changed to %d after shard observe (aliasing)", got)
	}
	m.Series("occ").Values[0] = -1
	m.Series("occ").Append(4, 2)
	if got := shard.Series("occ").Values; got[0] != 5 || got[3] != 7 {
		t.Errorf("shard series = %v after writes to the merged view (aliasing)", got)
	}
}

// TestSeriesMaxNegative is the regression test for the zero-seeded
// running max: an all-negative series must report its true (negative)
// maximum, not 0.
func TestSeriesMaxNegative(t *testing.T) {
	var s Series
	s.Append(0, -7)
	s.Append(1, -3)
	s.Append(2, -12)
	if got := s.Max(); got != -3 {
		t.Errorf("all-negative max = %v, want -3", got)
	}
	if got := s.Min(); got != -12 {
		t.Errorf("all-negative min = %v, want -12", got)
	}
}
