package experiments

import (
	"testing"

	prun "mind/internal/runner"
)

// TestFigServeKillShape checks the failure panel's signature at Tiny
// scale: the storm really happens (a blade kill with real page loss, a
// switch failover, a live drain — and matching recoveries), the
// robustness layer engages (brownout sheds, deadlines expire, retries
// fire), the availability timeline dips through the blackout and
// recovers by the end, request conservation holds across every
// terminal fate, and no tenant loses its mapping (the re-home onto the
// hot-added blade succeeds).
func TestFigServeKillShape(t *testing.T) {
	s := Tiny
	s.cache = prun.NewCache()
	r, err := figServeKillRun(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrivals == 0 || r.Completed == 0 {
		t.Fatalf("no traffic: %+v", r)
	}
	settled := r.Completed + r.Throttled + r.Dropped + r.Shed + r.TimedOut + r.Failed
	if r.Arrivals != settled {
		t.Errorf("request conservation violated: %d arrivals, %d settled", r.Arrivals, settled)
	}
	if r.Kills < 2 || r.Recoveries != r.Kills {
		t.Errorf("storm accounting: kills=%d recoveries=%d, want >=2 and equal", r.Kills, r.Recoveries)
	}
	if r.PagesLost == 0 {
		t.Error("blade kill lost no pages — the borrowed blade held nothing")
	}
	if r.VMAsLost != 0 {
		t.Errorf("%d vmas lost — re-home onto the hot-added blade failed", r.VMAsLost)
	}
	if r.PagesMoved == 0 {
		t.Error("drain moved no pages")
	}
	if r.KillBlackoutMS <= 0 || r.SwitchBlackoutMS <= 0 || r.DrainBlackoutMS <= 0 {
		t.Errorf("implausible blackouts: kill %.3fms switch %.3fms drain %.3fms",
			r.KillBlackoutMS, r.SwitchBlackoutMS, r.DrainBlackoutMS)
	}
	if r.Shed == 0 || r.TimedOut == 0 || r.Retried == 0 {
		t.Errorf("robustness layer never engaged: shed=%d timedout=%d retried=%d",
			r.Shed, r.TimedOut, r.Retried)
	}
	if len(r.X) < figServeKillBuckets/2 {
		t.Fatalf("timeline too sparse: %d buckets", len(r.X))
	}
	minAvail, last := 1.0, r.Avail[len(r.Avail)-1]
	for _, a := range r.Avail {
		if a < minAvail {
			minAvail = a
		}
	}
	if minAvail > 0.9 {
		t.Errorf("availability never dipped through the blackout: min %.3f", minAvail)
	}
	if last < 0.95 {
		t.Errorf("availability did not recover by the end of the run: %.3f", last)
	}
	if r.VictimP99US <= 0 || r.SteadyP99US <= 0 {
		t.Errorf("missing p99s: victim %.1fus steady %.1fus", r.VictimP99US, r.SteadyP99US)
	}
}
