package experiments

import (
	"testing"
)

// TestFig10Shape asserts the elasticity panel's qualitative claims: the
// drain empties its blade with real page migration while foreground
// traffic keeps flowing, the kill's blackout is bounded and visible, and
// throughput recovers after the last membership event.
func TestFig10Shape(t *testing.T) {
	t.Parallel()
	res, _, err := fig10Runs(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.DrainPagesMoved == 0 || res.DrainAllocations == 0 {
		t.Fatalf("drain migrated nothing: %+v", res)
	}
	if res.VictimLeftover != 0 {
		t.Fatalf("drained blade still holds %d pages", res.VictimLeftover)
	}
	if res.MigrationStalls == 0 {
		t.Fatal("no foreground request ever hit a frozen range — migration did not overlap traffic")
	}
	if res.DrainBlackoutMS <= 0 || res.KillBlackoutMS <= 0 {
		t.Fatalf("blackouts not measured: drain=%.3f kill=%.3f", res.DrainBlackoutMS, res.KillBlackoutMS)
	}
	if res.EndMS <= res.KillAtMS {
		t.Fatalf("job ended (%.2fms) before the kill event (%.2fms); schedule degenerate", res.EndMS, res.KillAtMS)
	}

	// Throughput through the events: traffic keeps flowing during the
	// drain (the panel's "throttled" claim), and recovers after the kill.
	preMean, preN := 0.0, 0
	duringDrainMax, duringDrainN := 0.0, 0
	postRecoveryMax := 0.0
	recoveredAt := res.KillAtMS + res.KillBlackoutMS
	for i, x := range res.X {
		y := res.Y[i]
		switch {
		case x < res.AddAtMS:
			preMean += y
			preN++
		case x >= res.DrainAtMS && x < res.DrainAtMS+res.DrainBlackoutMS:
			duringDrainN++
			if y > duringDrainMax {
				duringDrainMax = y
			}
		case x >= recoveredAt && x < res.EndMS-2*(res.X[1]-res.X[0]):
			if y > postRecoveryMax {
				postRecoveryMax = y
			}
		}
	}
	if preN == 0 {
		t.Fatal("no timeline buckets before the first event")
	}
	preMean /= float64(preN)
	if duringDrainN > 0 && duringDrainMax <= 0 {
		t.Error("throughput hit zero for the entire drain window — foreground traffic starved")
	}
	if postRecoveryMax < preMean/2 {
		t.Errorf("no recovery after kill: post max %.3f MOPS vs pre mean %.3f", postRecoveryMax, preMean)
	}
}

// TestFig10PanelSeries checks the rendered panel: both systems present,
// MIND's timeline covering the whole eventful run.
func TestFig10PanelSeries(t *testing.T) {
	t.Parallel()
	fig, err := Fig10(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	var mindPts, gamPts int
	for _, s := range fig.Series {
		switch s.Label {
		case "MIND":
			mindPts = len(s.X)
		case "GAM":
			gamPts = len(s.X)
		}
	}
	if mindPts < fig10Buckets/2 || gamPts == 0 {
		t.Fatalf("degenerate panel: MIND %d points, GAM %d points", mindPts, gamPts)
	}
}
