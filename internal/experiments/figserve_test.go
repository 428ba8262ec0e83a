package experiments

import (
	"testing"

	prun "mind/internal/runner"
)

// TestFigServeShape checks the open-loop signature at Tiny scale: the
// compliant tenant's p99 explodes past the knee without QoS, and QoS
// throttling keeps it bounded while the aggressor is shed.
func TestFigServeShape(t *testing.T) {
	s := Tiny
	s.cache = prun.NewCache()
	noQoS, withQoS, err := figServeRun(s)
	if err != nil {
		t.Fatal(err)
	}
	first, last := 0, len(noQoS)-1

	// Open-loop queueing collapse: p99 at the heaviest offered load is
	// far above p99 at the lightest.
	if noQoS[last].CompliantP99US < 10*noQoS[first].CompliantP99US {
		t.Errorf("no knee without QoS: compliant p99 %.1fus (light) vs %.1fus (heavy)",
			noQoS[first].CompliantP99US, noQoS[last].CompliantP99US)
	}
	// QoS isolation: with throttling, the compliant tenant's p99 at the
	// heaviest point stays well below the no-QoS collapse.
	if withQoS[last].CompliantP99US*10 > noQoS[last].CompliantP99US {
		t.Errorf("QoS did not protect the compliant tenant: %.1fus with vs %.1fus without",
			withQoS[last].CompliantP99US, noQoS[last].CompliantP99US)
	}
	// The aggressor above its contract is shed, and never below it.
	if withQoS[last].Throttled == 0 {
		t.Error("saturating aggressor was never throttled under QoS")
	}
	if noQoS[last].Throttled != 0 {
		t.Error("throttles recorded with QoS off")
	}
	for i, r := range noQoS {
		if r.Arrivals != r.Completed+r.Throttled+r.Dropped {
			t.Errorf("point %d (no QoS): conservation violated: %+v", i, r)
		}
	}
	for i, r := range withQoS {
		if r.Arrivals != r.Completed+r.Throttled+r.Dropped {
			t.Errorf("point %d (QoS): conservation violated: %+v", i, r)
		}
	}
}
