package experiments

import (
	"testing"

	prun "mind/internal/runner"
)

// TestFigServePodShape checks the sharded-serving signature at Tiny
// scale: at constant offered load, adding racks moves the pod from
// saturation to headroom, so the steady tenant's p99 collapses between
// the smallest and largest pod; the oversized tenant spans racks at
// every point, and the merged per-rack counters conserve requests.
func TestFigServePodShape(t *testing.T) {
	s := Tiny
	s.cache = prun.NewCache()
	res, err := figServePodRun(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(figServePodRacks) {
		t.Fatalf("got %d points, want %d", len(res), len(figServePodRacks))
	}
	for i, r := range res {
		if r.Arrivals == 0 || r.Completed == 0 {
			t.Errorf("point %d: no traffic: %+v", i, r)
		}
		if r.Arrivals != r.Completed+r.Throttled+r.Dropped {
			t.Errorf("point %d: conservation violated: %+v", i, r)
		}
		if r.Spanned < 1 {
			t.Errorf("point %d: oversized tenant did not span racks: %+v", i, r)
		}
		if r.Throttled == 0 {
			t.Errorf("point %d: QoS buckets never engaged: %+v", i, r)
		}
	}
	first, last := res[0], res[len(res)-1]
	// Capacity scaling: the smallest pod queues (p99 well above the
	// largest pod's), and adding racks relieves it by at least 10x.
	if last.SteadyP99US*10 > first.SteadyP99US {
		t.Errorf("steady p99 did not fall with racks: %.1fus (%d racks) vs %.1fus (%d racks)",
			first.SteadyP99US, figServePodRacks[0], last.SteadyP99US, figServePodRacks[len(figServePodRacks)-1])
	}
	if last.WideP99US >= first.WideP99US {
		t.Errorf("spanning tenant p99 did not fall with racks: %.1fus vs %.1fus",
			first.WideP99US, last.WideP99US)
	}
}
