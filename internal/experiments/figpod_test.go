package experiments

import "testing"

// TestFigPodShape asserts the pod panel's qualitative claims: the
// working set starts on a borrowed blade, the promotion policy actually
// migrates it home, and doing so measurably reduces both the mean
// remote-access network latency and the job runtime versus the
// no-migration toggle.
func TestFigPodShape(t *testing.T) {
	t.Parallel()
	on, off, err := figPodRun(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Both toggles borrowed a blade and routed faults across racks.
	for name, r := range map[string]figPodResult{"on": on, "off": off} {
		if r.Borrows == 0 {
			t.Fatalf("%s: no blade borrowed", name)
		}
		if r.CrossMsgs == 0 {
			t.Fatalf("%s: no cross-rack messages", name)
		}
		if len(r.X) == 0 {
			t.Fatalf("%s: empty timeline", name)
		}
	}
	// The no-migration toggle must not promote.
	if off.PromotedVMAs != 0 || off.PromotedPages != 0 {
		t.Fatalf("no-migration run promoted: %+v", off)
	}
	// The policy run promotes the working vma (and its materialized
	// pages) home, then returns the emptied borrowed blade.
	if on.PromotedVMAs == 0 {
		t.Fatal("promotion policy never fired")
	}
	if on.PromotedPages == 0 {
		t.Fatal("promotion moved no pages (working set never materialized remotely)")
	}
	if on.Returns == 0 {
		t.Error("emptied borrowed blade was not returned to its owner")
	}
	// The acceptance claim: migration measurably reduces remote-access
	// latency and finishes the job sooner.
	if on.RemoteLatUS >= off.RemoteLatUS {
		t.Errorf("mean remote network latency with migration (%.2fus) not below without (%.2fus)",
			on.RemoteLatUS, off.RemoteLatUS)
	}
	if on.EndMS >= off.EndMS {
		t.Errorf("job with migration (%.2fms) not faster than without (%.2fms)", on.EndMS, off.EndMS)
	}
}
