package switchasic

import (
	"fmt"
	"math/rand"
	"testing"

	"mind/internal/bitset"
)

// groupPorts returns the installed group's member ports, probed one port
// at a time, in ascending order.
func groupPorts(a *ASIC) []int {
	var out []int
	for p := 0; p < 64; p++ {
		if a.members>>p&1 == 1 {
			out = append(out, p)
		}
	}
	return out
}

// pruneMulticastMap is the reference for PruneMulticastBitmap: it walks
// the group's members in ascending order and keeps those in the sharer
// map, with the same replication accounting.
func pruneMulticastMap(a *ASIC, group int, sharers map[int]bool) ([]int, error) {
	if group < 0 || group != a.groupID {
		return nil, fmt.Errorf("switchasic: unknown multicast group %d", group)
	}
	a.multicasts++
	var out []int
	for _, p := range groupPorts(a) {
		if sharers[p] {
			out = append(out, p)
			a.deliveredCopies++
		} else {
			a.prunedCopies++
		}
	}
	return out, nil
}

// TestSlotStoreZeroAlloc pins the slot store's hot-path cost: an
// alloc/release cycle on a bounded store — and on a warmed unlimited
// store — must not allocate (the bitmap + free-hint cursor replaced the
// old free-list slice + used map).
func TestSlotStoreZeroAlloc(t *testing.T) {
	bounded := NewSlotStore(1024)
	if avg := testing.AllocsPerRun(1000, func() {
		id, err := bounded.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := bounded.Release(id); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("bounded alloc/release allocates %v/op, want 0", avg)
	}

	unlimited := NewSlotStore(0)
	var held []SlotID
	for i := 0; i < 256; i++ { // warm the growable bitmap
		id, _ := unlimited.Alloc()
		held = append(held, id)
	}
	for _, id := range held {
		_ = unlimited.Release(id)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		id, err := unlimited.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := unlimited.Release(id); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("unlimited alloc/release allocates %v/op, want 0", avg)
	}
}

// TestSlotStoreChurnAccounting drives random alloc/release churn against
// a mirror map and checks occupancy accounting and uniqueness of live
// slot IDs throughout.
func TestSlotStoreChurnAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSlotStore(130) // forces a partial last word
	live := map[SlotID]bool{}
	for i := 0; i < 10_000; i++ {
		if rng.Intn(2) == 0 {
			id, err := s.Alloc()
			if err != nil {
				if len(live) != 130 {
					t.Fatalf("ErrSlotsFull with %d/130 in use", len(live))
				}
				continue
			}
			if int(id) < 0 || int(id) >= 130 {
				t.Fatalf("out-of-range slot %d", id)
			}
			if live[id] {
				t.Fatalf("slot %d double-allocated", id)
			}
			live[id] = true
		} else if len(live) > 0 {
			var victim SlotID
			for id := range live {
				victim = id
				break
			}
			if err := s.Release(victim); err != nil {
				t.Fatalf("release %d: %v", victim, err)
			}
			delete(live, victim)
		}
		if s.InUse() != len(live) {
			t.Fatalf("InUse = %d, want %d", s.InUse(), len(live))
		}
	}
	if err := s.Release(SlotID(131)); err == nil {
		t.Error("release past capacity succeeded")
	}
}

// TestPruneMulticastBitmapEquivalence drives randomized group
// memberships and sharer sets through the map-keyed prune and the bitmap
// fast path, asserting identical port lists (content and order) and
// identical replication accounting.
func TestPruneMulticastBitmapEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := New(Config{})
		b := New(Config{})
		nPorts := 1 + rng.Intn(64) // up to a full word, a rack's widest group
		var members []int
		for p := 0; p < nPorts; p++ {
			if rng.Intn(3) > 0 {
				members = append(members, p)
			}
		}
		a.SetGroup(1, members)
		b.SetGroup(1, members)

		sharersMap := map[int]bool{}
		var sharersBits bitset.Set
		for p := 0; p < nPorts; p++ {
			if rng.Intn(3) == 0 {
				sharersMap[p] = true
				sharersBits.Add(p)
			}
		}
		// Sharers outside the group must be pruned by both paths.
		sharersMap[nPorts+5] = true
		sharersBits.Add(nPorts + 5)

		got, err := pruneMulticastMap(a, 1, sharersMap)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := b.PruneMulticastBitmap(nil, 1, &sharersBits)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(fast) {
			t.Fatalf("trial %d: map path %v, bitmap path %v", trial, got, fast)
		}
		for i := range got {
			if got[i] != fast[i] {
				t.Fatalf("trial %d: map path %v, bitmap path %v", trial, got, fast)
			}
		}
		r1, m1, p1, d1 := a.Accounting()
		r2, m2, p2, d2 := b.Accounting()
		if r1 != r2 || m1 != m2 || p1 != p2 || d1 != d2 {
			t.Fatalf("trial %d: accounting diverged: (%d %d %d %d) vs (%d %d %d %d)",
				trial, r1, m1, p1, d1, r2, m2, p2, d2)
		}
	}

	if _, err := New(Config{}).PruneMulticastBitmap(nil, 9, &bitset.Set{}); err == nil {
		t.Error("unknown group should error")
	}
}

// TestPruneMulticastBitmapZeroAlloc pins the fast path at zero
// allocations with a caller-owned scratch buffer.
func TestPruneMulticastBitmapZeroAlloc(t *testing.T) {
	a := New(Config{})
	members := make([]int, 64)
	var sharers bitset.Set
	for i := range members {
		members[i] = i
		if i%3 == 0 {
			sharers.Add(i)
		}
	}
	a.SetGroup(1, members)
	scratch := make([]int, 0, 64)
	if avg := testing.AllocsPerRun(1000, func() {
		out, err := a.PruneMulticastBitmap(scratch, 1, &sharers)
		if err != nil || len(out) == 0 {
			t.Fatal("prune failed")
		}
	}); avg != 0 {
		t.Errorf("bitmap prune allocates %v/op, want 0", avg)
	}
}
