package switchasic

import (
	"errors"
	"testing"
)

func TestSlotStoreAllocRelease(t *testing.T) {
	s := NewSlotStore(3)
	var ids []SlotID
	for i := 0; i < 3; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := s.Alloc(); !errors.Is(err, ErrSlotsFull) {
		t.Errorf("want ErrSlotsFull, got %v", err)
	}
	if s.InUse() != 3 || s.Free() != 0 || s.Peak() != 3 {
		t.Errorf("in-use=%d free=%d peak=%d", s.InUse(), s.Free(), s.Peak())
	}
	if err := s.Release(ids[1]); err != nil {
		t.Fatal(err)
	}
	if s.Free() != 1 {
		t.Errorf("free = %d", s.Free())
	}
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[1] {
		t.Errorf("freed slot should be reused, got %d want %d", id, ids[1])
	}
	if err := s.Release(999); !errors.Is(err, ErrBadSlot) {
		t.Errorf("release of bad slot: %v", err)
	}
}

func TestSlotStoreDoubleReleaseFails(t *testing.T) {
	s := NewSlotStore(2)
	id, _ := s.Alloc()
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(id); !errors.Is(err, ErrBadSlot) {
		t.Errorf("double release: %v", err)
	}
}

func TestSlotStoreUnlimited(t *testing.T) {
	s := NewSlotStore(0)
	seen := map[SlotID]bool{}
	for i := 0; i < 1000; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("slot %d handed out twice", id)
		}
		seen[id] = true
	}
	if s.Free() != -1 {
		t.Errorf("unlimited Free = %d", s.Free())
	}
	if s.Utilization() != 0 {
		t.Errorf("unlimited utilization = %v", s.Utilization())
	}
}

func TestSlotStoreUtilization(t *testing.T) {
	s := NewSlotStore(4)
	_, _ = s.Alloc()
	_, _ = s.Alloc()
	if got := s.Utilization(); got != 0.5 {
		t.Errorf("utilization = %v", got)
	}
}

func TestASICRuleAccounting(t *testing.T) {
	a := New(Config{SlotCapacity: 5})
	must(t, a.Translation.Insert(Entry{Base: 0, Size: 1 << 30, Value: 0}))
	must(t, a.Protection.Insert(Entry{PDID: 1, Base: 0, Size: 1 << 20, Value: 2}))
	a.InstallSTT(6)
	if a.Rules() != 8 {
		t.Errorf("rules = %d, want 8", a.Rules())
	}
}

func TestASICMulticastPruning(t *testing.T) {
	a := New(DefaultConfig())
	a.SetGroup(1, []int{0, 1, 2, 3, 4, 5, 6, 7})
	sharers := map[int]bool{1: true, 4: true, 6: true}
	got, err := a.PruneMulticastInto(nil, 1, sharers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("targets = %v", got)
	}
	for _, p := range got {
		if !sharers[p] {
			t.Errorf("non-sharer %d received copy", p)
		}
	}
	_, mc, pruned, delivered := a.Accounting()
	if mc != 1 || pruned != 5 || delivered != 3 {
		t.Errorf("accounting: mc=%d pruned=%d delivered=%d", mc, pruned, delivered)
	}
}

func TestASICMulticastUnknownGroup(t *testing.T) {
	a := New(DefaultConfig())
	if _, err := a.PruneMulticastInto(nil, 9, nil); err == nil {
		t.Error("unknown group should error")
	}
}

func TestASICGroupCopied(t *testing.T) {
	a := New(DefaultConfig())
	ports := []int{1, 2}
	a.SetGroup(1, ports)
	ports[0] = 99
	if a.Group(1)[0] != 1 {
		t.Error("SetGroup must copy membership")
	}
}

func TestASICCloneState(t *testing.T) {
	a := New(DefaultConfig())
	must(t, a.Translation.Insert(Entry{Base: 0, Size: 1 << 30, Value: 1}))
	must(t, a.Translation.Insert(Entry{Base: 1 << 30, Size: 1 << 30, Value: 2}))
	must(t, a.Protection.Insert(Entry{PDID: 7, Base: 0x1000, Size: 0x1000, Value: 3}))
	a.InstallSTT(9)
	a.SetGroup(1, []int{0, 1, 2})

	b := a.CloneState()
	if b.Translation.Len() != 2 || b.Protection.Len() != 1 || b.STTEntries() != 9 {
		t.Fatalf("clone missing state: trans=%d prot=%d stt=%d",
			b.Translation.Len(), b.Protection.Len(), b.STTEntries())
	}
	if v, err := b.Translation.Lookup(0, 1<<30+5); err != nil || v != 2 {
		t.Errorf("clone translation lookup = %d, %v", v, err)
	}
	if v, err := b.Protection.Lookup(7, 0x1800); err != nil || v != 3 {
		t.Errorf("clone protection lookup = %d, %v", v, err)
	}
	if len(b.Group(1)) != 3 {
		t.Error("clone group missing")
	}
	// Clone must be independent.
	must(t, b.Translation.Delete(WildcardPDID, 0, 1<<30))
	if a.Translation.Len() != 2 {
		t.Error("clone mutation leaked into original")
	}
}

func TestASICRecirculationAccounting(t *testing.T) {
	a := New(DefaultConfig())
	a.Recirculated()
	a.Recirculated()
	r, _, _, _ := a.Accounting()
	if r != 2 {
		t.Errorf("recircs = %d", r)
	}
}

func TestASICGroupMembershipIncremental(t *testing.T) {
	a := New(Config{})
	// Out-of-order installation must yield sorted, deterministic
	// membership regardless of the update sequence.
	a.SetGroup(1, []int{3, 0, 2})
	a.AddGroupMember(1, 1)
	a.AddGroupMember(1, 1) // duplicate add is a no-op
	got := a.Group(1)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("membership %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("membership %v, want %v", got, want)
		}
	}

	// Group() hands out a copy: holding it across a membership update
	// must not alias the live table.
	held := a.Group(1)
	a.AddGroupMember(1, 7)
	if len(held) != 4 {
		t.Fatalf("held membership mutated by later update: %v", held)
	}

	// Pruned multicast replicates to current members only.
	ports, err := a.PruneMulticastInto(nil, 1, map[int]bool{0: true, 3: true, 9: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 2 || ports[0] != 0 || ports[1] != 3 {
		t.Fatalf("pruned delivery %v, want [0 3]", ports)
	}
}

func TestASICAddGroupMemberCreatesGroup(t *testing.T) {
	a := New(Config{})
	a.AddGroupMember(7, 5)
	a.AddGroupMember(7, 2)
	got := a.Group(7)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("membership %v, want [2 5]", got)
	}
}
