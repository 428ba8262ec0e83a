package bitset

import (
	"math/rand"
	"testing"
)

// TestSetAgainstMap drives randomized operations against a mirror map.
func TestSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Set
	m := map[int]bool{}
	for i := 0; i < 20_000; i++ {
		v := rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			s.Add(v)
			m[v] = true
		case 1:
			s.Remove(v)
			delete(m, v)
		default:
			if s.Has(v) != m[v] {
				t.Fatalf("Has(%d) = %v, want %v", v, s.Has(v), m[v])
			}
		}
		if s.Count() != len(m) {
			t.Fatalf("Count = %d, want %d", s.Count(), len(m))
		}
	}
	// AppendTo must be ascending and complete.
	got := s.AppendTo(nil)
	for i, v := range got {
		if !m[v] || (i > 0 && got[i-1] >= v) {
			t.Fatalf("AppendTo order/content wrong at %d: %v", i, got)
		}
	}
	if len(got) != len(m) {
		t.Fatalf("AppendTo returned %d members, want %d", len(got), len(m))
	}
}

func TestCopyUnionOnly(t *testing.T) {
	var a, b Set
	a.Add(1)
	a.Add(130)
	b.Add(64)
	var c Set
	c.CopyFrom(&a)
	c.UnionWith(&b)
	want := []int{1, 64, 130}
	got := c.AppendTo(nil)
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
	// CopyFrom must not alias.
	c.Remove(1)
	if !a.Has(1) {
		t.Error("CopyFrom aliased the source")
	}

	var e Set
	if !e.OnlyMember(5) {
		t.Error("empty set should satisfy OnlyMember")
	}
	var one Set
	one.Add(5)
	if !one.OnlyMember(5) || one.OnlyMember(6) {
		t.Error("OnlyMember on singleton")
	}
	one.Add(70)
	if one.OnlyMember(5) {
		t.Error("OnlyMember with foreign high-word member")
	}
	var zeroWord Set
	zeroWord.Add(70)
	zeroWord.Remove(70) // leaves an all-zero high word
	zeroWord.Add(5)
	if !zeroWord.OnlyMember(5) {
		t.Error("OnlyMember tripped by zeroed trailing word")
	}
	if zeroWord.Count() != 1 {
		t.Errorf("Count = %d with one member", zeroWord.Count())
	}
	zeroWord.Clear()
	if zeroWord.Count() != 0 {
		t.Error("Clear did not empty the set")
	}
}
