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

func TestSetWord(t *testing.T) {
	var s Set
	s.Add(130)
	s.SetWord(1<<0 | 1<<63)
	if got := s.AppendTo(nil); len(got) != 2 || got[0] != 0 || got[1] != 63 {
		t.Errorf("after SetWord: %v, want [0 63]", got)
	}
	var e Set
	e.SetWord(1 << 5)
	if !e.Has(5) || e.Count() != 1 {
		t.Errorf("SetWord on an empty set: %v", e.AppendTo(nil))
	}
	var zeroWord Set
	zeroWord.Add(70)
	zeroWord.Remove(70) // leaves an all-zero high word
	zeroWord.Add(5)
	if got := zeroWord.AppendTo(nil); zeroWord.Count() != 1 || len(got) != 1 || got[0] != 5 {
		t.Errorf("one member beside a zeroed high word: count %d, members %v", zeroWord.Count(), got)
	}
	zeroWord.Clear()
	if zeroWord.Count() != 0 {
		t.Error("Clear did not empty the set")
	}
}
