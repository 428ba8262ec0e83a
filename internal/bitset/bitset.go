// Package bitset provides a small growable bitmap over non-negative
// integers, used for the per-access hot-path sets of the simulator:
// GAM sharer sets, multicast group membership and the coherence
// directory's invalidation targets, and fabric dead-node state.
// Compared to map[int]bool it is allocation-free in steady state,
// O(words) to walk, and its iteration order is always ascending — which
// is exactly the determinism contract the simulator needs (no map-order
// dependence may reach the event queue).
package bitset

import "math/bits"

// Set is a growable bitmap. The zero value is an empty set ready for
// use. Methods are not safe for concurrent use (the simulator is
// single-threaded).
type Set struct {
	words []uint64
}

// Add inserts i (growing the backing array as needed).
func (s *Set) Add(i int) {
	w := i >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << uint(i&63)
}

// Remove deletes i; absent members are a no-op.
func (s *Set) Remove(i int) {
	w := i >> 6
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(i&63)
	}
}

// Has reports membership.
func (s *Set) Has(i int) bool {
	w := i >> 6
	return w < len(s.words) && s.words[w]&(1<<uint(i&63)) != 0
}

// Clear empties the set, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of members.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// SetWord makes s exactly the members 0..63 whose bits are set in w.
func (s *Set) SetWord(w uint64) {
	if cap(s.words) == 0 {
		s.words = make([]uint64, 1)
	}
	s.words = s.words[:1]
	s.words[0] = w
}

// AppendTo appends the members in ascending order to dst and returns
// the extended slice (pass dst[:0] to reuse scratch space).
func (s *Set) AppendTo(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Words exposes the backing words (read-only; for word-parallel
// intersection in the switch ASIC's egress pruning).
func (s *Set) Words() []uint64 { return s.words }
