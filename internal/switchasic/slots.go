package switchasic

import (
	"errors"
	"math/bits"
)

// ErrSlotsFull is returned when the SRAM slot store has no free slot.
var ErrSlotsFull = errors.New("switchasic: directory SRAM slots exhausted")

// ErrBadSlot is returned for operations on unallocated slots.
var ErrBadSlot = errors.New("switchasic: slot not allocated")

// SlotID identifies one fixed-size SRAM register slot.
type SlotID int

// SlotStore models the fixed SRAM region the data plane reserves for
// cache-directory entries (§6.3): a fixed number of fixed-size slots.
// Occupancy is a bitmap with a free-hint cursor — allocation scans at
// most one wrap of the word array from the cursor (one popcount-class
// instruction per 64 slots), and alloc/release touch no heap. The
// control plane maps region base addresses to slots; the store itself
// only tracks occupancy and a peak watermark.
type SlotStore struct {
	capacity int
	// words is the occupancy bitmap. For bounded stores the tail bits of
	// the last word (beyond capacity) are pre-set so the scan can never
	// hand out an out-of-range slot. Unlimited stores (capacity <= 0,
	// the PSO+ simulation variant, §7.1) grow the bitmap on demand.
	words []uint64
	// hint is the next-free search cursor: allocation starts scanning at
	// its word, and a release rewinds it, so scans stay short under
	// churn.
	hint  int
	inUse int
	peak  int
}

// NewSlotStore creates a store with capacity slots; capacity <= 0 means
// unlimited (the PSO+ simulation variant, §7.1).
func NewSlotStore(capacity int) *SlotStore {
	s := &SlotStore{capacity: capacity}
	if capacity > 0 {
		s.words = make([]uint64, (capacity+63)/64)
		if tail := capacity & 63; tail != 0 {
			// Mask off the slots past capacity in the last word.
			s.words[len(s.words)-1] = ^uint64(0) << uint(tail)
		}
	}
	return s
}

// Capacity returns the total slot count (0 = unlimited).
func (s *SlotStore) Capacity() int { return s.capacity }

// InUse returns the number of allocated slots.
func (s *SlotStore) InUse() int { return s.inUse }

// Peak returns the maximum simultaneous occupancy observed.
func (s *SlotStore) Peak() int { return s.peak }

// Free returns the number of free slots; -1 when unlimited.
func (s *SlotStore) Free() int {
	if s.capacity <= 0 {
		return -1
	}
	return s.capacity - s.inUse
}

// take marks slot (wi, b) used and advances the accounting.
func (s *SlotStore) take(wi, b int) (SlotID, error) {
	s.words[wi] |= 1 << uint(b)
	s.inUse++
	if s.inUse > s.peak {
		s.peak = s.inUse
	}
	id := wi<<6 + b
	s.hint = id + 1
	return SlotID(id), nil
}

// Alloc claims a free slot.
func (s *SlotStore) Alloc() (SlotID, error) {
	if s.capacity > 0 {
		if s.inUse >= s.capacity {
			return 0, ErrSlotsFull
		}
		nw := len(s.words)
		wi := s.hint >> 6
		if wi >= nw {
			wi = 0
		}
		for i := 0; i < nw; i++ {
			if free := ^s.words[wi]; free != 0 {
				return s.take(wi, bits.TrailingZeros64(free))
			}
			wi++
			if wi == nw {
				wi = 0
			}
		}
		return 0, ErrSlotsFull
	}
	// Unlimited: grow the bitmap as needed.
	for wi := s.hint >> 6; ; wi++ {
		for wi >= len(s.words) {
			s.words = append(s.words, 0)
		}
		if free := ^s.words[wi]; free != 0 {
			return s.take(wi, bits.TrailingZeros64(free))
		}
	}
}

// Release returns a slot to the store.
func (s *SlotStore) Release(id SlotID) error {
	wi, b := int(id)>>6, int(id)&63
	if id < 0 || wi >= len(s.words) || s.words[wi]&(1<<uint(b)) == 0 {
		return ErrBadSlot
	}
	if s.capacity > 0 && int(id) >= s.capacity {
		return ErrBadSlot
	}
	s.words[wi] &^= 1 << uint(b)
	s.inUse--
	if int(id) < s.hint {
		s.hint = int(id)
	}
	return nil
}
