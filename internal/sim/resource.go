package sim

// Resource models a work-conserving FIFO server with a fixed number of
// parallel service slots — the building block for every queueing point in
// the simulated rack: NIC serialization, switch pipeline occupancy, and
// per-blade invalidation handlers.
//
// A Resource does not schedule events itself; callers ask "if work arrives
// at time t and needs d of service, when does it start and finish?" and
// then schedule their own completion events. This keeps resources cheap
// (O(log k) per reservation for k slots) and composable.
type Resource struct {
	slots []Time // next-free time per service slot, min-heap by value

	// Accounting.
	busy    Duration // total service time reserved
	waits   Duration // total queueing delay imposed
	served  uint64
	maxWait Duration
}

// NewResource returns a resource with the given number of parallel service
// slots (for example 1 for a serial handler, or the port count for a
// switch pipeline).
func NewResource(slots int) *Resource {
	if slots < 1 {
		panic("sim: Resource needs at least one slot")
	}
	return &Resource{slots: make([]Time, slots)}
}

// Reserve books d of service starting no earlier than at, returning the
// actual start and end times. The caller is responsible for scheduling any
// completion event at end.
func (r *Resource) Reserve(at Time, d Duration) (start, end Time) {
	// slots is a min-heap by next-free time, so the earliest-free slot
	// is the root: replace it with the new end and sift down (~log k
	// compares vs the k-wide scan this replaced — the switch pipelines
	// run 32 slots and Reserve is the hot path). Only the multiset of
	// slot values is observable (start = max(at, min); which slot served
	// a job never surfaces), so heap order is output-identical to the
	// linear min scan.
	start = at
	if r.slots[0] > start {
		start = r.slots[0]
	}
	end = start.Add(d)
	r.slots[0] = end
	n := len(r.slots)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if rc := c + 1; rc < n && r.slots[rc] < r.slots[c] {
			c = rc
		}
		if r.slots[i] <= r.slots[c] {
			break
		}
		r.slots[i], r.slots[c] = r.slots[c], r.slots[i]
		i = c
	}

	wait := start.Sub(at)
	r.waits += wait
	if wait > r.maxWait {
		r.maxWait = wait
	}
	r.busy += d
	r.served++
	return start, end
}

// Stats returns cumulative accounting: jobs served, total busy time, total
// queueing delay imposed, and the maximum single queueing delay.
func (r *Resource) Stats() (served uint64, busy, waited, maxWait Duration) {
	return r.served, r.busy, r.waits, r.maxWait
}
