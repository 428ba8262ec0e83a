package sim

// Resource models a work-conserving FIFO server with a fixed number of
// parallel service slots — the building block for every queueing point in
// the simulated rack: NIC serialization, switch pipeline occupancy, and
// per-blade invalidation handlers.
//
// A Resource does not schedule events itself; callers ask "if work arrives
// at time t and needs d of service, when does it start and finish?" and
// then schedule their own completion events. This keeps resources cheap
// and composable.
//
// The slots' next-free times are kept as a ring in ascending order from
// head. A reservation only ever reads the minimum (start = max(at, min))
// and replaces it with the new end, so only the multiset of next-free
// times is observable — which slot served a job never surfaces — and any
// exact multiset structure gives the same (start, end) as a linear scan
// for the earliest slot. The ring pops the head and inserts the end by
// shifting later ends up one cell from the tail: a booking that ends at
// or after every other slot (the common case) costs one compare, and one
// that ends earlier (ingress booked at a NIC-arrival or recirculation
// time) shifts only the slots that end after it.
type Resource struct {
	slots []Time // next-free time per service slot, ascending from head
	head  int

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
	s := r.slots
	i := r.head
	start = max(at, s[i])
	end = start.Add(d)
	// The head leaves; its cell is the ring's new tail. Walk back from
	// it over the slots that end after end, moving each up one cell.
	if r.head++; r.head == len(s) {
		r.head = 0
	}
	for n := len(s) - 1; n > 0; n-- {
		j := i - 1
		if j < 0 {
			j = len(s) - 1
		}
		if s[j] <= end {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = end

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
