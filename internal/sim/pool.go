package sim

// Pool is a LIFO free list for the simulator's hot-path object pools
// (faults, invalidation jobs, fabric deliveries, directory requests and
// regions, rack and serving jobs). The engine's events do not use it:
// they chain their free list through their own queue link.
// Like the engine it is single-threaded. Get returns nil when empty so
// callers fall back to allocating; Put clears the vacated slot on every
// pop so the backing array never retains dead references. LIFO reuse is
// deterministic, which the bit-identity contract relies on.
type Pool[T any] struct{ free []*T }

// Get pops the most recently returned object, or nil if the pool is
// empty.
func (p *Pool[T]) Get() *T {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	x := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return x
}

// Put returns an object to the pool.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

// Len reports how many objects the pool currently holds.
func (p *Pool[T]) Len() int { return len(p.free) }
