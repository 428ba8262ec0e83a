package ctrlplane

import (
	"fmt"
	"sort"

	"mind/internal/sim"
)

// Multi-tenant serving policy (Maruf & Chowdhury name multi-tenant QoS
// and memory overcommit as the open problems for disaggregated racks):
// the control plane maps tenants onto compute blades, gates admission
// of their memory footprints under an overcommit factor, and rate-
// limits each tenant's request stream with a token bucket so one
// aggressor cannot collapse its neighbours' tails.

// TenantSpec describes one serving tenant as the control plane sees
// it: a reserved share of memory and a contracted request rate.
type TenantSpec struct {
	// Name identifies the tenant in stats and figures.
	Name string
	// Footprint is the tenant's allocated bytes (its reservation).
	Footprint uint64
	// Active is the expected hot subset of the footprint, in bytes —
	// what the tenant actually touches at steady state. Overcommit
	// admits on ΣActive, not ΣFootprint.
	Active uint64
	// RatePerSec is the contracted request rate the QoS policy
	// enforces; arrivals beyond it are throttled when QoS is on.
	RatePerSec float64
	// Burst is the token-bucket depth in requests (how far a tenant
	// may briefly exceed its contracted rate). Zero means a depth of
	// one second's worth of tokens.
	Burst float64
}

// RackShare is one rack's slice of a pod-wide tenant placement: the
// compute blade serving the share and the fraction of the tenant's
// contracted rate routed there.
type RackShare struct {
	Rack  int
	Blade int
	// Share is the fraction of the tenant's offered load this rack
	// serves (shares sum to 1 per tenant).
	Share float64
	// Active and Footprint are the bytes of the tenant's hot set and
	// reservation charged against this rack's gates.
	Active    uint64
	Footprint uint64
}

// PodPlacement is the control plane's pod-wide decision for one
// tenant: one share per rack it lands on. A tenant that fits wholly
// within one rack gets a single share; one that doesn't is split
// across racks ("spans").
type PodPlacement struct {
	Spec   TenantSpec
	Shares []RackShare
}

// Spans reports whether the tenant is split across racks.
func (p PodPlacement) Spans() bool { return len(p.Shares) > 1 }

// Bucket returns the QoS token bucket for share i: the tenant's
// contracted rate and burst depth split proportional to the share, so
// the pod-wide admitted rate still sums to the contract regardless of
// how placement scattered the tenant.
func (p PodPlacement) Bucket(i int) *TokenBucket {
	sh := p.Shares[i]
	return NewTokenBucket(p.Spec.RatePerSec*sh.Share, p.Spec.Burst*sh.Share)
}

// PlaceTenantsPod maps tenants onto a pod of racks×bladesPerRack
// compute blades (racks = 1 places onto one rack's blades). Each rack
// admits under twin overcommit gates:
//
//	Σ Active    <= capacityPerRack            (the hot sets must fit)
//	Σ Footprint <= capacityPerRack*overcommit (reservations may oversubscribe)
//
// A tenant goes wholly to the least-loaded rack (by placed Active
// bytes, ties by rack index) that can admit it; a tenant too big for
// any single rack's remaining headroom is split greedily across racks
// in least-loaded order, its Footprint charged pro-rata with the Active
// bytes placed. Within a rack the share lands on the least-loaded blade
// (by placed Active bytes, ties by blade index). Everything is
// deterministic: tenants are considered in the given order, ties break
// by lowest index. A tenant the whole pod cannot admit is rejected with
// an error naming it, and placement stops — the caller decides whether
// to shed it or re-plan.
func PlaceTenantsPod(tenants []TenantSpec, racks, bladesPerRack int, capacityPerRack uint64, overcommit float64) ([]PodPlacement, error) {
	if racks < 1 {
		return nil, fmt.Errorf("ctrlplane: no racks to place on")
	}
	if bladesPerRack < 1 {
		return nil, fmt.Errorf("ctrlplane: no compute blades to place on")
	}
	if overcommit < 1 {
		overcommit = 1
	}
	limit := uint64(float64(capacityPerRack) * overcommit)
	sumActive := make([]uint64, racks)
	sumFootprint := make([]uint64, racks)
	load := make([][]uint64, racks)
	for r := range load {
		load[r] = make([]uint64, bladesPerRack)
	}
	// bestBlade picks the least-loaded blade of rack r (lowest index on
	// ties) and charges it with the share's active bytes.
	bestBlade := func(r int, active uint64) int {
		best := 0
		for b := 1; b < bladesPerRack; b++ {
			if load[r][b] < load[r][best] {
				best = b
			}
		}
		load[r][best] += active
		return best
	}
	out := make([]PodPlacement, 0, len(tenants))
	for _, t := range tenants {
		// Whole placement first: least-loaded rack passing both gates.
		whole := -1
		for r := 0; r < racks; r++ {
			if sumActive[r]+t.Active > capacityPerRack || sumFootprint[r]+t.Footprint > limit {
				continue
			}
			if whole < 0 || sumActive[r] < sumActive[whole] {
				whole = r
			}
		}
		if whole >= 0 {
			sumActive[whole] += t.Active
			sumFootprint[whole] += t.Footprint
			out = append(out, PodPlacement{Spec: t, Shares: []RackShare{{
				Rack:      whole,
				Blade:     bestBlade(whole, t.Active),
				Share:     1,
				Active:    t.Active,
				Footprint: t.Footprint,
			}}})
			continue
		}
		// Split: walk racks in ascending (placed Active, index) order,
		// carving the largest admissible chunk from each.
		order := make([]int, racks)
		for r := range order {
			order[r] = r
		}
		sort.SliceStable(order, func(i, j int) bool { return sumActive[order[i]] < sumActive[order[j]] })
		p := PodPlacement{Spec: t}
		remActive, remFootprint := t.Active, t.Footprint
		for _, r := range order {
			if remActive == 0 {
				break
			}
			chunk := remActive
			if head := capacityPerRack - min64(sumActive[r], capacityPerRack); chunk > head {
				chunk = head
			}
			// Footprint is charged pro-rata with the active bytes placed;
			// if the footprint gate binds tighter, shrink the chunk so the
			// pro-rata charge fits.
			footHead := limit - min64(sumFootprint[r], limit)
			foot := proRata(t.Footprint, chunk, t.Active)
			if foot > footHead {
				chunk = proRata(t.Active, footHead, t.Footprint)
				foot = proRata(t.Footprint, chunk, t.Active)
			}
			if chunk == 0 {
				continue
			}
			if chunk >= remActive {
				// Last chunk takes the remainders so totals conserve.
				chunk, foot = remActive, remFootprint
			}
			if foot > remFootprint {
				foot = remFootprint
			}
			sumActive[r] += chunk
			sumFootprint[r] += foot
			remActive -= chunk
			remFootprint -= foot
			p.Shares = append(p.Shares, RackShare{
				Rack:      r,
				Blade:     bestBlade(r, chunk),
				Share:     float64(chunk) / float64(t.Active),
				Active:    chunk,
				Footprint: foot,
			})
		}
		if remActive > 0 || len(p.Shares) == 0 {
			return out, fmt.Errorf("ctrlplane: tenant %s rejected: pod cannot admit %d active bytes (%d unplaced)",
				t.Name, t.Active, remActive)
		}
		out = append(out, p)
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// proRata returns total×part/whole without uint64 overflow (the
// operands are byte counts that can individually approach 2^40+).
func proRata(total, part, whole uint64) uint64 {
	if whole == 0 {
		return 0
	}
	return uint64(float64(total) * (float64(part) / float64(whole)))
}

// TokenBucket rate-limits one tenant's admissions in virtual time.
// Refill is lazy — tokens accrue as a pure function of the elapsed
// virtual time since the last take, so the bucket adds no events to
// the engine and is deterministic by construction.
type TokenBucket struct {
	rate  float64  // tokens per second
	depth float64  // max tokens
	level float64  // current tokens
	last  sim.Time // virtual time of last refill
}

// NewTokenBucket builds a bucket at ratePerSec with the given depth
// (depth <= 0 defaults to one second's worth). The bucket starts full.
func NewTokenBucket(ratePerSec, depth float64) *TokenBucket {
	if ratePerSec <= 0 {
		ratePerSec = 1
	}
	if depth <= 0 {
		depth = ratePerSec
	}
	return &TokenBucket{rate: ratePerSec, depth: depth, level: depth}
}

// Take attempts to admit one request at virtual time now. It returns
// false — throttle — when the bucket is empty.
func (b *TokenBucket) Take(now sim.Time) bool {
	if now > b.last {
		b.level += b.rate * float64(now-b.last) / float64(sim.Second)
		if b.level > b.depth {
			b.level = b.depth
		}
		b.last = now
	}
	if b.level >= 1 {
		b.level--
		return true
	}
	return false
}
