package core

// Hot-page promotion (INDIGO-style): every promotion epoch the pod
// scans each rack's borrowed blades; a blade whose remote-fetch heat
// crossed the policy threshold gets its vmas re-homed to local memory
// (Rack.rehome, the mechanism drains use; the page copy crosses the
// interconnect). Borrowed blades that end up empty are returned to
// their owning rack.

import (
	"mind/internal/ctrlplane"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
)

// schedulePromotionTick arms this rack's promotion-policy epoch loop on
// its own engine. Every rack scans at the same virtual instants (as the
// old pod-wide tick did), but each scan only reads and mutates
// rack-local state — heat counters, plans, freezes — so ticks are safe
// inside concurrent windows. Blade returns, which transfer allocator
// state across racks, are only flagged here and executed by the next
// window barrier (parexec.go).
func (c *Rack) schedulePromotionTick(epoch sim.Duration) {
	c.promoEpoch = epoch
	c.promoTick = c.eng.ScheduleTimer(epoch, promoTickFired, c)
}

// promoTickFired is the pre-bound promotion tick: it runs one epoch and
// rearms the same event object, so the periodic loop is allocation-free.
func promoTickFired(a any) {
	c := a.(*Rack)
	c.runPromotionEpoch()
	c.promoTick = c.eng.Rearm(c.promoTick, c.promoEpoch, promoTickFired, c)
}

// runPromotionEpoch executes one policy tick for the rack: plan
// promotions from the epoch's heat counters, start executing them (one
// freeze→copy→rewrite chain at a time), and reset the heat for the next
// epoch.
func (c *Rack) runPromotionEpoch() {
	if c.borrowed == 0 {
		return
	}
	if !c.promoting {
		alloc := c.ctl.Allocator()
		plan := alloc.PlanPromotions(c.remoteBlade, func(id ctrlplane.BladeID) uint64 {
			return c.mem[int(id)].heat
		}, ctrlplane.PromotionPolicy{
			Threshold: c.pod.promo.Threshold,
			MaxVMAs:   c.pod.promo.MaxVMAsPerEpoch,
		})
		if len(plan) > 0 {
			c.promoting = true
			c.runPromotions(plan, 0)
		} else {
			c.wantReturns = true
		}
	}
	for i := range c.mem {
		c.mem[i].heat = 0
	}
}

// runPromotions executes the plan sequentially; each step is itself an
// asynchronous event chain.
func (c *Rack) runPromotions(plan []ctrlplane.Promotion, i int) {
	if i >= len(plan) {
		c.promoting = false
		c.wantReturns = true
		return
	}
	c.promoteVMA(plan[i], func() { c.runPromotions(plan, i+1) })
}

// promoteVMA re-homes one remote-homed vma on its planned local blade.
// Whatever goes wrong — the vma was unmapped or replaced since planning,
// the target departed, the rewrite failed — the promotion is abandoned
// for this epoch.
func (c *Rack) promoteVMA(p ctrlplane.Promotion, done func()) {
	if reserved, err := c.ctl.Allocator().Reserved(p.Base); err != nil || reserved != p.Reserved {
		done()
		return
	}
	planned := func(ctrlplane.BladeID, mem.VA) (ctrlplane.BladeID, error) { return p.To, nil }
	var st moveStats
	c.rehome(p.Base, p.From, planned, true, &st, func(err error) {
		if err == nil {
			c.col.IncH(c.hPromotedVMAs, 1)
			c.col.IncH(c.hPromotedPages, uint64(st.pages))
		}
		done()
	})
}

// returnIdleBorrowedBlades hands borrowed blades that hold no
// allocations back to their owners. It mutates two racks' allocators,
// so in a multi-rack pod it runs only from window barriers (when
// c.wantReturns was flagged by a promotion epoch).
func (c *Rack) returnIdleBorrowedBlades() {
	if c.borrowed == 0 {
		return
	}
	alloc := c.ctl.Allocator()
	for id := range c.mem {
		bid := ctrlplane.BladeID(id)
		if !c.remoteBlade(bid) || alloc.BladeRetired(bid) {
			continue
		}
		if used, err := alloc.BladeAllocatedBytes(bid); err != nil || used != 0 {
			continue
		}
		c.pod.returnBlade(c, bid)
	}
}

// bladeTransfer models one blade-to-blade batch transfer with guaranteed
// completion (see transfer). When both endpoints are rack-local it is
// exactly the classic one-switch path. When either side is borrowed the
// transfer becomes a three-leg protocol so that every hop runs on the
// shard that owns its state: a control request from the coordinating
// rack to the source blade's owner, the batch itself between the two
// owning switches, and a completion ack back to the coordinator. Node
// liveness is checked by the owning shard when each leg arrives, and
// the outcome — success or failure — always travels back as an ack, so
// done fires in the coordinator's own event context.
func (c *Rack) bladeTransfer(from, to ctrlplane.BladeID, bytes int, done func(delivered bool)) {
	fromOwner := c.pod.racks[c.mem[int(from)].owner]
	toOwner := c.pod.racks[c.mem[int(to)].owner]
	fromNode, toNode := c.mem[int(from)].node, c.mem[int(to)].node
	if fromOwner == c && toOwner == c {
		c.transfer(fromNode, toNode, bytes, done)
		return
	}
	// finish routes the outcome to the coordinator's shard. Already
	// there: a short local completion delay keeps the callback
	// asynchronous. Elsewhere: a control ack crosses the interconnect.
	finish := func(at *Rack, ok bool) {
		if at == c {
			c.eng.Schedule(c.fab.OneWayBase(fabric.CtrlMsgBytes), func() { done(ok) })
			return
		}
		at.col.IncH(at.hCrossMsgs, 1)
		at.fab.TraverseEgressArg(func(any) {
			c.pod.ic.Send(at.idx, c.idx, fabric.CtrlMsgBytes, func(any) {
				c.fab.TraverseIngressArg(func(any) { done(ok) }, nil)
			}, nil)
		}, nil)
	}
	// atDst runs on the destination owner's shard: deliver the batch
	// into the target blade, then ack the coordinator.
	atDst := func() {
		if toOwner.fab.NodeDead(toNode) {
			finish(toOwner, false)
			return
		}
		toOwner.fab.SendFromSwitch(toNode, bytes, func() { finish(toOwner, true) })
	}
	// atSrc runs on the source owner's shard: pull the batch off the
	// source blade and route it toward the destination switch.
	atSrc := func() {
		if fromOwner.fab.NodeDead(fromNode) {
			finish(fromOwner, false)
			return
		}
		fromOwner.fab.SendToSwitch(fromNode, bytes, func() {
			if fromOwner == toOwner {
				atDst()
				return
			}
			fromOwner.col.IncH(fromOwner.hCrossMsgs, 1)
			fromOwner.fab.TraverseEgressArg(func(any) {
				c.pod.ic.Send(fromOwner.idx, toOwner.idx, bytes, func(any) {
					toOwner.fab.TraverseIngressArg(func(any) { atDst() }, nil)
				}, nil)
			}, nil)
		})
	}
	if fromOwner == c {
		atSrc()
		return
	}
	// Request leg: ask the source blade's owner to start the pull.
	c.col.IncH(c.hCrossMsgs, 1)
	c.fab.TraverseEgressArg(func(any) {
		c.pod.ic.Send(c.idx, fromOwner.idx, fabric.CtrlMsgBytes, func(any) {
			fromOwner.fab.TraverseIngressArg(func(any) { atSrc() }, nil)
		}, nil)
	}, nil)
}
