// Package fastswap implements the non-transparent baseline the paper
// compares against (§7 "Compared systems"): FastSwap [12], a swap-based
// disaggregated memory system. Page faults swap pages in from remote
// memory over RDMA and evictions swap them out; there is no sharing and
// no coherence, so processes are confined to a single compute blade
// (§2.2 "Non-transparent designs") — Spawn rejects any blade other
// than 0.
package fastswap

import (
	"fmt"

	"mind/internal/computeblade"
	"mind/internal/core"
	"mind/internal/fabric"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// Config parameterizes the FastSwap baseline.
type Config struct {
	MemoryBlades int
	CachePages   int
	// PageFaultCost and PTEInstall mirror the kernel costs of the MIND
	// compute blade — both systems use efficient page-fault-driven remote
	// access (§7.1).
	PageFaultCost sim.Duration
	PTEInstall    sim.Duration
	Fabric        fabric.Config
}

// DefaultConfig returns the calibrated baseline.
func DefaultConfig(memoryBlades, cachePages int) Config {
	return Config{
		MemoryBlades:  memoryBlades,
		CachePages:    cachePages,
		PageFaultCost: 1800 * sim.Nanosecond,
		PTEInstall:    700 * sim.Nanosecond,
		Fabric:        fabric.DefaultConfig(),
	}
}

// Cluster is a single-compute-blade FastSwap deployment.
type Cluster struct {
	cfg Config
	eng *sim.Engine
	fab *fabric.Fabric
	col *stats.Collector

	// Stats handles, resolved once at construction: the Collector counts
	// through integer handles only.
	hAccesses   stats.Handle
	hLocalHits  stats.Handle
	hRemote     stats.Handle
	hEvictions  stats.Handle
	hWritebacks stats.Handle

	cache  *computeblade.Cache
	nextVA mem.VA

	// faults dedupes concurrent faults on one page across threads.
	faults map[mem.VA][]func()

	active int
}

// New creates a FastSwap cluster.
func New(cfg Config) *Cluster {
	c := &Cluster{
		cfg:    cfg,
		eng:    sim.NewEngine(),
		col:    stats.NewCollector(),
		cache:  computeblade.NewCache(cfg.CachePages),
		nextVA: 1 << 32,
		faults: make(map[mem.VA][]func()),
	}
	c.hAccesses = c.col.Handle(stats.CtrAccesses)
	c.hLocalHits = c.col.Handle(stats.CtrLocalHits)
	c.hRemote = c.col.Handle(stats.CtrRemoteAccesses)
	c.hEvictions = c.col.Handle(stats.CtrEvictions)
	c.hWritebacks = c.col.Handle(stats.CtrWritebacks)
	c.fab = fabric.New(c.eng, cfg.Fabric)
	c.fab.AddNode(0) // the single compute blade
	for m := 0; m < cfg.MemoryBlades; m++ {
		c.fab.AddNode(1000 + fabric.NodeID(m))
	}
	return c
}

// Collector returns run metrics.
func (c *Cluster) Collector() *stats.Collector { return c.col }

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Alloc reserves address space.
func (c *Cluster) Alloc(length uint64) (mem.VA, error) {
	base := mem.AlignUp(c.nextVA, mem.PageSize)
	c.nextVA = base + mem.VA(mem.NextPow2(length))
	return base, nil
}

func (c *Cluster) memBladeOf(page mem.VA) fabric.NodeID {
	return 1000 + fabric.NodeID(int(mem.PageIndex(page))%c.cfg.MemoryBlades)
}

type thread struct {
	c   *Cluster
	gen core.AccessGen
	ops uint64
}

// Spawn starts a thread. FastSwap does not share state across compute
// blades, so only blade 0 is valid (§7.1).
func (c *Cluster) Spawn(blade int, gen core.AccessGen) error {
	if blade != 0 {
		return fmt.Errorf("fastswap: no transparent scaling beyond a single compute blade (blade %d requested)", blade)
	}
	t := &thread{c: c, gen: gen}
	c.active++
	c.eng.Schedule(0, t.step)
	return nil
}

// Run drives the engine until all threads finish.
func (c *Cluster) Run() sim.Time {
	for c.active > 0 {
		if !c.eng.Step() {
			panic("fastswap: wedged")
		}
	}
	end := c.eng.Now()
	c.eng.Run()
	return end
}

func (t *thread) step() {
	c := t.c
	var local sim.Duration
	for i := 0; i < 4096 && local < 5*sim.Microsecond; i++ {
		va, write, ok := t.gen()
		if !ok {
			c.active--
			return
		}
		c.col.IncH(c.hAccesses, 1)
		page := mem.PageBase(va)
		if p, cached := c.cache.Lookup(va); cached {
			// Swap systems map resident pages read-write; writes just
			// dirty them.
			if write {
				p.Dirty = true
			}
			t.ops++
			c.col.IncH(c.hLocalHits, 1)
			local += computeblade.HitLatency + 30*sim.Nanosecond
			continue
		}
		// Swap-in fault.
		c.eng.Schedule(local, func() {
			c.fault(page, func() {
				t.ops++
				c.eng.Schedule(0, t.step)
			})
		})
		return
	}
	c.eng.Schedule(local, t.step)
}

// fault swaps a page in: fault cost, RDMA read via the switch, eviction
// (with async writeback) and PTE install.
func (c *Cluster) fault(page mem.VA, done func()) {
	if waiters, ok := c.faults[page]; ok {
		c.faults[page] = append(waiters, done)
		return
	}
	c.faults[page] = []func(){done}
	c.col.IncH(c.hRemote, 1)
	c.eng.Schedule(c.cfg.PageFaultCost, func() {
		memN := c.memBladeOf(page)
		c.fab.Unicast(0, memN, fabric.CtrlMsgBytes, func() {
			c.eng.Schedule(c.fab.MemDMA(), func() {
				c.fab.Unicast(memN, 0, fabric.PageBytes, func() {
					for c.cache.NeedsEviction() {
						v := c.cache.EvictLRU()
						c.col.IncH(c.hEvictions, 1)
						if v.Dirty {
							c.col.IncH(c.hWritebacks, 1)
							c.fab.Unicast(0, c.memBladeOf(v.VA), fabric.PageBytes, func() {})
						}
					}
					c.cache.Insert(page, true)
					c.eng.Schedule(c.cfg.PTEInstall, func() {
						waiters := c.faults[page]
						delete(c.faults, page)
						for _, w := range waiters {
							w()
						}
					})
				})
			})
		})
	})
}
