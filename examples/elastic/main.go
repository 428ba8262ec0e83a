// elastic: the paper's headline property — transparent elasticity (§1),
// now on BOTH sides of the rack.
//
// Compute elasticity: a job starts on ONE compute blade; halfway
// through, six more threads join on three other blades with zero
// application changes: same process, same pointers, same shared data
// structures. The in-network MMU makes the new blades first-class
// participants immediately.
//
// Memory elasticity: while the scaled-out job is still running, a new
// memory blade hot-joins the rack and one of the original memory blades
// is live-drained — its resident pages migrate to the survivors in
// throttled batches, the TCAM gains outlier translation rules, and the
// directory state re-homes, all without stopping the workers. The
// drained blade ends the run empty and retired.
//
// Systems like FastSwap cannot do the compute step at all (§2.2), and
// no compute-side system can do the memory step: it needs the switch's
// global view of translations.
//
//	go run ./examples/elastic
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mind/internal/core"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

const (
	initial    = 2 // threads before scale-out
	scaled     = 8 // threads after
	bladeCount = 4
)

func main() {
	if err := run(os.Stdout, false); err != nil {
		log.Fatal(err)
	}
}

// run executes the example; tiny shrinks the job for smoke tests.
func run(out io.Writer, tiny bool) error {
	chunks, opsPer := 512, 400 // work items (one page each), accesses per chunk
	if tiny {
		chunks, opsPer = 128, 80
	}
	cfg := core.DefaultConfig(bladeCount, 2)
	cfg.MemoryBladeCapacity = 1 << 28
	cfg.CachePagesPerBlade = 512
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	proc := cluster.Exec("elastic-job")

	// Shared state: the input chunks and a results array all threads
	// write — one address space, visible from every blade.
	input, err := proc.Mmap(uint64(chunks)*mem.PageSize, mem.PermReadWrite)
	if err != nil {
		return err
	}
	results, err := proc.Mmap(uint64(chunks)*8, mem.PermReadWrite)
	if err != nil {
		return err
	}

	// Each worker claims a static slice of chunks (workers know their
	// index and the final worker count up front; the elasticity being
	// demonstrated is in the MEMORY system, not a work-stealing queue).
	worker := func(idx int) core.AccessGen {
		lo := chunks * idx / scaled
		hi := chunks * (idx + 1) / scaled
		chunk, op := lo, 0
		return func() (mem.VA, bool, bool) {
			if chunk >= hi {
				return 0, false, false
			}
			if op < opsPer {
				// Stream through the chunk's page.
				va := input.Base + mem.VA(chunk)*mem.PageSize + mem.VA((op*8)%mem.PageSize)
				op++
				return va, false, true
			}
			// Write the chunk's result to the shared results array.
			va := results.Base + mem.VA(chunk*8)
			chunk++
			op = 0
			return va, true, true
		}
	}

	// Load the dataset: one seed value per input chunk, written through
	// the shared-memory API from blade 0. These bytes are what the live
	// drain below must carry to the surviving blades intact.
	loader, err := proc.SpawnThread(0)
	if err != nil {
		return err
	}
	seed := func(cidx int) uint64 { return uint64(cidx)*2654435761 + 1 }
	for cidx := 0; cidx < chunks; cidx++ {
		if err := loader.Store(input.Base+mem.VA(cidx)*mem.PageSize, seed(cidx)); err != nil {
			return err
		}
	}

	// Phase 1: two threads on blade 0 only.
	var done int
	for i := 0; i < initial; i++ {
		th, err := proc.SpawnThread(0)
		if err != nil {
			return err
		}
		th.Start(worker(i), func() { done++ })
	}
	phase1 := cluster.Now()
	// Let phase 1 run for a while, then scale out.
	cluster.AdvanceTime(20 * sim.Millisecond)
	fmt.Fprintf(out, "phase 1: %d threads on 1 blade, t=%.2f ms\n",
		initial, cluster.Now().Sub(phase1).Seconds()*1e3)

	// Phase 2: six more threads join on blades 1-3. No migration, no
	// repartitioning, no new APIs — they just start working on the same
	// memory.
	scaleOutAt := cluster.Now()
	opsAtScaleOut := cluster.Collector().Counter(stats.CtrAccesses)
	for i := initial; i < scaled; i++ {
		th, err := proc.SpawnThread(1 + (i-initial)%(bladeCount-1))
		if err != nil {
			return err
		}
		th.Start(worker(i), func() { done++ })
	}

	// Phase 3: the MEMORY side scales too, while the job runs. A new
	// memory blade joins, and the blade hosting the input pages is
	// live-drained onto the survivors.
	victim, err := cluster.Controller().Allocator().Translate(input.Base)
	if err != nil {
		return err
	}
	added, err := cluster.AddMemBlade(0)
	if err != nil {
		return err
	}
	var drep core.DrainReport
	var derr error
	drained := false
	err = cluster.Pod().DrainMemBladeAt(0, victim, cluster.Now().Add(2*sim.Millisecond), func(r core.DrainReport, e error) {
		drep, derr, drained = r, e, true
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "phase 2: scaled to %d threads on %d blades; memory blade %d hot-joined, draining blade %d live\n",
		scaled, bladeCount, added, victim)

	end := cluster.RunThreads()
	col := cluster.Collector()

	before := float64(opsAtScaleOut) / scaleOutAt.Sub(0).Seconds() / 1e6
	after := float64(col.Counter(stats.CtrAccesses)-opsAtScaleOut) /
		end.Sub(scaleOutAt).Seconds() / 1e6
	fmt.Fprintf(out, "job done at t=%.2f ms; throughput before scale-out: %.2f MOPS, after: %.2f MOPS (%.1fx)\n",
		end.Sub(0).Seconds()*1e3, before, after, after/before)
	fmt.Fprintf(out, "%d/%d workers finished; %d accesses total, %d remote, %d invalidations\n",
		done, scaled,
		col.Counter(stats.CtrAccesses),
		col.Counter(stats.CtrRemoteAccesses),
		col.Counter(stats.CtrInvalidations))

	if !drained {
		return fmt.Errorf("drain of blade %d never completed", victim)
	}
	if derr != nil {
		return fmt.Errorf("drain of blade %d: %w", victim, derr)
	}
	fmt.Fprintf(out, "\nmemory elasticity: drained blade %d in %.2f ms — %d vmas re-homed, %d pages migrated in %d batches, %d requests briefly stalled\n",
		victim, drep.Blackout().Seconds()*1e3, drep.Allocations, drep.PagesMoved, drep.Batches,
		col.Counter(stats.CtrMigrationStalls))
	if n := cluster.MemBlade(int(victim)).MaterializedPages(); n != 0 {
		return fmt.Errorf("drained blade still holds %d pages", n)
	}
	if !cluster.Controller().Allocator().BladeRetired(victim) {
		return fmt.Errorf("drained blade not retired")
	}

	// Every input page's seed value must have survived the live
	// migration bit for bit, readable from blade 2 through the coherence
	// protocol (protection + translation + directory all exercised) —
	// and nothing may resolve to the drained blade anymore.
	checker, err := proc.SpawnThread(2)
	if err != nil {
		return err
	}
	for cidx := 0; cidx < chunks; cidx++ {
		va := input.Base + mem.VA(cidx)*mem.PageSize
		if home, err := cluster.Controller().Allocator().Translate(va); err != nil {
			return fmt.Errorf("translate chunk %d: %w", cidx, err)
		} else if home == ctrlplane.BladeID(victim) {
			return fmt.Errorf("chunk %d still routed to drained blade", cidx)
		}
		got, err := checker.Load(va)
		if err != nil {
			return fmt.Errorf("cross-blade read of chunk %d: %v", cidx, err)
		}
		if got != seed(cidx) {
			return fmt.Errorf("chunk %d lost in migration: %#x, want %#x", cidx, got, seed(cidx))
		}
	}
	for cidx := 0; cidx < chunks; cidx += 64 {
		if _, err := checker.Load(results.Base + mem.VA(cidx*8)); err != nil {
			return fmt.Errorf("cross-blade read of result %d: %v", cidx, err)
		}
	}
	// And writes still commit end to end on the post-drain rack.
	probe := results.Base
	if err := checker.Store(probe, 0xe1a571c); err != nil {
		return err
	}
	v, err := checker.Load(probe)
	if err != nil {
		return fmt.Errorf("post-drain probe read: %w", err)
	}
	if v != 0xe1a571c {
		return fmt.Errorf("post-drain store lost: %#x", v)
	}
	fmt.Fprintf(out, "cross-blade verification: dataset intact after live migration, none routed to blade %d\n", victim)
	return nil
}
