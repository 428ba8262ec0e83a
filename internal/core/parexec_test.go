package core

import (
	"reflect"
	"strings"
	"testing"

	"mind/internal/mem"
	"mind/internal/sim"
)

// TestSparseWindowStats pins the executor's work accounting. Idling a
// pod whose only traffic is the 500 µs promotion epoch ticks leaves
// almost every 1 µs grid window empty: the sparse run must skip most of
// them and elide every quiet boundary's flush, the dense run must skip
// none, and the two must agree on the total grid (executed + skipped)
// — the same virtual span, just fewer barriers.
func TestSparseWindowStats(t *testing.T) {
	mk := func(dense bool) *Pod {
		pod, err := NewPod(PodConfig{
			Racks:        []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024)},
			DenseWindows: dense,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pod
	}
	sparse := mk(false)
	sparse.AdvanceTime(2 * sim.Millisecond)
	sx, ss, sf := sparse.WindowStats()
	if ss == 0 {
		t.Error("sparse idle run skipped no windows")
	}
	if sf == 0 {
		t.Error("sparse idle run elided no flushes")
	}
	dense := mk(true)
	dense.AdvanceTime(2 * sim.Millisecond)
	dx, ds, _ := dense.WindowStats()
	if ds != 0 {
		t.Errorf("dense run skipped %d windows, want 0", ds)
	}
	if sx+ss != dx {
		t.Errorf("sparse grid %d executed + %d skipped != dense %d executed", sx, ss, dx)
	}
	if sx >= dx {
		t.Errorf("sparse executed %d windows, want fewer than dense's %d", sx, dx)
	}
}

// TestQuietRacksAreParked pins the per-rack next-event cache: a window
// enters only the racks with an event below its end and parks the rest.
// Racks 0-1 of a 4-rack pod carry threads and a cross-rack lease (rack 0
// borrows from rack 1); racks 2-3 carry no traffic, and a drain lands
// on rack 3 mid-run, woken by barrier work alone. Every window accounts
// for every rack once, the quiet racks are parked in most windows, rack
// 3 is entered in the window holding the drain's instant, and the
// dispatch is bit-identical to entering every rack (dense) and to two
// workers.
func TestQuietRacksAreParked(t *testing.T) {
	type result struct {
		end             sim.Time
		hashes          []uint64
		windows         uint64
		entered, parked []uint64
		drainEntered    bool
	}
	run := func(workers int, dense bool) result {
		pod, err := NewPod(PodConfig{
			Racks: []Config{
				podRackConfig(2, 1, 1024), podRackConfig(2, 3, 1024),
				podRackConfig(2, 2, 1024), podRackConfig(2, 2, 1024),
			},
			Workers:      workers,
			DenseWindows: dense,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pod.Racks(); i++ {
			pod.Rack(i).Engine().EnableDispatchHash()
		}
		lengths := [][]uint64{{900, 400}, {600}}
		for ri := 0; ri < 2; ri++ {
			p := pod.Rack(ri).Exec("w")
			var vma mem.VMA
			for _, pgs := range lengths[ri] {
				if vma, err = p.Mmap(pgs*mem.PageSize, mem.PermReadWrite); err != nil {
					t.Fatal(err)
				}
			}
			pages := lengths[ri][len(lengths[ri])-1]
			for b := 0; b < 2; b++ {
				th, err := p.SpawnThread(b)
				if err != nil {
					t.Fatal(err)
				}
				rng := sim.NewRNG(uint64(11+ri), "quiet-racks")
				n := 0
				th.Start(func() (mem.VA, bool, bool) {
					if n >= 2000 {
						return 0, false, false
					}
					n++
					return vma.Base + mem.VA(rng.Uint64n(pages)*mem.PageSize), rng.Bool(0.3), true
				}, nil)
			}
		}
		if pod.Rack(0).BorrowedBlades() == 0 {
			t.Fatal("rack 0 did not borrow")
		}
		drainAt := pod.Now().Add(40 * sim.Microsecond)
		drained := false
		if err := pod.DrainMemBladeAt(3, 1, drainAt, func(_ DrainReport, e error) {
			if e != nil {
				t.Errorf("drain on the quiet rack: %v", e)
			}
			drained = true
		}); err != nil {
			t.Fatal(err)
		}
		// Stop on the drain's instant, then run the one window holding it.
		pod.AdvanceTime(drainAt.Sub(pod.Now()))
		before, events := pod.exec.entered[3], pod.Rack(3).Engine().Executed
		pod.AdvanceTime(pod.exec.window)
		res := result{drainEntered: pod.exec.entered[3] == before+1 && pod.Rack(3).Engine().Executed > events}
		if res.end = pod.RunThreads(); !drained {
			t.Fatal("drain on the quiet rack never completed")
		}
		for i := 0; i < pod.Racks(); i++ {
			res.hashes = append(res.hashes, pod.Rack(i).Engine().DispatchHash())
		}
		res.windows, _, _ = pod.WindowStats()
		res.entered = append(res.entered, pod.exec.entered...)
		res.parked = append(res.parked, pod.exec.parked...)
		return res
	}
	sparse := run(1, false)
	for i := range sparse.entered {
		if got := sparse.entered[i] + sparse.parked[i]; got != sparse.windows {
			t.Errorf("rack %d: entered %d + parked %d != %d windows executed", i, sparse.entered[i], sparse.parked[i], sparse.windows)
		}
	}
	for _, i := range []int{2, 3} {
		if 2*sparse.parked[i] <= sparse.windows {
			t.Errorf("quiet rack %d parked in %d of %d windows, want most", i, sparse.parked[i], sparse.windows)
		}
	}
	if !sparse.drainEntered {
		t.Error("the window holding the drain's instant did not enter rack 3 and dispatch its drain")
	}
	t.Logf("%d windows; entered %v, parked %v", sparse.windows, sparse.entered, sparse.parked)
	for _, cfg := range []struct {
		workers int
		dense   bool
	}{{1, true}, {2, false}} {
		other := run(cfg.workers, cfg.dense)
		if other.end != sparse.end || !reflect.DeepEqual(other.hashes, sparse.hashes) {
			t.Fatalf("workers %d dense %v: end %v hashes %x, serial sparse end %v hashes %x",
				cfg.workers, cfg.dense, other.end, other.hashes, sparse.end, sparse.hashes)
		}
		if cfg.dense {
			for i, p := range other.parked {
				if p != 0 || other.entered[i] != other.windows {
					t.Errorf("dense rack %d: entered %d, parked %d of %d windows", i, other.entered[i], p, other.windows)
				}
			}
		} else if !reflect.DeepEqual(other, sparse) {
			t.Errorf("2 workers: %+v, serial %+v", other, sparse)
		}
	}
}

// TestSampleEveryRejectsNonPositive pins the sampler guard: the barrier
// catches up on every tick due, so a period of zero (or less) used to
// spin the next barrier forever. It panics with the value, as a 1-rack
// pod does for the call itself; a positive period samples.
func TestSampleEveryRejectsNonPositive(t *testing.T) {
	mk := func() *Pod {
		pod, err := NewPod(PodConfig{Racks: []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 1, 1024)}})
		if err != nil {
			t.Fatal(err)
		}
		return pod
	}
	for _, every := range []sim.Duration{0, -sim.Microsecond} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, every.String()) {
					t.Errorf("SampleEvery(%v) panicked with %q, want the period named", every, msg)
				}
			}()
			mk().SampleEvery(every, func(sim.Time) {})
		}()
	}
	pod, n := mk(), 0
	pod.SampleEvery(10*sim.Microsecond, func(sim.Time) { n++ })
	pod.AdvanceTime(100 * sim.Microsecond)
	if n != 10 {
		t.Errorf("10 µs sampler over 100 µs fired %d times, want 10", n)
	}
}

// TestSamplerEventsRun pins the sampler's place in the next-event
// cache: a sampler may schedule on any rack (it runs in barrier
// context), so each tick must leave the cache stale. Here every tick
// puts one event on rack 1 of an otherwise idle pod, due well before
// the next tick; a cache that missed it would park rack 1 past it.
func TestSamplerEventsRun(t *testing.T) {
	pod, err := NewPod(PodConfig{
		Racks:     []Config{podRackConfig(2, 1, 1024), podRackConfig(2, 1, 1024)},
		Promotion: PromotionConfig{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := pod.Rack(1).Engine()
	ticks, fired := 0, 0
	pod.SampleEvery(20*sim.Microsecond, func(now sim.Time) {
		if fired != ticks {
			t.Errorf("tick %d at %v: %d of the earlier ticks' events ran", ticks+1, now, fired)
		}
		ticks++
		eng.At(pod.Now().Add(sim.Microsecond), func() { fired++ })
	})
	pod.AdvanceTime(200 * sim.Microsecond)
	if ticks != 10 {
		t.Errorf("%d ticks over 200 µs, want 10", ticks)
	}
}
