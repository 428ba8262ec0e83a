package computeblade

import (
	"testing"

	"mind/internal/coherence"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/stats"
)

// dedupKey names a fault: a page of the 4-page fuzz universe and
// whether the fault is for a write.
type dedupKey struct {
	page  mem.VA
	write bool
}

// parkedReq is a request the parking switch holds until the op sequence
// completes it.
type parkedReq struct {
	key  dedupKey
	done func(coherence.Completion)
}

// runDedupOps replays an op sequence against a 2-page blade behind a
// switch that parks every request, one byte per op: 0-127 issues an
// access (bits 0-1 the page, bit 2 a write), 128-191 completes the
// parked request its low six bits pick (modulo how many are parked), so
// completions arrive in any order, and 192-255 advances the clock by its
// low six bits times 100 ns. No fault times out, so a fault sends one
// request. A model of the live faults, fed only by Access's hit answer
// and the callbacks, says how many requests each key must send: a miss
// joins its key's live fault if there is one and starts a fault
// otherwise, also when the key's last fault has settled (the 2-page cache
// evicts, so a page faults again). After every op no (page, want) may
// have two requests outstanding, nor have sent more than the model
// allows. At the end every parked request completes and the engine
// drains: each access callback must have fired exactly once, and each
// key must have sent exactly the model's requests.
func runDedupOps(t *testing.T, ops []byte) {
	eng := sim.NewEngine()
	var parked []parkedReq
	sent := map[dedupKey]int{}
	cfg := DefaultConfig(0, 2)
	cfg.FaultTimeout = sim.Second
	b := New(cfg, Deps{
		Engine:    eng,
		Collector: stats.NewCollector(),
		SendRequest: func(_ mem.PDID, va mem.VA, want mem.Perm, done func(coherence.Completion)) {
			k := dedupKey{va, want == mem.PermReadWrite}
			sent[k]++
			parked = append(parked, parkedReq{k, done})
		},
		Writeback: func(_ mem.VA, _ []byte, done func()) { done() },
		Reset:     func(va mem.VA, _ func()) { t.Fatalf("reset of %#x: no fault may time out", uint64(va)) },
	})

	var fired []int              // per access, callbacks so far
	live := map[dedupKey][]int{} // the model: accesses waiting on each key's live fault
	faults := map[dedupKey]int{} // the model: faults started per key
	complete := func(i int) {
		r := parked[i]
		parked = append(parked[:i], parked[i+1:]...)
		r.done(coherence.Completion{Writable: r.key.write})
	}
	for _, op := range ops {
		switch {
		case op < 128:
			k, id := dedupKey{mem.VA(op&3) << mem.PageShift, op&4 != 0}, len(fired)
			fired = append(fired, 0)
			hit := b.Access(1, k.page|mem.VA(op)<<4, k.write, func(r AccessResult) {
				if fired[id]++; fired[id] > 1 {
					t.Fatalf("access %d (%+v) called back %d times", id, k, fired[id])
				}
				if r.Err != nil || r.Page != k.page {
					t.Fatalf("access %d (%+v) called back with page %#x, error %v", id, k, uint64(r.Page), r.Err)
				}
				for j, w := range live[k] {
					if w == id {
						live[k] = append(live[k][:j], live[k][j+1:]...)
					}
				}
				if len(live[k]) == 0 {
					delete(live, k)
				}
			})
			if hit != (fired[id] == 1) {
				t.Fatalf("access %d (%+v): hit %v, callbacks %d", id, k, hit, fired[id])
			}
			if !hit {
				if live[k] == nil {
					faults[k]++
				}
				live[k] = append(live[k], id)
			}
		case op < 192:
			if len(parked) > 0 {
				complete(int(op&63) % len(parked))
			}
		default:
			eng.RunUntil(eng.Now().Add(sim.Duration(op&63) * 100 * sim.Nanosecond))
		}
		checkDedup(t, parked, sent, faults)
	}

	for steps := 0; len(parked) > 0 || eng.Pending() > 0; steps++ {
		if steps > 16*len(ops)+16 {
			t.Fatalf("blade still busy after %d steps: %d parked, %d events", steps, len(parked), eng.Pending())
		}
		if len(parked) > 0 {
			complete(0)
		} else {
			eng.Step()
		}
		checkDedup(t, parked, sent, faults)
	}
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("access %d called back %d times", id, n)
		}
	}
	for k, n := range faults {
		if sent[k] != n {
			t.Fatalf("%+v: %d requests sent, %d faults started", k, sent[k], n)
		}
	}
	if len(live) != 0 || len(b.live) != 0 {
		t.Fatalf("drained blade: model holds %d live keys, blade %d live faults", len(live), len(b.live))
	}
}

// checkDedup: at most one request outstanding per (page, want), and no
// key has sent more requests than it started faults.
func checkDedup(t *testing.T, parked []parkedReq, sent, faults map[dedupKey]int) {
	t.Helper()
	for i, r := range parked {
		for _, o := range parked[i+1:] {
			if o.key == r.key {
				t.Fatalf("two requests outstanding for %+v", r.key)
			}
		}
	}
	for k, n := range sent {
		if n > faults[k] {
			t.Fatalf("%+v: %d requests sent, %d faults started", k, n, faults[k])
		}
	}
}

// randomDedupOps draws n uniform op bytes: half accesses, a quarter
// completions, a quarter clock advances.
func randomDedupOps(seed uint64, n int) []byte {
	rng := sim.NewRNG(seed, "faultdedup")
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(rng.Intn(256))
	}
	return ops
}

// FuzzFaultDedup checks the blade's fault dedup on any op sequence: one
// request per live (page, want), callbacks exactly once, completions in
// any order.
func FuzzFaultDedup(f *testing.F) {
	// Page 0 faults, settles and is evicted by pages 1 and 2; a read of
	// it then sends a new request, which a second read joins. A write to
	// page 3 and a read of it are two faults, completed out of order.
	f.Add([]byte{0, 255, 128, 255, 1, 2, 255, 129, 128, 255, 0, 0, 255, 128, 255, 7, 3, 255, 129, 128, 255})
	f.Add(randomDedupOps(1, 400))
	f.Add(randomDedupOps(2, 400))
	f.Fuzz(func(t *testing.T, ops []byte) { runDedupOps(t, ops) })
}
