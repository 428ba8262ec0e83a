package coherence

import (
	"errors"
	"math/rand"
	"testing"

	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
	"mind/internal/switchasic"
)

// This file holds FuzzDirectory: a byte string drives the directory of a
// 3-blade protoHarness, capped at 2-4 slots, with page requests on a
// 64-page window, retransmissions, splits and merges, freezes, Bounded
// Splitting epochs, held ACKs and resets. A per-page oracle built only
// from what the blades received — completions and invalidations — checks
// MSI safety at every quiescence.

const (
	dirFuzzBlades = 3
	dirFuzzPages  = 64
	// dirFuzzBase is the window's first page, aligned to the top-level
	// size so merges can grow a region over the whole window.
	dirFuzzBase = mem.VA(1 << 32)
	// dirFuzzNoHome is the one page translation fails for: its requests
	// fail at the fetch, after the transition ran.
	dirFuzzNoHome  = dirFuzzPages - 1
	dirFuzzMaxOps  = 64
	dirFuzzBadPDID = mem.PDID(999) // protoHarness's Protect refuses it
)

var errNoHome = errors.New("coherence test: page has no home blade")

// Holdings of one page at a fuzz blade.
const (
	heldNone uint8 = iota
	heldRead
	heldWrite
)

// fuzzBlade is a compute blade reduced to what the oracle needs: which
// window pages it holds and whether writable. It applies an invalidation
// when it is delivered and reports every writable page it drops or
// downgrades as a flushed dirty page, so false invalidations feed the
// splitter. Its ACKs can be held.
type fuzzBlade struct {
	id       int
	held     [dirFuzzPages]uint8
	holdAcks bool
	acks     []func()
}

func (b *fuzzBlade) HandleInvalidation(inv Invalidation, ack func(AckInfo)) {
	var info AckInfo
	for pg := range b.held {
		va := dirFuzzPage(pg)
		if b.held[pg] == heldNone || !inv.Region.Contains(va) {
			continue
		}
		if b.held[pg] == heldWrite {
			info.FlushedDirty++
			if va != inv.Requested {
				info.FalseInvals++
			}
		}
		if inv.Downgrade && !inv.Reset {
			b.held[pg] = heldRead
		} else {
			b.held[pg] = heldNone
		}
	}
	if b.holdAcks {
		b.acks = append(b.acks, func() { ack(info) })
		return
	}
	ack(info)
}

func (b *fuzzBlade) releaseAcks() {
	b.holdAcks = false
	acks := b.acks
	b.acks = nil
	for _, ack := range acks {
		ack()
	}
}

// dirFuzzReq is one RequestPage call. dup marks a retransmission the
// directory must drop: its key was in flight when it was issued.
type dirFuzzReq struct {
	blade int
	page  int
	want  mem.Perm
	pdid  mem.PDID
	dup   bool
	dones int
}

// dirFuzz is one FuzzDirectory run.
type dirFuzz struct {
	t         *testing.T
	h         *protoHarness
	blades    []*fuzzBlade
	slots     int
	splitter  *ctrlplane.Splitter
	reqs      []*dirFuzzReq
	resets    []int // done count per ResetRegion call
	frozen    []mem.Range
	freezeAll bool
	op        int
}

func newDirFuzz(t *testing.T, slots int) *dirFuzz {
	h := newProtoHarness(t, dirFuzzBlades, slots)
	f := &dirFuzz{t: t, h: h, slots: slots}
	h.dir.translate = func(va mem.VA) (ctrlplane.BladeID, error) {
		if va == dirFuzzPage(dirFuzzNoHome) {
			return 0, errNoHome
		}
		return 0, nil
	}
	for i := 0; i < dirFuzzBlades; i++ {
		b := &fuzzBlade{id: i}
		f.blades = append(f.blades, b)
		h.dir.RegisterBlade(i, b)
	}
	f.splitter = ctrlplane.NewSplitter(ctrlplane.DefaultSplitterConfig(), h.dir)
	return f
}

func dirFuzzPage(pg int) mem.VA { return dirFuzzBase + mem.VA(pg*mem.PageSize) }

// request issues one page request, for an address inside the page rather
// than its first byte.
func (f *dirFuzz) request(blade, page int, want mem.Perm, pdid mem.PDID) {
	d := f.h.dir
	_, dup := d.inFlight[reqKey{blade: blade, page: dirFuzzPage(page), want: want}]
	r := &dirFuzzReq{blade: blade, page: page, want: want, pdid: pdid, dup: dup}
	f.reqs = append(f.reqs, r)
	d.RequestPage(blade, pdid, dirFuzzPage(page)+mem.VA(8*page), want, func(c Completion) { f.complete(r, c) })
}

// complete is every request's done: it checks the answer and applies a
// grant to the requesting blade's holdings.
func (f *dirFuzz) complete(r *dirFuzzReq, c Completion) {
	t := f.t
	r.dones++
	if r.dup {
		t.Fatalf("op %d: the done of a dropped retransmission ran: %+v", f.op, c)
	}
	if r.dones > 1 {
		t.Fatalf("op %d: a request's done ran %d times", f.op, r.dones)
	}
	if c.Err != nil || c.Retry {
		if c.Writable || c.Invalidations != 0 || c.Transition != "" {
			t.Fatalf("op %d: a Retry/Err completion grants: %+v", f.op, c)
		}
		if c.Err == nil {
			return
		}
		switch {
		case r.pdid == dirFuzzBadPDID:
			if !errors.Is(c.Err, ctrlplane.ErrPermission) {
				t.Fatalf("op %d: refused pdid answered %v", f.op, c.Err)
			}
		case errors.Is(c.Err, errNoHome):
			if r.page != dirFuzzNoHome {
				t.Fatalf("op %d: page %d answered %v", f.op, r.page, c.Err)
			}
		case !errors.Is(c.Err, switchasic.ErrSlotsFull):
			t.Fatalf("op %d: unexpected error %v", f.op, c.Err)
		}
		return
	}
	if r.pdid == dirFuzzBadPDID || r.page == dirFuzzNoHome {
		t.Fatalf("op %d: request (pdid %d, page %d) granted: %+v", f.op, r.pdid, r.page, c)
	}
	if r.want == mem.PermReadWrite && !c.Writable {
		t.Fatalf("op %d: write request granted read-only: %+v", f.op, c)
	}
	held := heldRead
	if c.Writable {
		held = heldWrite
	}
	f.blades[r.blade].held[r.page] = held
}

// reset resets the region covering va and checks, when the reset's done
// runs, that no blade holds a page of the range and no region is left
// in it.
func (f *dirFuzz) reset(va mem.VA) {
	d := f.h.dir
	// A reset of a region already resetting is held only to running its
	// done once: by then the region may be gone, or a newer one may have
	// taken its place. The per-op oracle covers the rest.
	var rng mem.Range
	if r, err := d.Lookup(va); err == nil && !r.resetting {
		rng = r.Range()
	}
	i := len(f.resets)
	f.resets = append(f.resets, 0)
	d.ResetRegion(va, func() {
		f.resets[i]++
		if rng.Size == 0 {
			return
		}
		for _, b := range f.blades {
			for pg, h := range b.held {
				if h != heldNone && rng.Contains(dirFuzzPage(pg)) {
					f.t.Fatalf("op %d: blade %d holds page %d when the reset of %+v completes", f.op, b.id, pg, rng)
				}
			}
		}
		if _, err := d.Lookup(rng.Base); err == nil || d.rt.overlaps(rng.Base, rng.Size) {
			f.t.Fatalf("op %d: a region is left in %+v when its reset completes", f.op, rng)
		}
	})
}

// apply runs one 3-byte op; ctl&0x7f%11 is the kind.
func (f *dirFuzz) apply(ctl, a, b byte) {
	d := f.h.dir
	bases := d.AllRegionBases()
	kind := int(ctl&0x7f) % 11
	switch kind {
	case 0, 1, 2:
		// A burst of 1-3 requests issued before the engine runs, on pages
		// a stride of 0-3 apart, so they queue on one region.
		for i := 0; i <= kind; i++ {
			want := mem.PermRead
			if (a>>2+byte(i))&1 == 1 {
				want = mem.PermReadWrite
			}
			pdid := mem.PDID(1)
			if a >= 0xf8 && i == 0 {
				pdid = dirFuzzBadPDID
			}
			f.request((int(a)+i)%dirFuzzBlades, (int(b)+i*int(a>>4&3))%dirFuzzPages, want, pdid)
		}
	case 3:
		// A retransmission of a live request: same blade, page and want.
		var live []*dirFuzzReq
		for _, r := range f.reqs {
			if _, ok := d.inFlight[reqKey{blade: r.blade, page: dirFuzzPage(r.page), want: r.want}]; ok && !r.dup && r.dones == 0 {
				live = append(live, r)
			}
		}
		if len(live) > 0 {
			r := live[int(a)%len(live)]
			f.request(r.blade, r.page, r.want, r.pdid)
		}
	case 4:
		if len(bases) > 0 {
			_ = d.SplitRegion(bases[int(a)%len(bases)])
		}
	case 5:
		if len(bases) > 0 {
			_ = d.MergeRegion(bases[int(a)%len(bases)])
		}
	case 6:
		if b&1 == 1 && len(f.frozen) > 0 {
			i := int(a) % len(f.frozen)
			d.UnfreezeRange(f.frozen[i])
			f.frozen = append(f.frozen[:i], f.frozen[i+1:]...)
			break
		}
		first := int(a) % dirFuzzPages
		n := int(b>>1)%(dirFuzzPages-first) + 1
		r := mem.Range{Base: dirFuzzPage(first), Size: uint64(n) * mem.PageSize}
		f.frozen = append(f.frozen, r)
		d.FreezeRange(r)
	case 7:
		f.freezeAll = !f.freezeAll
		d.SetFreezeAll(f.freezeAll)
	case 8:
		f.splitter.RunEpoch()
	case 9:
		if bl := f.blades[int(a)%dirFuzzBlades]; bl.holdAcks {
			bl.releaseAcks()
		} else {
			bl.holdAcks = true
		}
	case 10:
		va := dirFuzzPage(int(b) % dirFuzzPages)
		if len(bases) > 0 {
			va = bases[int(a)%len(bases)]
		}
		f.reset(va)
	}
}

// check holds the directory and the blades' holdings to the oracle at a
// quiescence (every message delivered; ACKs may be held).
func (f *dirFuzz) check() {
	t, d := f.t, f.h.dir
	if d.RegionCount() != d.SlotsInUse() || d.SlotsInUse() > f.slots {
		t.Fatalf("op %d: %d regions in %d slots, cap %d", f.op, d.RegionCount(), d.SlotsInUse(), f.slots)
	}
	// Regions are recycled once nothing holds them: a request still in
	// flight must find its region under the identity it claimed (the
	// directory checks the same at every use, abandoned requests
	// included) and holding it.
	for key, p := range d.inFlight {
		if r := p.region; r != nil && (r.gen != p.regionGen || r.holds == 0 || r.dropped) {
			t.Fatalf("op %d: in-flight request %+v reaches region %v (gen %d, claimed %d, holds %d, dropped %v)",
				f.op, key, r, r.gen, p.regionGen, r.holds, r.dropped)
		}
	}
	bases := d.AllRegionBases()
	if len(bases) != d.RegionCount() {
		t.Fatalf("op %d: %d region bases, RegionCount %d", f.op, len(bases), d.RegionCount())
	}
	var end mem.VA
	for i, base := range bases {
		r, err := d.Lookup(base)
		if err != nil || r.Base != base {
			t.Fatalf("op %d: region base %#x does not look up to itself", f.op, uint64(base))
		}
		if !mem.IsPow2(r.Size) || r.Size < mem.PageSize || r.Size > d.cfg.TopLevelSize || uint64(base)%r.Size != 0 {
			t.Fatalf("op %d: bad region %v", f.op, r)
		}
		if i > 0 && base < end {
			t.Fatalf("op %d: region %v overlaps its predecessor", f.op, r)
		}
		// The inline waiter count is the queue's length, and only a
		// region with a transition in flight has waiters.
		if q := r.waiters; (q == nil && r.nwait != 0) || (q != nil && q.Len() != int(r.nwait)) || (r.nwait != 0 && !r.busy) {
			t.Fatalf("op %d: region %v counts %d waiters (busy %v), queue %v", f.op, r, r.nwait, r.busy, q)
		}
		// An Invalid region lists no sharer, a Modified one its owner alone.
		if (r.state == Invalid && r.sharers != 0) || (r.state == Modified && r.sharers != bladeOf(r.Owner())) {
			t.Fatalf("op %d: region %v lists sharers %v", f.op, r, r.Sharers())
		}
		end = r.Range().End()
	}
	for pg := 0; pg < dirFuzzPages; pg++ {
		holders, writers := 0, 0
		for _, b := range f.blades {
			h := b.held[pg]
			if h == heldNone {
				continue
			}
			holders++
			r, err := d.Lookup(dirFuzzPage(pg))
			if err != nil {
				t.Fatalf("op %d: blade %d holds page %d, which no region covers", f.op, b.id, pg)
			}
			if !r.sharers.Has(b.id) {
				t.Fatalf("op %d: blade %d holds page %d outside the sharers of %v", f.op, b.id, pg, r)
			}
			if h == heldWrite {
				writers++
				if r.state != Modified || r.Owner() != b.id {
					t.Fatalf("op %d: blade %d holds page %d writable under %v", f.op, b.id, pg, r)
				}
			}
		}
		if writers > 1 || (writers == 1 && holders > 1) {
			t.Fatalf("op %d: page %d has %d holders, %d writable", f.op, pg, holders, writers)
		}
	}
}

// runDirectoryOps reads ops as a slot-cap byte and then 3-byte ops. An op
// whose first byte has bit 7 set leaves the engine mid-flight (it runs
// 0-7 µs on); any other runs it to quiescence and checks the oracle. At
// the end every hold and freeze is lifted, and every request's done must
// have run exactly once — a dropped retransmission's never — as must
// every reset's.
func runDirectoryOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) == 0 {
		return
	}
	f := newDirFuzz(t, 2+int(ops[0])%3)
	ops = ops[1:]
	if len(ops) > 3*dirFuzzMaxOps {
		ops = ops[:3*dirFuzzMaxOps]
	}
	eng := f.h.eng
	for i := 0; i+2 < len(ops); i += 3 {
		f.op = i / 3
		f.apply(ops[i], ops[i+1], ops[i+2])
		if ops[i]&0x80 != 0 {
			eng.RunUntil(eng.Now().Add(sim.Duration(ops[i+1]%8) * sim.Microsecond))
			continue
		}
		eng.Run()
		f.check()
	}
	f.op = -1
	for _, b := range f.blades {
		b.releaseAcks()
	}
	for _, r := range f.frozen {
		f.h.dir.UnfreezeRange(r)
	}
	f.h.dir.SetFreezeAll(false)
	eng.Run()
	f.check()
	for i, r := range f.reqs {
		want := 1
		if r.dup {
			want = 0
		}
		if r.dones != want {
			t.Fatalf("request %d (blade %d, page %d, %v, dup %v): done ran %d times, want %d",
				i, r.blade, r.page, r.want, r.dup, r.dones, want)
		}
	}
	for i, n := range f.resets {
		if n != 1 {
			t.Fatalf("reset %d: done ran %d times", i, n)
		}
	}
	if len(f.h.dir.inFlight) != 0 {
		t.Fatalf("%d requests still in flight after the drain", len(f.h.dir.inFlight))
	}
}

func randomDirectoryOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 1+3*n)
	rng.Read(ops)
	return ops
}

// FuzzDirectory holds the directory's protocol and region management to
// the per-page MSI oracle.
func FuzzDirectory(f *testing.F) {
	const (
		req1, req2, req3, retransmit, split, merge, freeze, freezeAll, epoch, hold, reset = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
		midFlight                                                                         = 0x80
	)
	// Held ACKs queue a burst behind an M->M transition; a retransmission
	// is dropped; a reset bounces the queue and waits for the held ACK.
	f.Add([]byte{3,
		req1, 0x04, 0, // blade 0 writes page 0
		hold, 0, 0, // blade 0 holds its ACKs
		req3, 0x05, 0, // blades 1, 2, 0 request page 0 (W, R, W)
		retransmit, 0, 0,
		retransmit | midFlight, 1, 0,
		reset, 0, 0,
		req1, 0x01, 1, // blade 1 reads page 1 while the region resets
		hold, 0, 0, // release blade 0
		req1, 0x02, 1,
	})
	// Granularity changes under traffic: split, write sharing with false
	// invalidations, an epoch, merges, freezes and a failover blackout.
	f.Add([]byte{4,
		req2, 0x04, 4, // blades 0, 1 write pages 4, 4
		split, 0, 0,
		split, 1, 0,
		req3, 0x14, 4, // a stride-1 burst over pages 4..6
		req2, 0x06, 5,
		epoch, 0, 0,
		merge, 0, 0,
		freeze, 4, 6, // pages 4..7
		req1, 0x00, 5, // bounces
		freeze, 0, 1, // unfreeze
		freezeAll, 0, 0,
		req1, 0x01, 9,
		freezeAll, 0, 0,
		req1, 0x08, dirFuzzNoHome,
		req1, 0xf8, 2, // refused pdid
		merge, 1, 0,
		epoch, 0, 0,
	})
	f.Add(randomDirectoryOps(1, 40))
	f.Add(randomDirectoryOps(2, dirFuzzMaxOps))
	f.Add(randomDirectoryOps(3, dirFuzzMaxOps))
	// A second reset of a resetting region, with blade 2's ACK to it
	// held: after the first reset completes, blade 1 reads a page into a
	// fresh region, which the second reset's completion must leave alone.
	f.Add([]byte{3,
		req1, 0x00, 0, // blade 0 reads page 0
		reset | midFlight, 7, 0, // reset 1
		reset | midFlight, 7, 0, // reset 2, 7 µs later
		retransmit | midFlight, 7, 0, // (nothing live) past reset 1's invalidations
		hold | midFlight, 2, 0, // blade 2 holds its ACK to reset 2
		retransmit | midFlight, 7, 0,
		retransmit | midFlight, 7, 0, // past reset 1's completion
		req1, 0x01, 0, // blade 1 reads page 0
		hold, 2, 0, // release blade 2: reset 2 completes
	})
	f.Fuzz(func(t *testing.T, ops []byte) { runDirectoryOps(t, ops) })
}
