package ctrlplane

import (
	"errors"
	"math/rand"
	"testing"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

// The release fuzz runs a controller over two 16-page blades, so its
// window, the two partitions side by side, is 32 pages from 4 GB.
const (
	relFuzzBladePages = 16
	relFuzzPages      = 2 * relFuzzBladePages
	relFuzzBase       = mem.VA(1) << 32
	relFuzzMaxOps     = 24
)

// Op kinds of runReleaseOps: the first byte of an op is kind + 7·slot,
// slot being one of three process slots.
const (
	relExec = iota
	relMmap
	relMunmap
	relMProtect
	relCreateDomain
	relGrantDomain
	relExit
	relKinds
)

// relVMA is the oracle's view of one live vma.
type relVMA struct {
	owner       mem.PDID
	first, size uint64 // in pages: first page of the window, reserved pages
}

// releaseOracle mirrors a controller at page granularity: the live vmas
// and the permission every domain holds over every page of the window.
type releaseOracle struct {
	vmas  map[mem.VA]relVMA
	perms map[mem.PDID]*[relFuzzPages]mem.Perm
}

func (o *releaseOracle) set(d mem.PDID, first, n uint64, perm mem.Perm) {
	if o.perms[d] == nil {
		o.perms[d] = new([relFuzzPages]mem.Perm)
	}
	for pg := first; pg < first+n; pg++ {
		o.perms[d][pg] = perm
	}
}

// owner returns the pid whose live vma holds page pg, and false if none.
func (o *releaseOracle) owner(pg uint64) (mem.PDID, bool) {
	for _, v := range o.vmas {
		if pg >= v.first && pg < v.first+v.size {
			return v.owner, true
		}
	}
	return 0, false
}

// owns reports whether every page of [first, first+n) lies in a live
// vma of pid — the controller's ownership check at page granularity.
func (o *releaseOracle) owns(pid mem.PDID, first, n uint64) bool {
	for pg := first; pg < first+n; pg++ {
		if owner, ok := o.owner(pg); !ok || owner != pid {
			return false
		}
	}
	return true
}

// release drops the vma at base with every domain's permissions over it.
func (o *releaseOracle) release(base mem.VA) {
	v := o.vmas[base]
	for d := range o.perms {
		o.set(d, v.first, v.size, mem.PermNone)
	}
	delete(o.vmas, base)
}

// runReleaseOps reads ops as 3-byte controller intercepts over three
// process slots and two session domains: Exec into an empty slot, Mmap
// of 1–8 pages, Munmap of a live vma's base (the caller's own or
// another's) or of the page after it, MProtect and GrantDomain of a page
// range (to a minted domain, or to the next, unminted one), CreateDomain
// and Exit (of a live pid, or of the slot's exited one). Each op's error
// must be the oracle's, and after every op Check of every page of the
// window, for every domain the run has named and both wanted perms,
// must agree with the oracle; every installed rule must lie in a live
// vma, and every domain the table keeps must hold a rule; and
// Entries(0) must equal the TCAM's rule count.
func runReleaseOps(t *testing.T, ops []byte) {
	t.Helper()
	if len(ops) > 3*relFuzzMaxOps {
		ops = ops[:3*relFuzzMaxOps]
	}
	c := NewController(switchasic.DefaultConfig(), 1)
	for i := 0; i < 2; i++ {
		if _, err := c.Allocator().AddBlade(relFuzzBladePages * mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	o := &releaseOracle{vmas: map[mem.VA]relVMA{}, perms: map[mem.PDID]*[relFuzzPages]mem.Perm{}}
	var slots, exited [3]mem.PDID // live pid per slot; the last one to exit
	var sessions []mem.PDID
	domains := []mem.PDID{firstSession + 2} // never minted: it holds nothing
	page := func(pg uint64) mem.VA { return relFuzzBase + mem.VA(pg*mem.PageSize) }
	for i := 0; i+2 < len(ops); i += 3 {
		kind, slot, a, b := ops[i]%relKinds, ops[i]/relKinds%3, uint64(ops[i+1]), uint64(ops[i+2])
		pid := slots[slot]
		first := a % relFuzzPages
		n := min(b%8+1, relFuzzPages-first)
		var err, want error
		switch {
		case kind == relExec:
			if pid == 0 {
				slots[slot] = c.Exec("p").PID
				domains = append(domains, slots[slot])
			}
		case kind == relCreateDomain:
			if len(sessions) < 2 {
				d := c.CreateDomain()
				if d != firstSession+mem.PDID(len(sessions)) {
					t.Fatalf("op %d: CreateDomain = %d, want %d", i/3, d, firstSession+mem.PDID(len(sessions)))
				}
				sessions = append(sessions, d)
				domains = append(domains, d)
			}
		case kind == relExit && pid == 0:
			gone := exited[slot]
			if gone == 0 {
				gone = 999 // no pid ran in this slot
			}
			err, want = c.Exit(gone), ErrNoProcess
		case pid == 0:
			continue // the other intercepts need a live process
		case kind == relExit:
			err = c.Exit(pid)
			for base, v := range o.vmas {
				if v.owner == pid {
					o.release(base)
				}
			}
			slots[slot], exited[slot] = 0, pid
		case kind == relMmap:
			perm := []mem.Perm{mem.PermRead, mem.PermReadWrite}[b&1]
			var vma mem.VMA
			vma, err = c.Mmap(pid, (a%8+1)*mem.PageSize, perm)
			if errors.Is(err, ErrNoMemory) {
				err = nil // placement is the allocator's tests' business
				break
			}
			reserved, rerr := c.Allocator().Reserved(vma.Base)
			if err != nil || rerr != nil || vma.Base < relFuzzBase || vma.Base+mem.VA(reserved) > page(relFuzzPages) {
				t.Fatalf("op %d: Mmap = %+v, %v (reserved %#x, %v)", i/3, vma, err, reserved, rerr)
			}
			v := relVMA{owner: pid, first: uint64(vma.Base-relFuzzBase) / mem.PageSize, size: reserved / mem.PageSize}
			for pg := v.first; pg < v.first+v.size; pg++ {
				if _, taken := o.owner(pg); taken {
					t.Fatalf("op %d: Mmap placed %+v over a live vma", i/3, vma)
				}
			}
			o.vmas[vma.Base] = v
			o.set(pid, v.first, v.size, perm)
		case kind == relMunmap:
			base := page(first) // no vma yet: not a vma base
			if len(o.vmas) > 0 {
				bases := c.Allocator().VMAs()
				base = bases[a%uint64(len(bases))].Base + mem.VA(b&1)*mem.PageSize
			}
			err = c.Munmap(pid, base)
			if v, ok := o.vmas[base]; ok && v.owner == pid {
				o.release(base)
			} else {
				want = ErrBadAddress
			}
		case kind == relMProtect:
			perm := []mem.Perm{mem.PermNone, mem.PermRead, mem.PermReadWrite}[b/8%3]
			err = c.MProtect(pid, page(first), n*mem.PageSize, perm)
			if o.owns(pid, first, n) {
				o.set(pid, first, n, perm)
			} else {
				want = ErrBadAddress
			}
		case kind == relGrantDomain:
			d := firstSession + mem.PDID(len(sessions)) // the next to be minted
			if s := int(b >> 3 & 1); s < len(sessions) {
				d = sessions[s]
			}
			perm := []mem.Perm{mem.PermRead, mem.PermReadWrite}[b>>4&1]
			err = c.GrantDomain(pid, d, page(first), n*mem.PageSize, perm)
			if d < firstSession+mem.PDID(len(sessions)) && o.owns(pid, first, n) {
				o.set(d, first, n, perm)
			} else {
				want = ErrBadAddress
			}
		}
		if (want == nil) != (err == nil) || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("op %d (kind %d, slot %d, %d, %d): err = %v, want %v", i/3, kind, slot, a, b, err, want)
		}
		checkReleaseOracle(t, i/3, c, o, domains)
	}
}

// checkReleaseOracle holds the controller to the oracle after op op.
func checkReleaseOracle(t *testing.T, op int, c *Controller, o *releaseOracle, domains []mem.PDID) {
	t.Helper()
	for _, d := range domains {
		perms := o.perms[d]
		if perms == nil {
			perms = new([relFuzzPages]mem.Perm)
		}
		for pg := uint64(0); pg < relFuzzPages; pg++ {
			va := relFuzzBase + mem.VA(pg*mem.PageSize+pg*61)
			for _, want := range []mem.Perm{mem.PermRead, mem.PermReadWrite} {
				if err := c.Protection().Check(d, va, want); perms[pg].Allows(want) != (err == nil) {
					t.Fatalf("op %d: Check(%d, page %d, %v) = %v, oracle has %v", op, d, pg, want, err, perms[pg])
				}
			}
		}
	}
	for d, rules := range c.prot.installed {
		if len(rules) == 0 {
			t.Fatalf("op %d: domain %d is kept with no rule", op, d)
		}
		for base, r := range rules {
			for va := base; va < base+mem.VA(r.size); va += mem.PageSize {
				if va < relFuzzBase || va >= relFuzzBase+relFuzzPages*mem.PageSize {
					t.Fatalf("op %d: domain %d holds a rule at %#x, outside the window", op, d, uint64(va))
				}
				if _, live := o.owner(uint64(va-relFuzzBase) / mem.PageSize); !live {
					t.Fatalf("op %d: domain %d holds a rule at %#x, outside every live vma", op, d, uint64(va))
				}
			}
		}
	}
	if got, want := c.Protection().Entries(0), c.ASIC().Protection.Len(); got != want {
		t.Fatalf("op %d: Entries(0) = %d, TCAM holds %d rules", op, got, want)
	}
}

func randomReleaseOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 3*n)
	rng.Read(ops)
	return ops
}

// FuzzControllerRelease holds the controller's intercepts — above all
// the one release path that Munmap and Exit share — to a page-granular
// oracle of live vmas and grants.
func FuzzControllerRelease(f *testing.F) {
	// A server grants a session domain read-write over its vma and
	// exits; the next process's vma lands at the same base. The session
	// must hold nothing from the exit on.
	f.Add([]byte{
		relExec, 0, 0,
		relMmap, 7, 1, // 8 pages read-write: pages 0..7
		relCreateDomain, 0, 0,
		relGrantDomain, 0, 7 | 1<<4, // session 0: pages 0..7 read-write
		relExit, 0, 0,
		relExec + relKinds, 0, 0,
		relMmap + relKinds, 7, 1,
	})
	// Two adjacent vmas of one pid under one coalesced grant, a foreign
	// munmap, an mprotect across both, then munmaps one at a time.
	f.Add([]byte{
		relExec, 0, 0,
		relExec + relKinds, 0, 0,
		relMmap, 3, 1, // pages 0..3
		relMmap, 3, 1, // pages 16..19, on the other blade
		relMmap, 3, 0, // pages 4..7
		relCreateDomain, 0, 0,
		relGrantDomain, 0, 7 | 1<<4, // session 0: pages 0..7, across two vmas
		relMunmap + relKinds, 0, 0, // slot 1 unmaps slot 0's vma: refused
		relMProtect, 2, 3 | 2<<3, // pages 2..5 read-write, across two vmas
		relMunmap, 0, 0,
		relGrantDomain, 4, 3 | 1<<3, // to the unminted session 1: refused
		relMunmap, 1, 1, // the page after a base: refused
		relMunmap, 0, 0,
		relExit, 0, 0,
		relExit, 0, 0, // the slot's pid already exited
	})
	f.Add(randomReleaseOps(1, relFuzzMaxOps))
	f.Add(randomReleaseOps(2, relFuzzMaxOps))
	f.Fuzz(func(t *testing.T, ops []byte) { runReleaseOps(t, ops) })
}
