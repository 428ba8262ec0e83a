package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mind/internal/computeblade"
	"mind/internal/ctrlplane"
	"mind/internal/mem"
	"mind/internal/sim"
)

// Process is a user process running over one MIND rack. Its threads may
// live on different compute blades of that rack while transparently
// sharing the global address space (§6.1).
type Process struct {
	c   *Rack
	pid mem.PDID
}

// Rack returns the rack hosting the process.
func (p *Process) Rack() *Rack { return p.c }

// syscall runs op in the switch control plane and blocks until it has
// returned: the intercepted call's round trip through the switch CPU.
func (c *Rack) syscall(op func()) {
	c.await(func(done func()) {
		c.fab.CtrlCall(0, func() {
			op()
			done()
		})
	})
}

// Exec starts a process (exec intercept → switch control plane).
func (c *Rack) Exec(name string) *Process {
	var p *ctrlplane.Process
	c.syscall(func() { p = c.ctl.Exec(name) })
	return &Process{c: c, pid: p.PID}
}

// PID returns the process/protection-domain id.
func (p *Process) PID() mem.PDID { return p.pid }

// Mmap allocates a shared virtual memory area (§6.1). The syscall round
// trips through the switch control plane. In a multi-rack pod, a rack
// whose own memory blades cannot host the area borrows a spare blade
// from another rack (one inter-rack control round trip) and retries —
// the allocation ends up routed through both switches. That retry
// completes in a later event, which is why Mmap does not ride syscall.
func (p *Process) Mmap(length uint64, perm mem.Perm) (mem.VMA, error) {
	var vma mem.VMA
	var err error
	p.c.await(func(done func()) {
		p.c.fab.CtrlCall(0, func() {
			vma, err = p.c.ctl.Mmap(p.pid, length, perm)
			// No blade holds more than 2^63 bytes, so such an area is
			// not worth a borrow (nor has a power-of-two size).
			if err == nil || !errors.Is(err, ctrlplane.ErrNoMemory) || !p.c.pod.multiRack || length > 1<<63 {
				done()
				return
			}
			need := mem.NextPow2(length)
			if need < mem.PageSize {
				need = mem.PageSize
			}
			p.c.pod.borrowAsync(p.c, need, func(ok bool) {
				if ok {
					vma, err = p.c.ctl.Mmap(p.pid, length, perm)
				}
				done()
			})
		})
	})
	return vma, err
}

// Munmap releases an area.
func (p *Process) Munmap(base mem.VA) error {
	var err error
	p.c.syscall(func() { err = p.c.ctl.Munmap(p.pid, base) })
	return err
}

// MProtect changes permissions on a range of the process's own vmas.
func (p *Process) MProtect(base mem.VA, length uint64, perm mem.Perm) error {
	var err error
	p.c.syscall(func() { err = p.c.ctl.MProtect(p.pid, base, length, perm) })
	return err
}

// CreateDomain mints a session protection domain (§4.2).
func (p *Process) CreateDomain() mem.PDID {
	var d mem.PDID
	p.c.syscall(func() { d = p.c.ctl.CreateDomain() })
	return d
}

// GrantDomain grants a session domain rights over a range of the
// process's own vmas.
func (p *Process) GrantDomain(d mem.PDID, base mem.VA, length uint64, perm mem.Perm) error {
	var err error
	p.c.syscall(func() { err = p.c.ctl.GrantDomain(p.pid, d, base, length, perm) })
	return err
}

// Exit tears the process down.
func (p *Process) Exit() error {
	var err error
	p.c.syscall(func() { err = p.c.ctl.Exit(p.pid) })
	return err
}

// SpawnThread places a thread of this process on the given compute blade
// (experiments pin threads per blade as §7.1 does).
func (p *Process) SpawnThread(blade int) (*Thread, error) {
	if blade < 0 || blade >= len(p.c.cblades) {
		return nil, fmt.Errorf("core: no compute blade %d", blade)
	}
	var err error
	p.c.syscall(func() { err = p.c.ctl.Processes().SpawnThreadOn(p.pid, blade) })
	if err != nil {
		return nil, err
	}
	return &Thread{
		c:     p.c,
		proc:  p,
		blade: blade,
		pdid:  p.pid,
	}, nil
}

// --- Synchronous data-path operations (used by examples and the KVS) ---

// access performs one blocking access with the given intent, driving the
// simulation until it completes.
func (t *Thread) access(va mem.VA, write bool) error {
	var res error
	t.c.await(func(done func()) {
		t.c.cblades[t.blade].Access(t.pdid, va, write, func(r computeblade.AccessResult) {
			res = r.Err
			done()
		})
	})
	return res
}

// page performs one blocking access to the n bytes at va, which must stay
// within one page, and returns the blade's cache, the cached page and
// va's offset in it.
func (t *Thread) page(va mem.VA, n int, write bool) (*computeblade.Cache, *computeblade.PageState, int, error) {
	if err := t.access(va, write); err != nil {
		return nil, nil, 0, err
	}
	off := int(va - mem.PageBase(va))
	if off+n > mem.PageSize {
		return nil, nil, 0, fmt.Errorf("core: %d-byte access at %#x crosses a page boundary", n, uint64(va))
	}
	cache := t.c.cblades[t.blade].Cache()
	p, ok := cache.Peek(va)
	if !ok {
		return nil, nil, 0, fmt.Errorf("core: page vanished after the fault at %#x", uint64(va))
	}
	return cache, p, off, nil
}

// Load reads one byte-addressed uint64 (little endian) from the global
// address space, faulting the page in if needed. Like every blocking
// call it waits for its access to complete, so it runs the same path
// under every Config.Consistency: only Thread.Start's access loop
// lets write faults run asynchronously under PSO.
func (t *Thread) Load(va mem.VA) (uint64, error) {
	cache, p, off, err := t.page(va, 8, false)
	if err != nil {
		return 0, err
	}
	data := cache.Data(p)
	if data == nil {
		return 0, nil // never-written memory reads as zero
	}
	return binary.LittleEndian.Uint64(data[off : off+8]), nil
}

// Store writes one uint64 (little endian), acquiring write ownership.
func (t *Thread) Store(va mem.VA, val uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return t.StoreBytes(va, b[:])
}

// LoadBytes copies length bytes starting at va (must stay within one
// page).
func (t *Thread) LoadBytes(va mem.VA, length int) ([]byte, error) {
	cache, p, off, err := t.page(va, length, false)
	if err != nil {
		return nil, err
	}
	out := make([]byte, length)
	if data := cache.Data(p); data != nil {
		copy(out, data[off:off+length])
	}
	return out, nil
}

// StoreBytes writes bytes starting at va (within one page).
func (t *Thread) StoreBytes(va mem.VA, data []byte) error {
	cache, p, off, err := t.page(va, len(data), true)
	if err != nil {
		return err
	}
	buf := cache.Data(p)
	if buf == nil {
		buf = make([]byte, mem.PageSize)
		cache.SetData(p, buf)
	}
	copy(buf[off:off+len(data)], data)
	p.SetDirty(true)
	return nil
}

// Touch performs one timing-only access (no data materialization) —
// the primitive synthetic workloads use.
func (t *Thread) Touch(va mem.VA, write bool) error {
	return t.access(va, write)
}

// AdvanceTime idles the rack for d of virtual time (lets epochs run).
// The whole pod advances together — a lone engine cannot outrun its
// peers past the lookahead bound.
func (c *Rack) AdvanceTime(d sim.Duration) {
	c.pod.AdvanceTime(d)
}
