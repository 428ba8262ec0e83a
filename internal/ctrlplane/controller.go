package ctrlplane

import (
	"fmt"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

// Controller is the switch control plane facade: the TCP server on the
// switch CPU that handles system-call intercepts from compute blades
// (§6.1, §6.3) and pushes policy into the data plane. It bundles the
// allocator, protection table and process manager, and supports
// consistent replication to a backup switch (§4.4).
type Controller struct {
	asic  *switchasic.ASIC
	alloc *Allocator
	prot  *ProtectionTable
	procs *ProcessManager

	// sessionDomains tracks application-created protection domains beyond
	// PID-based ones (§4.2: e.g. one domain per client session).
	sessionDomains map[mem.PDID]bool
	nextSession    mem.PDID
}

// MSIStates is the number of stable MSI states; the materialized
// state-transition table stores one rule per (state, request-type) pair
// (§6.3).
const MSIStates = 3

// msiRequestTypes is read/write — the request kinds a transition matches.
const msiRequestTypes = 2

// NewController builds a control plane over a fresh ASIC with the given
// limits and placement policy, for a rack with computeBlades compute
// blades.
func NewController(asicCfg switchasic.Config, policy PlacementPolicy, computeBlades int) *Controller {
	a := switchasic.New(asicCfg)
	a.InstallSTT(MSIStates * msiRequestTypes)
	// One multicast group containing every compute blade port (§4.3.2).
	ports := make([]int, computeBlades)
	for i := range ports {
		ports[i] = i
	}
	a.SetGroup(InvalidationGroup, ports)
	return &Controller{
		asic:           a,
		alloc:          NewAllocator(a, policy),
		prot:           NewProtectionTable(a),
		procs:          NewProcessManager(computeBlades),
		sessionDomains: make(map[mem.PDID]bool),
		nextSession:    1 << 20, // far above PID range
	}
}

// InvalidationGroup is the multicast group id used for coherence
// invalidations.
const InvalidationGroup = 1

// ASIC returns the active data plane.
func (c *Controller) ASIC() *switchasic.ASIC { return c.asic }

// Allocator returns the memory allocator.
func (c *Controller) Allocator() *Allocator { return c.alloc }

// Protection returns the protection table.
func (c *Controller) Protection() *ProtectionTable { return c.prot }

// Processes returns the process manager.
func (c *Controller) Processes() *ProcessManager { return c.procs }

// Mmap services an mmap intercept: it allocates a vma with balanced
// placement and installs matching protection entries, returning the vma
// exactly as the local mmap would (§6.1).
func (c *Controller) Mmap(pid mem.PDID, length uint64, perm mem.Perm) (mem.VMA, error) {
	vma, err := c.alloc.Alloc(pid, length, perm)
	if err != nil {
		return mem.VMA{}, err
	}
	reserved, _ := c.alloc.Reserved(vma.Base)
	if err := c.prot.Assign(pid, vma.Base, reserved, perm); err != nil {
		_ = c.alloc.Free(vma.Base)
		return mem.VMA{}, err
	}
	return vma, nil
}

// owned checks the range argument of an intercept that changes rights:
// [base, base+length) must be non-empty, must not wrap past 2^64, and
// must lie inside the reserved footprints of vmas pid owns.
func (c *Controller) owned(pid mem.PDID, base mem.VA, length uint64) error {
	end := uint64(base) + length
	if length == 0 || end < uint64(base) {
		return fmt.Errorf("ctrlplane: range %#x+%#x is empty or wraps: %w", uint64(base), length, ErrBadAddress)
	}
	for va := base; uint64(va) < end; {
		vma, _, err := c.alloc.Lookup(va)
		if err != nil || vma.PDID != pid {
			return fmt.Errorf("ctrlplane: %#x is not in a vma of domain %d: %w", uint64(va), pid, ErrBadAddress)
		}
		reserved, _ := c.alloc.Reserved(vma.Base)
		va = vma.Base + mem.VA(reserved)
	}
	return nil
}

// Munmap services a munmap intercept: permissions are revoked for every
// domain holding grants on the area, then the area is freed. base must
// be the base of a vma pid owns.
func (c *Controller) Munmap(pid mem.PDID, base mem.VA) error {
	reserved, err := c.alloc.Reserved(base)
	if err != nil {
		return fmt.Errorf("ctrlplane: munmap at %#x is not a vma base: %w", uint64(base), ErrBadAddress)
	}
	if err := c.owned(pid, base, reserved); err != nil {
		return err
	}
	if err := c.prot.Revoke(pid, base, reserved); err != nil {
		return err
	}
	for d := range c.sessionDomains {
		if err := c.prot.Revoke(d, base, reserved); err != nil {
			return err
		}
	}
	return c.alloc.Free(base)
}

// MProtect changes the permission class pid holds over [base,
// base+length), a range inside vmas pid owns (mprotect intercept).
func (c *Controller) MProtect(pid mem.PDID, base mem.VA, length uint64, perm mem.Perm) error {
	if err := c.owned(pid, base, length); err != nil {
		return err
	}
	if perm == mem.PermNone {
		return c.prot.Revoke(pid, base, length)
	}
	return c.prot.Assign(pid, base, length, perm)
}

// CreateDomain mints a fresh protection domain not tied to any process —
// the capability-style extension for per-session isolation (§4.2).
func (c *Controller) CreateDomain() mem.PDID {
	d := c.nextSession
	c.nextSession++
	c.sessionDomains[d] = true
	return d
}

// GrantDomain has pid give domain d permission class perm over [base,
// base+length), a range inside vmas pid owns.
func (c *Controller) GrantDomain(pid, d mem.PDID, base mem.VA, length uint64, perm mem.Perm) error {
	if !c.sessionDomains[d] {
		return fmt.Errorf("ctrlplane: unknown session domain %d: %w", d, ErrBadAddress)
	}
	if err := c.owned(pid, base, length); err != nil {
		return err
	}
	return c.prot.Assign(d, base, length, perm)
}

// Exec, Exit and thread placement forward to the process manager; they
// exist on the controller because the compute-blade kernel module sends
// these intercepts to the switch (§6.1).

// Exec creates a process.
func (c *Controller) Exec(name string) *Process {
	return c.procs.Exec(name)
}

// Exit tears down a process: its threads, vmas and permissions.
func (c *Controller) Exit(pid mem.PDID) error {
	if _, err := c.procs.Lookup(pid); err != nil {
		return err
	}
	// Release every vma owned by the process.
	for _, vma := range c.alloc.VMAs() {
		if vma.PDID == pid {
			reserved, _ := c.alloc.Reserved(vma.Base)
			_ = c.prot.Revoke(pid, vma.Base, reserved)
			_ = c.alloc.Free(vma.Base)
		}
	}
	return c.procs.Exit(pid)
}

// Failover builds the backup switch's data plane from control-plane
// state (§4.4): translation entries (blade partitions + outliers),
// protection entries, the STT and multicast groups are replayed into a
// fresh ASIC, which becomes the active one. Directory entries are data-
// plane-only state and are NOT reconstructed — callers must reset
// coherence state (compute blades flush), matching the paper's reset
// mechanism.
func (c *Controller) Failover() *switchasic.ASIC {
	// The control plane is consistently replicated, so a clone of the
	// data-plane programmable state is reconstructible entry by entry.
	backup := c.asic.CloneState()
	c.asic = backup
	c.alloc.asic = backup
	c.prot.asic = backup
	return backup
}
