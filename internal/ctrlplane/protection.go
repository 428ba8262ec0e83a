package ctrlplane

import (
	"errors"
	"fmt"
	"sort"

	"mind/internal/mem"
	"mind/internal/switchasic"
)

// ErrPermission is returned when a protection check fails (EACCES).
var ErrPermission = errors.New("ctrlplane: permission denied (EACCES)")

// ProtectionTable compiles vma-granularity permissions into power-of-two
// TCAM entries in the data plane (§4.2). It decouples protection from
// translation (principle P1): entries map <PDID, va-range> to a
// permission class, support arbitrary-size vmas via binary decomposition,
// and coalesce buddy entries with identical permissions to conserve TCAM
// space.
type ProtectionTable struct {
	asic *switchasic.ASIC
	// installed tracks live TCAM ranges per domain: base -> rule. It is
	// the control plane's mirror of data-plane state, used for revocation
	// and failover reconstruction.
	installed map[mem.PDID]map[mem.VA]rule
	rejects   uint64
}

// rule is one installed protection entry: its size and permission class.
type rule struct {
	size uint64
	perm mem.Perm
}

// NewProtectionTable creates a table that installs rules into asic.
func NewProtectionTable(asic *switchasic.ASIC) *ProtectionTable {
	return &ProtectionTable{
		asic:      asic,
		installed: make(map[mem.PDID]map[mem.VA]rule),
	}
}

func (p *ProtectionTable) domain(pdid mem.PDID) map[mem.VA]rule {
	m, ok := p.installed[pdid]
	if !ok {
		m = make(map[mem.VA]rule)
		p.installed[pdid] = m
	}
	return m
}

func (p *ProtectionTable) insertOne(pdid mem.PDID, r mem.Range, perm mem.Perm) error {
	if err := p.asic.Protection.Insert(switchasic.Entry{
		PDID:  uint32(pdid),
		Base:  uint64(r.Base),
		Size:  r.Size,
		Value: int64(perm),
	}); err != nil {
		return err
	}
	p.domain(pdid)[r.Base] = rule{size: r.Size, perm: perm}
	return nil
}

func (p *ProtectionTable) deleteOne(pdid mem.PDID, base mem.VA, size uint64) error {
	if err := p.asic.Protection.Delete(uint32(pdid), uint64(base), size); err != nil {
		return err
	}
	delete(p.domain(pdid), base)
	return nil
}

// Assign grants permission class perm to protection domain pdid over
// [base, base+length). The range is decomposed into power-of-two TCAM
// entries (at most 2·log2(length), §4.2), then adjacent buddy entries
// with the same permission are coalesced.
func (p *ProtectionTable) Assign(pdid mem.PDID, base mem.VA, length uint64, perm mem.Perm) error {
	if length == 0 {
		return fmt.Errorf("ctrlplane: empty protection range: %w", ErrBadAddress)
	}
	// Clear any previous assignment overlapping the range (mprotect
	// semantics: latest assignment wins).
	if err := p.Revoke(pdid, base, length); err != nil {
		return err
	}
	for _, r := range mem.SplitPow2(base, length) {
		if err := p.insertOne(pdid, r, perm); err != nil {
			return fmt.Errorf("ctrlplane: install protection entry: %w", err)
		}
	}
	p.coalesce(pdid, base, length)
	return nil
}

// coalesce repeatedly merges buddy entry pairs with equal permissions in
// the vicinity of the just-modified range.
func (p *ProtectionTable) coalesce(pdid mem.PDID, base mem.VA, length uint64) {
	m := p.domain(pdid)
	for {
		merged := false
		// Deterministic scan order.
		bases := make([]mem.VA, 0, len(m))
		for b := range m {
			bases = append(bases, b)
		}
		sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
		for _, b := range bases {
			r, ok := m[b]
			if !ok {
				continue // removed by an earlier merge this pass
			}
			buddy := b ^ mem.VA(r.size)
			if m[buddy] != r {
				continue // no buddy of the same size and permission
			}
			lo := b
			if buddy < lo {
				lo = buddy
			}
			if err := p.deleteOne(pdid, b, r.size); err != nil {
				return
			}
			if err := p.deleteOne(pdid, buddy, r.size); err != nil {
				return
			}
			if err := p.insertOne(pdid, mem.Range{Base: lo, Size: r.size * 2}, r.perm); err != nil {
				return
			}
			merged = true
		}
		if !merged {
			return
		}
	}
}

// Revoke removes any permissions domain pdid holds over [base,
// base+length). Entries that extend beyond the revoked range are split
// down (buddy decomposition) and the retained parts reinstalled.
func (p *ProtectionTable) Revoke(pdid mem.PDID, base mem.VA, length uint64) error {
	if length == 0 {
		return nil
	}
	m := p.domain(pdid)
	end := base + mem.VA(length)
	// Collect overlapping installed entries.
	var overlapping []mem.Range
	for b, r := range m {
		if b < end && base < b+mem.VA(r.size) {
			overlapping = append(overlapping, mem.Range{Base: b, Size: r.size})
		}
	}
	sort.Slice(overlapping, func(i, j int) bool { return overlapping[i].Base < overlapping[j].Base })
	for _, r := range overlapping {
		perm := m[r.Base].perm
		if err := p.deleteOne(pdid, r.Base, r.Size); err != nil {
			return err
		}
		// Reinstall the parts of r outside [base, end) as po2 entries.
		if r.Base < base {
			for _, keep := range mem.SplitPow2(r.Base, uint64(base-r.Base)) {
				if err := p.insertOne(pdid, keep, perm); err != nil {
					return err
				}
			}
		}
		if r.End() > end {
			for _, keep := range mem.SplitPow2(end, uint64(r.End()-end)) {
				if err := p.insertOne(pdid, keep, perm); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Check is the data-plane permission check performed on every memory
// access request embedded in an RDMA packet (§4.2): it matches the most
// specific <PDID, va> entry and compares the permission class with the
// access type. A mismatch or a missing entry rejects the request.
func (p *ProtectionTable) Check(pdid mem.PDID, va mem.VA, want mem.Perm) error {
	v, err := p.asic.Protection.Lookup(uint32(pdid), uint64(va))
	if err != nil {
		p.rejects++
		return fmt.Errorf("ctrlplane: no protection entry for pdid=%d va=%#x: %w", pdid, uint64(va), ErrPermission)
	}
	if !mem.Perm(v).Allows(want) {
		p.rejects++
		return fmt.Errorf("ctrlplane: pdid=%d va=%#x has %v, needs %v: %w",
			pdid, uint64(va), mem.Perm(v), want, ErrPermission)
	}
	return nil
}

// Entries returns the number of installed protection rules for the
// domain (all domains if pdid is 0).
func (p *ProtectionTable) Entries(pdid mem.PDID) int {
	if pdid == 0 {
		total := 0
		for _, m := range p.installed {
			total += len(m)
		}
		return total
	}
	return len(p.installed[pdid])
}

// Rejects returns the number of failed checks (Figure 2 "reject" path).
func (p *ProtectionTable) Rejects() uint64 { return p.rejects }
