package core

import (
	"fmt"
	"sort"

	"github.com/elisa-go/elisa/internal/hv"
)

// AttachmentStats is the manager's per-attachment accounting, the raw
// material for tenancy billing and abuse detection.
type AttachmentStats struct {
	Guest    string
	Object   string
	SubIndex int // virtual slot ID
	// PhysIndex is the physical EPTP-list slot currently backing the
	// attachment, or -1 when it is unbacked.
	PhysIndex int
	Calls     uint64
	FnErrors  uint64
	Revoked   bool
}

// recordCall is bumped by invoke on every dispatched manager function.
// Atomic: the fast path must not take the manager lock here.
func (a *Attachment) recordCall(fnErr error) {
	a.calls.Add(1)
	if fnErr != nil {
		a.fnErrors.Add(1)
	}
}

// Stats returns a snapshot of every attachment (live and revoked, but not
// yet cleaned up), ordered by guest then object.
func (m *Manager) Stats() []AttachmentStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []AttachmentStats
	for _, gs := range m.guests {
		for name, a := range gs.attachments {
			out = append(out, AttachmentStats{
				Guest:     gs.vm.Name(),
				Object:    name,
				SubIndex:  a.vslot,
				PhysIndex: a.phys,
				Calls:     a.calls.Load(),
				FnErrors:  a.fnErrors.Load(),
				Revoked:   a.revoked,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Guest != out[j].Guest {
			return out[i].Guest < out[j].Guest
		}
		return out[i].Object < out[j].Object
	})
	return out
}

// SlotStats is the per-guest view of the slot-virtualisation layer: how
// many physical slots the guest may hold (Budget), how many it holds now
// (Backed), how many live attachments it has in total (Live, so
// Live-Backed are virtual-only), and the slow-path counters.
type SlotStats struct {
	Guest     string
	Budget    int
	Backed    int
	Live      int
	Faults    uint64
	Evictions uint64
}

// SlotStats returns the slot-table accounting of every guest, ordered by
// guest name.
func (m *Manager) SlotStats() []SlotStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SlotStats, 0, len(m.guests))
	for _, gs := range m.guests {
		live := 0
		for _, a := range gs.attachments {
			if !a.revoked {
				live++
			}
		}
		out = append(out, SlotStats{
			Guest:     gs.vm.Name(),
			Budget:    gs.budget,
			Backed:    len(gs.physAtt),
			Live:      live,
			Faults:    gs.faults,
			Evictions: gs.evictions,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Guest < out[j].Guest })
	return out
}

// SlotBinding is one row of a guest's virtual slot table.
type SlotBinding struct {
	VSlot   int
	Phys    int // -1 when unbacked
	Object  string
	LastUse uint64
	Revoked bool
}

// SlotTable dumps a guest's virtual slot table, ordered by virtual slot
// (the elisa-inspect view).
func (m *Manager) SlotTable(guest *hv.VM) ([]SlotBinding, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.guests[guest.ID()]
	if !ok {
		return nil, fmt.Errorf("core: guest %q has no ELISA state", guest.Name())
	}
	out := make([]SlotBinding, 0, len(gs.slots))
	for _, a := range gs.slots {
		out = append(out, SlotBinding{
			VSlot:   a.vslot,
			Phys:    a.phys,
			Object:  a.obj.name,
			LastUse: a.lastUse,
			Revoked: a.revoked,
		})
	}
	return out, nil
}

// ObjectNames returns the registered object names, sorted.
func (m *Manager) ObjectNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.objects))
	for n := range m.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DescribeGuest renders a one-guest summary for inspection tools.
func (m *Manager) DescribeGuest(guest *hv.VM) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.guests[guest.ID()]
	if !ok {
		return "", fmt.Errorf("core: guest %q has no ELISA state", guest.Name())
	}
	s := fmt.Sprintf("guest %q: gate@%#x, %d attachment(s), %d/%d slots backed, next vslot %d, faults=%d evictions=%d\n",
		guest.Name(), uint64(gs.gateGPA), len(gs.attachments), len(gs.physAtt), gs.budget, firstSubIdx+len(gs.slots), gs.faults, gs.evictions)
	// Walk the vslot-ordered slot table, not the name map, so identical
	// runs print identically. It also holds detached and superseded
	// attachments, which the name map no longer points at.
	for _, a := range gs.slots {
		if gs.attachments[a.obj.name] != a {
			continue
		}
		state := "live"
		if a.revoked {
			state = "revoked"
		}
		phys := fmt.Sprintf("phys %d", a.phys)
		if a.phys == physNone {
			phys = "unbacked"
		}
		s += fmt.Sprintf("  %-16s vslot %-3d %-9s obj@%#x exchange@%#x %s calls=%d errs=%d\n",
			a.obj.name, a.vslot, phys, uint64(a.obj.gpa), uint64(a.exchangeGPA), state, a.calls.Load(), a.fnErrors.Load())
	}
	return s, nil
}
