package core

import (
	"fmt"
	"sort"

	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/trace"
)

// This file is the recovery half of the fault model: the manager noticing
// that a guest died (possibly inside a gate or sub context), quarantining
// and reclaiming everything it held, repairing machine state an injected
// corruption scribbled, and accounting for all of it. The injection half
// lives in package fault; the hook sites are in guest.go / negotiate.go.

// noteRetry accounts one guest-side negotiation retry after a transient
// fault (the guest library calls it from its backoff loops).
func (m *Manager) noteRetry() {
	m.mu.Lock()
	m.retries++
	m.mu.Unlock()
	m.inj.NoteRecovery("retry", "")
}

// noteGateExit bumps the guest's gate-exit epoch after a completed
// outbound crossing; paired with the entry bump in gateAllowsBinding.
func (m *Manager) noteGateExit(vmID int) {
	m.mu.Lock()
	if gs := m.guests[vmID]; gs != nil {
		gs.gateExits++
	}
	m.mu.Unlock()
}

// crashMidGate services an injected ClassCrashMidGate firing: the guest
// vCPU dies where it stands, inside the sub context.
func (m *Manager) crashMidGate(vm *hv.VM, in *fault.Injection) {
	now := vm.VCPU().Clock().Now()
	m.hv.Trace().Emit(now, vm.Name(), trace.KindInject,
		"%s (armed #%02d @%s)", in.Class, in.Seq, simtime.Duration(in.At))
	m.hv.CrashVM(vm, fmt.Sprintf("injected %s", in.Class))
}

// fireNegotiate checks the negotiation hook point for the calling guest.
// A non-nil return is the injected failure the hypercall handler must
// return to the guest; it wraps fault.ErrTransient so the guest library's
// bounded retry loop recognises it. A timeout-class firing additionally
// charges the caller the virtual time the lost negotiation took. Callers
// hold m.mu.
func (m *Manager) fireNegotiate(vm *hv.VM, what string) error {
	in := m.inj.Fire(fault.PointNegotiate, vm.Name(), vm.VCPU().Clock().Now())
	if in == nil {
		return nil
	}
	m.hv.Trace().Emit(vm.VCPU().Clock().Now(), vm.Name(), trace.KindInject,
		"%s during %s (armed #%02d)", in.Class, what, in.Seq)
	if in.Class == fault.ClassNegotiateTimeout {
		vm.VCPU().Charge(fault.NegotiateTimeout)
	}
	return fmt.Errorf("core: %s negotiation for %q shed: injected %s: %w",
		what, vm.Name(), in.Class, fault.ErrTransient)
}

// RecoverGuest quarantines and reclaims everything a dead guest held:
// every sub context is torn down, its physical slots freed, exchange
// buffers and the gate context released, and the guest's ELISA state
// removed — without touching any other guest's slots, contexts, or
// attachments. Unlike CleanupGuest it is a *post-mortem* pass: the guest
// cannot cooperate (its vCPU is dead), so the manager reclaims
// unilaterally, including when the guest died between a gate entry and
// the matching exit. Returns whether the guest died mid-gate.
func (m *Manager) RecoverGuest(guest *hv.VM) (midGate bool, err error) {
	m.mu.Lock()
	midGate, rings, err := m.recoverGuestLocked(guest)
	m.mu.Unlock()
	// Ring backing memory is freed outside m.mu, under the poller lock, so
	// an in-flight DrainRings pass can never touch freed frames.
	if ferr := m.releaseRings(rings); err == nil {
		err = ferr
	}
	return midGate, err
}

func (m *Manager) recoverGuestLocked(guest *hv.VM) (midGate bool, rings []*hv.HostRegion, err error) {
	gs, ok := m.guests[guest.ID()]
	if !ok {
		return false, nil, fmt.Errorf("core: guest %q has no ELISA state to recover", guest.Name())
	}
	midGate = gs.gateEntries > gs.gateExits
	tlb := guest.VCPU().TLB()
	// Revocations the guest never lived to service: destroy their contexts
	// before the sweep below, which skips revoked attachments.
	if err := m.reapLocked(gs); err != nil {
		return midGate, rings, err
	}
	// Reclaim in sorted object order: the frees feed the allocator's free
	// list, and replayed runs must return frames in the identical order.
	names := make([]string, 0, len(gs.attachments))
	for name := range gs.attachments {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := gs.attachments[name]
		if !a.revoked {
			a.revoked = true
			if err := m.unbindLocked(gs, a); err != nil {
				return midGate, rings, fmt.Errorf("core: recover %q/%q: %w", guest.Name(), name, err)
			}
			tlb.InvalidateContext(a.subCtx.Pointer())
			if err := a.subCtx.Destroy(); err != nil {
				return midGate, rings, fmt.Errorf("core: recover %q/%q: %w", guest.Name(), name, err)
			}
		}
		if err := a.exchange.Free(); err != nil {
			return midGate, rings, fmt.Errorf("core: recover %q/%q exchange: %w", guest.Name(), name, err)
		}
		if r := detachRingLocked(a); r != nil {
			rings = append(rings, r)
		}
	}
	for _, a := range gs.retired {
		if err := a.exchange.Free(); err != nil {
			return midGate, rings, fmt.Errorf("core: recover retired exchange: %w", err)
		}
		if r := detachRingLocked(a); r != nil {
			rings = append(rings, r)
		}
	}
	if err := gs.list.Revoke(IdxGate); err != nil {
		return midGate, rings, err
	}
	tlb.InvalidateContext(gs.gateCtx.Pointer())
	if err := gs.gateCtx.Destroy(); err != nil {
		return midGate, rings, err
	}
	if err := gs.stack.Free(); err != nil {
		return midGate, rings, err
	}
	delete(m.guests, guest.ID())
	m.recoveries++
	m.inj.NoteRecovery("quarantine", guest.Name())
	detail := "dead guest quarantined, attachments reclaimed"
	if midGate {
		m.midGateDeaths++
		m.inj.NoteRecovery("mid-gate-death", guest.Name())
		detail = fmt.Sprintf("died mid-gate (entries=%d exits=%d), attachments reclaimed",
			gs.gateEntries, gs.gateExits)
	}
	m.hv.Trace().Emit(guest.VCPU().Clock().Now(), guest.Name(), trace.KindRecover, "%s", detail)
	return midGate, rings, nil
}

// RecoverDead sweeps the manager's guests for dead VMs and runs
// RecoverGuest on each (in VM-id order, so recovery traces are
// deterministic). It returns how many guests it reclaimed. Live guests
// are never touched.
func (m *Manager) RecoverDead() (int, error) {
	m.mu.Lock()
	var dead []*hv.VM
	ids := make([]int, 0, len(m.guests))
	for id := range m.guests {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if gs := m.guests[id]; gs.vm.Dead() {
			dead = append(dead, gs.vm)
		}
	}
	m.mu.Unlock()
	for _, vm := range dead {
		if _, err := m.RecoverGuest(vm); err != nil {
			return 0, err
		}
	}
	return len(dead), nil
}

// FsckRepair is Manager.Fsck promoted to an online repair pass: where the
// audit would report a mismatch between the slot-table bookkeeping and the
// EPTP list as the machine holds it (an injected corruption, a stray DMA
// write), the repair rewrites the list entry from the bookkeeping — the
// bookkeeping is the source of truth; the list page is just hardware state
// derived from it. It returns how many entries it rewrote. After it
// returns, Fsck passes by construction.
func (m *Manager) FsckRepair() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fixed := 0
	ids := make([]int, 0, len(m.guests))
	for id := range m.guests {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		gs := m.guests[id]
		repair := func(idx int, want ept.Pointer) error {
			got, err := gs.list.Get(idx)
			if err != nil {
				return err
			}
			if got == want {
				return nil
			}
			// Rewrite through the raw page, not List.Set: the occupancy
			// bitmap never saw the corruption and is already correct, and
			// repairing an entry must not perturb it.
			addr := gs.list.Addr() + mem.HPA(idx*8)
			if err := m.hv.Phys().WriteU64(addr, uint64(want)); err != nil {
				return err
			}
			fixed++
			m.repairs++
			m.inj.NoteRecovery("fsck-repair", gs.vm.Name())
			m.hv.Trace().Emit(gs.vm.VCPU().Clock().Now(), gs.vm.Name(), trace.KindRepair,
				"slot %d rewritten: %v -> %v", idx, got, want)
			return nil
		}
		if err := repair(IdxDefault, gs.vm.DefaultEPT().Pointer()); err != nil {
			return fixed, err
		}
		if err := repair(IdxGate, gs.gateCtx.Pointer()); err != nil {
			return fixed, err
		}
		want := map[int]ept.Pointer{}
		for _, a := range gs.attachments {
			if !a.revoked && a.phys != physNone {
				want[a.phys] = a.subCtx.Pointer()
			}
		}
		for idx := firstSubIdx; idx < ept.ListEntries; idx++ {
			w := ept.NilPointer
			if p, ok := want[idx]; ok {
				w = p
			}
			if err := repair(idx, w); err != nil {
				return fixed, err
			}
		}
	}
	return fixed, nil
}

// PumpFaults applies every asynchronous injection due at or before now:
// EPTP-list corruption and slot storms, the faults that do not ride on a
// call path. The simulation driver (the fleet scheduler, the chaos tests)
// calls it between events; it returns how many injections it applied.
func (m *Manager) PumpFaults(now simtime.Time) int {
	due := m.inj.Due(now)
	if len(due) == 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	applied := 0
	for i := range due {
		in := &due[i]
		gs := m.targetLocked(in.Guest)
		if gs == nil {
			continue // no such guest (yet/anymore): the injection is spent
		}
		switch in.Class {
		case fault.ClassEPTPCorrupt:
			// Scribble a list entry through raw physical memory, bypassing
			// List.Set — the stray-DMA / bit-flip model. The occupancy
			// bitmap goes stale on purpose; FsckRepair works from the
			// bookkeeping and Fsck reads the page, so both see it.
			idx := int(in.Arg % 8)             // bias low: gate, default, hot sub slots
			garbage := (in.Arg | 0xbad) &^ 0x7 // nonzero, page-aligned-ish junk
			addr := gs.list.Addr() + mem.HPA(idx*8)
			if err := m.hv.Phys().WriteU64(addr, garbage); err != nil {
				continue
			}
			m.hv.Trace().Emit(now, gs.vm.Name(), trace.KindInject,
				"%s: slot %d scribbled with %#x (armed #%02d)", in.Class, idx, garbage, in.Seq)
			applied++
		case fault.ClassSlotStorm:
			// Unbind every backed slot at once: the guest's next calls all
			// take the HCSlotFault slow path back. The storm costs latency,
			// never correctness.
			phys := make([]int, 0, len(gs.physAtt))
			for idx := range gs.physAtt {
				phys = append(phys, idx)
			}
			sort.Ints(phys)
			for _, idx := range phys {
				if err := m.unbindLocked(gs, gs.physAtt[idx]); err != nil {
					break
				}
			}
			m.hv.Trace().Emit(now, gs.vm.Name(), trace.KindInject,
				"%s: %d backed slots dropped (armed #%02d)", in.Class, len(phys), in.Seq)
			applied++
		}
	}
	return applied
}

// targetLocked resolves an injection's guest name to its state; "" picks
// the live guest with the lowest VM id, keeping wildcard injections
// deterministic.
func (m *Manager) targetLocked(name string) *guestState {
	if name != "" {
		for _, gs := range m.guests {
			if gs.vm.Name() == name {
				return gs
			}
		}
		return nil
	}
	best := -1
	for id := range m.guests {
		if best == -1 || id < best {
			best = id
		}
	}
	if best == -1 {
		return nil
	}
	return m.guests[best]
}

// RecoveryStats is the manager's recovery-side counter snapshot.
type RecoveryStats struct {
	// Recoveries counts completed RecoverGuest passes.
	Recoveries uint64
	// MidGateDeaths counts recovered guests whose epochs showed they died
	// inside a gate or sub context.
	MidGateDeaths uint64
	// Repairs counts EPTP-list entries FsckRepair rewrote.
	Repairs uint64
	// Retries counts guest-side negotiation retries after transient faults.
	Retries uint64
}

// RecoveryStats returns the recovery counters.
func (m *Manager) RecoveryStats() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return RecoveryStats{
		Recoveries:    m.recoveries,
		MidGateDeaths: m.midGateDeaths,
		Repairs:       m.repairs,
		Retries:       m.retries,
	}
}
