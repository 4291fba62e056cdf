// Tenant migration: Evict packages a live tenant's portable state off
// one scheduler, Adopt boots it onto another. The pair is the fleet half
// of the cluster's auto-rebalancer (internal/cluster/rebalance.go):
// between scheduling windows the rebalancer Evicts a hot tenant, moves
// its objects with Cluster.MoveObject, and Adopts it on the destination
// shard — counters, latency histogram, arrival process, admission
// bucket, circuit breaker, and still-queued ops all carry over, so the
// merged report reads as one continuous tenant that changed machines.
package fleet

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

// TenantState is the portable state Evict returns and Adopt consumes:
// the admission spec plus everything the tenant accumulated — counters,
// histogram, queue, arrival process, admission bucket, circuit breaker.
// It is opaque to callers; they only route it (and may read its Spec).
type TenantState struct {
	spec TenantSpec
	accounting
}

// Spec returns the migrating tenant's admission spec (the rebalancer
// reads Objects off it to know what to MoveObject).
func (st *TenantState) Spec() TenantSpec { return st.spec }

// Elapsed returns the simulated time this scheduler has accumulated
// across its runs.
func (s *Scheduler) Elapsed() simtime.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed
}

// AlignElapsed raises the scheduler's accumulated-run clock to at least
// d. A scheduler created mid-run by a migration (the destination shard
// was empty until the tenant arrived) starts at zero elapsed time; the
// cluster fleet aligns it to the fleet clock so per-tenant goodput —
// completed over elapsed — stays meaningful for adopted tenants.
func (s *Scheduler) AlignElapsed(d simtime.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d > s.elapsed {
		s.elapsed = d
	}
}

// Evict removes a live tenant from this scheduler and returns its
// portable state for Adopt. The tenant's rings are drained (any pending
// completions are harvested into its carried counters), its attachments
// detached gracefully — detaching removes their call history from this
// shard's manager accounting, which is what lets a migration actually
// shift Cluster.Stats load — and its slot in the admission list becomes
// an inert stub reporting zeros, so sibling report indices stay stable.
// Call it only between runs (never from inside a Run/Replay window);
// crashed or already-migrated tenants refuse.
func (s *Scheduler) Evict(name string) (*TenantState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t *Tenant
	for _, c := range s.tenants {
		if c.spec.Name == name {
			t = c
			break
		}
	}
	if t == nil {
		return nil, fmt.Errorf("fleet: evict %q: no such tenant", name)
	}
	if t.migrated {
		return nil, fmt.Errorf("fleet: evict %q: already migrated", name)
	}
	if t.crashed || t.vm.Dead() {
		return nil, fmt.Errorf("fleet: evict %q: tenant crashed", name)
	}
	// Drain the rings dry so no op is in flight when the attachments go.
	for pass := 0; pass < 4 && t.ringPending() > 0; pass++ {
		v := t.vm.VCPU()
		for _, r := range t.rings {
			if err := r.Flush(v); err != nil {
				return nil, fmt.Errorf("fleet: evict %q: flush: %w", name, err)
			}
		}
		s.harvestTenant(t, simtime.Time(s.elapsed))
	}
	if n := t.ringPending(); n > 0 {
		return nil, fmt.Errorf("fleet: evict %q: %d ring ops still pending", name, n)
	}
	for _, obj := range t.spec.Objects {
		if err := t.guest.Detach(obj); err != nil {
			return nil, fmt.Errorf("fleet: evict %q: detach %q: %w", name, obj, err)
		}
	}
	st := &TenantState{spec: t.spec, accounting: t.accounting}
	// Reduce the slot to a stub: present (indices stay stable), inert
	// (never scheduled, never arrives), and reporting zeros.
	t.migrated = true
	t.accounting = accounting{hist: stats.NewHistogram()}
	t.handles, t.rings, t.ringPend = nil, nil, nil
	return st, nil
}

// Adopt boots a migrated tenant onto this scheduler from the state Evict
// returned: a fresh guest VM, fresh attachments (and rings, in ring
// mode) against this scheduler's manager, with every carried counter,
// the latency histogram, the arrival process, the admission bucket, the
// circuit breaker, and the still-queued ops restored. A tenant adopted
// mid-quarantine stays quarantined until its breaker's cooldown ends.
// The tenant re-enters the stride schedule like a fresh admit (pass
// zero); its objects must already exist on this scheduler's manager —
// the caller moves them first.
func (s *Scheduler) Adopt(st *TenantState) (*Tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("fleet: adopt needs a tenant state")
	}
	for _, t := range s.tenants {
		if t.spec.Name == st.spec.Name && !t.migrated {
			return nil, fmt.Errorf("fleet: adopt %q: name already admitted here", st.spec.Name)
		}
	}
	t, err := s.bringUp("adopt", st.spec, st.accounting)
	if err != nil {
		return nil, err
	}
	// The breaker has seen the source's faults; count this scheduler's
	// from here on.
	t.prevFaults = s.inj.FiredByGuest()[t.spec.Name]
	return t, nil
}
