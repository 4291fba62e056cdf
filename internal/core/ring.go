package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/trace"
)

// This file is the exit-less ring datapath: a per-attachment SPSC
// descriptor ring (shm.CallRing) the guest submits operations into from
// its default context — no exits, no gate — plus the two drain sides that
// service it. The *gate flush* is the guest itself taking one 196 ns
// crossing and running every queued descriptor back-to-back in the sub
// context (the adaptive-batching path: N ops amortise one crossing). The
// *manager poller* (Manager.DrainRings) is host-side manager code walking
// the same ring through the manager VM's own mappings on its own clock —
// the budget-bounded polling loop the fleet scheduler interleaves with
// tenant quanta. Either way a submitted descriptor is completed exactly
// once, in submission order, onto the completion queue the guest polls
// exit-lessly.
//
// Lock order (deadlock rule for the whole file): pollMu > drainMu > m.mu.
// Nothing may take a ring's drainMu — or free a ring's memory — while
// holding m.mu, because both drain paths briefly take m.mu per descriptor
// (dispatch lookup, revoke checks). Revoke/hcDetach therefore fail a
// ring's queued descriptors only *after* releasing m.mu, and the
// post-mortem paths free ring regions under pollMu so a concurrent
// DrainRings can never touch freed frames.

// HCRingSetup negotiates a call ring for an existing attachment:
// args = (virtual slot, ring depth). The hypercall return value is the
// guest-physical address where the ring is now mapped (read-write, in
// both the guest's default context and the attachment's sub context).
// Issuing it again for the same attachment is idempotent and returns the
// existing ring. Like every negotiation it is a slow path taken once.
const HCRingSetup uint64 = 0xE115A004

// Ring geometry limits.
const (
	// DefaultRingDepth is the ring depth RingConfig zero values pick.
	DefaultRingDepth = 64
	// MaxRingDepth caps the negotiable ring depth.
	MaxRingDepth = 4096
)

// RingConfig configures Handle.Ring.
type RingConfig struct {
	// Depth is the ring's slot count (power of two, at most MaxRingDepth;
	// 0 picks DefaultRingDepth). Submission and completion queues have the
	// same depth.
	Depth int
	// Deadline is the adaptive batching window: a Submit whose oldest
	// queued descriptor has been waiting at least this long takes the gate
	// and flushes the whole batch. Zero means flush on every Submit — the
	// degenerate per-op mode, equivalent in cost to Handle.Call. Callers
	// that rely on the manager poller (fleet mode) set a large deadline so
	// the gate is only a latency backstop.
	Deadline simtime.Duration
	// Retry is the caller's answer to CompBusy bounce-backs (zero value:
	// no retries, Poll delivers CompBusy untouched).
	Retry RetryPolicy
}

// ringState is the manager-side half of one attachment's call ring.
type ringState struct {
	// drainMu serialises the single consumer role on the submission queue
	// (gate flush vs. manager poller) and, with it, completion production.
	// It is a host-side lock, never held across guest-visible waits.
	drainMu sync.Mutex

	region *hv.HostRegion // the ring's backing memory
	gpa    mem.GPA        // guest-visible base (default ctx and sub ctx)
	depth  int

	// host is the manager poller's view (charges the manager clock); free
	// is a nil-clock view for stats snapshots, which must not perturb
	// simulated time.
	host *shm.CallRing
	free *shm.CallRing

	// Manager-VM default-context addresses of the attachment's object and
	// exchange buffer, so host-side drains build the same CallContext a
	// gate call would (just with the manager's vCPU doing the work).
	mgrObjGPA  mem.GPA
	mgrExchGPA mem.GPA

	// accounting (atomics: flushed on the guest's goroutine, drained on
	// the poller's, read by stats snapshots).
	flushes atomic.Uint64 // gate flushes that drained >= 1 descriptor
	flushed atomic.Uint64 // descriptors completed by gate flushes
	drains  atomic.Uint64 // poller passes that drained >= 1 descriptor
	drained atomic.Uint64 // descriptors completed by the poller
	failed  atomic.Uint64 // descriptors completed administratively (CompErr on revoke/detach)
	busied  atomic.Uint64 // descriptors bounced back as CompBusy under overload
	retried atomic.Uint64 // guest-side re-submissions after CompBusy

	// dead flips when the attachment's ring is administratively failed
	// (revoke/detach): the guest-side retry loop reads it so an in-backoff
	// caller converts its bounced descriptor to CompErr instead of
	// retrying forever against an attachment that can never serve it.
	dead atomic.Bool

	// batch-size distribution across both drain sides.
	batchMu sync.Mutex
	batch   *stats.Histogram

	// hostCtx is the reusable CallContext for poller-side dispatches of
	// this ring. invokeHost only runs under drainMu, so steady state never
	// allocates a context; hostCtxBusy routes the rare reentrant dispatch
	// (a manager function draining through the same ring) to a heap one.
	hostCtx     CallContext
	hostCtxBusy bool
}

func (rs *ringState) recordBatch(n int) {
	rs.batchMu.Lock()
	rs.batch.Record(int64(n))
	rs.batchMu.Unlock()
}

// batchSnapshot returns an independent copy of the batch-size histogram.
func (rs *ringState) batchSnapshot() *stats.Histogram {
	rs.batchMu.Lock()
	defer rs.batchMu.Unlock()
	return rs.batch.Clone()
}

// hcRingSetup services HCRingSetup: allocate and format the ring, map it
// into the guest's default context and the attachment's sub context at
// the same GPA, and map the attachment's object and exchange into the
// manager VM so host-side drains can service descriptors.
func (m *Manager) hcRingSetup(vm *hv.VM, args [4]uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.fireNegotiate(vm, "ring-setup"); err != nil {
		return 0, err
	}
	gs, ok := m.guests[vm.ID()]
	if !ok {
		return 0, fmt.Errorf("core: guest %q has no ELISA state", vm.Name())
	}
	vslot := int(args[0])
	a := gs.vslots[vslot]
	if a == nil || a.revoked {
		return 0, fmt.Errorf("core: guest %q has no live attachment at virtual slot %d", vm.Name(), vslot)
	}
	if a.ring != nil {
		if int(args[1]) != 0 && int(args[1]) != a.ring.depth {
			return 0, fmt.Errorf("core: attachment %q/%q already has a ring of depth %d",
				vm.Name(), a.obj.name, a.ring.depth)
		}
		return uint64(a.ring.gpa), nil
	}
	depth := int(args[1])
	if depth == 0 {
		depth = DefaultRingDepth
	}
	if depth < 0 || depth&(depth-1) != 0 || depth > MaxRingDepth {
		return 0, fmt.Errorf("core: ring depth %d must be a power of two at most %d", depth, MaxRingDepth)
	}

	region, err := m.hv.AllocHostRegion(shm.CallRingBytes(depth))
	if err != nil {
		return 0, err
	}
	gpa := vm.AllocRegionGPA(region.Pages())
	if err := region.MapIntoTable(vm.DefaultEPT(), gpa, ept.PermRW); err != nil {
		return 0, err
	}
	if err := region.MapIntoTable(a.subCtx, gpa, ept.PermRW); err != nil {
		return 0, err
	}

	// Format through a manager-clock window: building the ring is
	// manager-side work, like the rest of negotiation.
	mclk := m.vm.VCPU().Clock()
	hw, err := shm.NewHostWindow(region, mclk)
	if err != nil {
		return 0, err
	}
	host, err := shm.InitCallRing(hw, depth)
	if err != nil {
		return 0, err
	}
	fw, err := shm.NewHostWindow(region, nil)
	if err != nil {
		return 0, err
	}
	free, err := shm.OpenCallRing(fw)
	if err != nil {
		return 0, err
	}

	// Host-side drains need the object and exchange in the manager VM's
	// own address space. The object mapping is shared across all rings on
	// the object; the exchange is per-attachment.
	mgrObjGPA, err := m.mgrObjectGPALocked(a.obj)
	if err != nil {
		return 0, err
	}
	mgrExchGPA, err := a.exchange.MapIntoDefault(m.vm, ept.PermRW)
	if err != nil {
		return 0, err
	}

	a.ring = &ringState{
		region:     region,
		gpa:        gpa,
		depth:      depth,
		host:       host,
		free:       free,
		mgrObjGPA:  mgrObjGPA,
		mgrExchGPA: mgrExchGPA,
		batch:      stats.NewHistogram(),
	}
	m.hv.Trace().Emit(vm.VCPU().Clock().Now(), vm.Name(), trace.KindRing,
		"object %q vslot %d depth %d gpa %#x", a.obj.name, vslot, depth, uint64(gpa))
	// Manager-side construction work: proportional to ring pages mapped
	// into three contexts.
	m.vm.VCPU().Charge(simtime.Duration(3*region.Pages()) * m.hv.Cost().MemAccess)
	return uint64(gpa), nil
}

// mgrObjectGPALocked returns (mapping on first use) the object's address
// in the manager VM's default context. Callers hold m.mu.
func (m *Manager) mgrObjectGPALocked(o *Object) (mem.GPA, error) {
	if o.mgrMapped {
		return o.mgrGPA, nil
	}
	gpa, err := o.region.MapIntoDefault(m.vm, ept.PermRW)
	if err != nil {
		return 0, err
	}
	o.mgrGPA = gpa
	o.mgrMapped = true
	return gpa, nil
}

// RingCaller drives one attachment's call ring from the guest side. It is
// bound to the guest's vCPU and is not safe for concurrent use (one
// producer, like the vCPU it models).
type RingCaller struct {
	h    *Handle
	cfg  RingConfig
	ring *shm.CallRing // guest-side view through the active EPT context
	rs   *ringState
	gpa  mem.GPA

	pending      int          // descriptors we believe are queued (the poller may have fewer)
	inFlight     int          // submitted minus polled completions
	firstPending simtime.Time // guest-clock stamp of the oldest unflushed submit

	// Causal trace IDs: every descriptor is stamped at Submit with
	// traceBase | seq, so the flight recorder can link its whole
	// submit→flush/drain→complete→deliver chain (retries keep the ID).
	// The base encodes (vm, vslot) and the sequence is per-caller, so
	// IDs are deterministic for a given seed and never zero (zero means
	// untraced on the wire).
	traceBase uint64
	traceSeq  uint64

	// Retry state (only maintained when cfg.Retry is enabled): retryQ
	// mirrors the descriptors in flight in completion order, so a
	// CompBusy popped by Poll can be matched back to its descriptor and
	// re-submitted; retryRNG is the seeded jitter source.
	retryQ   []retryEntry
	retryRNG *rand.Rand
}

// retryEntry pairs an in-flight descriptor with its busy-retry count.
type retryEntry struct {
	d     shm.Desc
	tries int
}

// Ring negotiates (or reopens) the attachment's call ring and returns a
// caller configured with cfg. Runs as guest code on v; the negotiation
// hypercall is a slow path taken once, after which Submit and Poll are
// exit-less.
func (h *Handle) Ring(v *cpu.VCPU, cfg RingConfig) (*RingCaller, error) {
	if v != h.g.vm.VCPU() {
		return nil, fmt.Errorf("core: Ring on foreign vCPU")
	}
	if h.detached {
		return nil, fmt.Errorf("core: Ring on detached handle %q", h.objName)
	}
	if cfg.Depth == 0 {
		cfg.Depth = DefaultRingDepth
	}
	if cfg.Depth < 0 || cfg.Depth&(cfg.Depth-1) != 0 || cfg.Depth > MaxRingDepth {
		return nil, fmt.Errorf("core: ring depth %d must be a power of two at most %d", cfg.Depth, MaxRingDepth)
	}
	var gpaU uint64
	var err error
	for attempt := 0; ; attempt++ {
		gpaU, err = v.VMCall(HCRingSetup, uint64(h.subIdx), uint64(cfg.Depth))
		if err == nil {
			break
		}
		if !fault.IsTransient(err) || attempt >= fault.MaxRetries {
			return nil, fmt.Errorf("core: ring setup on %q vslot %d: %w", h.objName, h.subIdx, err)
		}
		v.Charge(fault.Backoff(attempt))
		h.g.mgr.noteRetry()
	}
	w, err := shm.NewGPAWindow(v, mem.GPA(gpaU), shm.CallRingBytes(cfg.Depth))
	if err != nil {
		return nil, err
	}
	ring, err := shm.OpenCallRing(w)
	if err != nil {
		return nil, err
	}
	rs := h.g.mgr.ringStateFor(h.g.vm.ID(), h.subIdx)
	if rs == nil {
		return nil, fmt.Errorf("core: ring setup on %q vslot %d: manager lost the ring", h.objName, h.subIdx)
	}
	rc := &RingCaller{h: h, cfg: cfg, ring: ring, rs: rs, gpa: mem.GPA(gpaU),
		traceBase: uint64(h.g.vm.ID()+1)<<48 | uint64(h.subIdx+1)<<32}
	if cfg.Retry.enabled() {
		seed := cfg.Retry.Seed
		if seed == 0 {
			seed = 1
		}
		rc.retryRNG = rand.New(rand.NewSource(seed))
	}
	return rc, nil
}

// ringStateFor returns the manager-side ring of a live attachment.
func (m *Manager) ringStateFor(vmID, vslot int) *ringState {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.guests[vmID]
	if !ok {
		return nil
	}
	a := gs.vslots[vslot]
	if a == nil || a.revoked {
		return nil
	}
	return a.ring
}

// Depth returns the ring's slot count.
func (rc *RingCaller) Depth() int { return rc.cfg.Depth }

// GPA returns the ring's guest-physical base address.
func (rc *RingCaller) GPA() mem.GPA { return rc.gpa }

// Pending returns how many submitted operations have not yet been polled
// as completions (queued plus drained-but-unpolled).
func (rc *RingCaller) Pending() int { return rc.inFlight }

// Submit enqueues one operation on the ring — a handful of exit-less
// memory writes in the guest's default context, no gate, no exit. The
// adaptive policy then decides whether to take the gate now:
//
//   - the queue transitioned empty -> non-empty: ring the in-memory
//     doorbell (a counter the manager poller reads; nothing traps) and
//     start the batch-deadline clock;
//   - Deadline is zero: flush immediately (per-op mode);
//   - the oldest queued descriptor has waited past Deadline: flush, so
//     batching can never add more than Deadline to an op's latency;
//   - the queue is full: flush to make room.
//
// Results arrive in submission order via Poll.
func (rc *RingCaller) Submit(v *cpu.VCPU, fnID uint64, args ...uint64) error {
	if len(args) > 4 {
		return fmt.Errorf("core: Submit takes at most 4 args, got %d", len(args))
	}
	var d shm.Desc
	d.Fn = fnID
	copy(d.Args[:], args)
	_, err := rc.SubmitDesc(v, d)
	return err
}

// SubmitDesc enqueues one pre-built descriptor with the same adaptive
// flush policy as Submit. A zero d.Trace mints this caller's own causal
// trace ID; a non-zero one is preserved verbatim — that is how the
// RingMux keeps one causal chain across a re-route: the descriptor it
// re-submits on a replacement ring carries the trace it was born with.
// Returns the trace the descriptor went out under.
func (rc *RingCaller) SubmitDesc(v *cpu.VCPU, d shm.Desc) (uint64, error) {
	if v != rc.h.g.vm.VCPU() {
		return 0, fmt.Errorf("core: Submit on foreign vCPU")
	}
	if d.Trace == 0 {
		rc.traceSeq++
		d.Trace = rc.traceBase | rc.traceSeq&0xffffffff
	}
	ok, err := rc.ring.PushDesc(d)
	if err != nil {
		return 0, err
	}
	if !ok {
		// Queue full (the poller has not kept up): flush the backlog
		// through the gate, then retry the push on the now-empty queue.
		if err := rc.Flush(v); err != nil {
			return 0, err
		}
		if ok, err = rc.ring.PushDesc(d); err != nil {
			return 0, err
		} else if !ok {
			return 0, fmt.Errorf("core: ring %q/%q still full after flush", rc.h.g.vm.Name(), rc.h.objName)
		}
	}
	if rec := rc.h.g.mgr.rec; rec != nil {
		rec.Causal().Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvSubmit, Time: v.Clock().Now(),
			Guest: rc.h.g.vm.Name(), Object: rc.h.objName, Fn: d.Fn})
	}
	if rc.pending == 0 {
		// Empty -> non-empty: doorbell for the poller, deadline clock for
		// the flush policy.
		if err := rc.ring.Kick(); err != nil {
			return 0, err
		}
		rc.firstPending = v.Clock().Now()
	}
	rc.pending++
	rc.inFlight++
	if rc.cfg.Retry.enabled() {
		rc.retryQ = append(rc.retryQ, retryEntry{d: d})
	}
	if rc.cfg.Deadline == 0 {
		return d.Trace, rc.Flush(v)
	}
	now := v.Clock().Now()
	deadlineHit := now.Sub(rc.firstPending) >= rc.cfg.Deadline
	depthHit := rc.pending >= rc.cfg.Depth
	if !deadlineHit && !depthHit {
		return d.Trace, nil
	}
	// Before paying a 196 ns crossing, reconcile with the real queue: the
	// manager poller may have drained behind our back, leaving rc.pending
	// and rc.firstPending stale. One exit-less cursor read settles it.
	queued, err := rc.ring.ProducerPending()
	if err != nil {
		return d.Trace, err
	}
	rc.pending = queued
	if queued >= rc.cfg.Depth {
		return d.Trace, rc.Flush(v) // genuinely full: flush regardless of deadline
	}
	if queued <= 1 {
		// The poller won the race: everything older than this submit is
		// already drained, so the stale deadline stamp must not trigger a
		// spurious one-descriptor flush. Restart the batching window at
		// this — now oldest — descriptor.
		rc.firstPending = now
		return d.Trace, nil
	}
	if deadlineHit {
		return d.Trace, rc.Flush(v)
	}
	return d.Trace, nil
}

// Flush takes one gate crossing and services every queued descriptor
// back-to-back in the sub context — the batching path: N descriptors
// share one 196 ns crossing. Descriptors the manager poller drained in
// the meantime are simply no longer queued; a flush that finds the queue
// empty takes no crossing at all. Completion statuses land on the
// completion queue for Poll; Flush itself fails only on protocol errors
// (foreign vCPU, refused gate, fatal fault).
func (rc *RingCaller) Flush(v *cpu.VCPU) error {
	if v != rc.h.g.vm.VCPU() {
		return fmt.Errorf("core: Flush on foreign vCPU")
	}
	h := rc.h
	mgr := h.g.mgr
	cost := v.Cost()

	// Peek from the default context: an empty queue (the poller won) means
	// no crossing. The read is exit-less shared-memory traffic.
	queued, err := rc.ring.ProducerPending()
	if err != nil {
		return err
	}
	if queued == 0 {
		rc.pending = 0
		return nil
	}

	rec := mgr.rec
	var t0, tGate, tSub, tFn simtime.Time
	var exchp *simtime.Duration
	if rec != nil {
		t0 = v.Clock().Now()
		h.exch = 0
		exchp = &h.exch
	}

	phys, err := h.ensureBacked(v)
	if err != nil {
		return err
	}

	// Inbound crossing (identical to Call/CallMulti).
	if err := v.FetchExec(h.gateGVA); err != nil {
		return err
	}
	v.Charge(cost.GateCode)
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxGate); err != nil {
		return err
	}
	if rec != nil {
		tGate = v.Clock().Now()
	}
	if err := v.FetchExec(h.gateGVA); err != nil {
		return err
	}
	if !mgr.gateAllowsBinding(h.g.vm.ID(), h.subIdx, phys) {
		if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxDefault); err != nil {
			return err
		}
		if rec != nil {
			now := v.Clock().Now()
			h.recordSpan(rec, 0, queued, true, t0, tGate, now, now, now, 0)
		}
		return fmt.Errorf("core: gate refused slot %d for guest %q", h.subIdx, h.g.vm.Name())
	}
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, phys); err != nil {
		return err
	}
	if rec != nil {
		tSub = v.Clock().Now()
	}

	if inj := mgr.inj; inj != nil {
		if in := inj.Fire(fault.PointGateEntry, h.g.vm.Name(), v.Clock().Now()); in != nil {
			mgr.crashMidGate(h.g.vm, in)
			return fmt.Errorf("core: guest %q died in sub context: %w", h.g.vm.Name(), fault.ErrInjected)
		}
	}

	// Drain inside the sub context: the ring is mapped here at the same
	// GPA, so the same window works. drainMu makes us the sole submission
	// consumer while we run (the poller waits); the lock cost models the
	// manager-side spinlock the real implementation would take.
	rs := rc.rs
	rs.drainMu.Lock()
	v.Charge(cost.LockAcquire)
	var firstFn uint64
	var n int
	var drainErr error
	if rec != nil {
		// Batch-granularity pprof label: the whole drain session is
		// "service" in wall-clock profiles, matching the sim-time phase.
		obs.WithPhase(obs.RingPhaseService.String(), func() {
			firstFn, n, drainErr = rc.flushDrain(v, rec, tSub, exchp)
		})
	} else {
		// Direct call, no closure: the recorder-off path is the one the
		// zero-alloc pins measure.
		firstFn, n, drainErr = rc.flushDrain(v, nil, tSub, exchp)
	}
	v.Charge(cost.LockRelease)
	rs.drainMu.Unlock()
	if drainErr != nil {
		return drainErr
	}
	if n > 0 {
		rs.flushes.Add(1)
		rs.flushed.Add(uint64(n))
		rs.recordBatch(n)
	}
	if rec != nil {
		tFn = v.Clock().Now()
	}

	// Outbound crossing.
	if err := v.FetchExec(h.gateGVA); err != nil {
		return err
	}
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxGate); err != nil {
		return err
	}
	if err := v.FetchExec(h.gateGVA); err != nil {
		return err
	}
	v.Charge(cost.GateCode)
	if err := v.VMFunc(cpu.VMFuncLeafEPTPSwitch, IdxDefault); err != nil {
		return err
	}
	if err := v.FetchExec(h.gateGVA); err != nil {
		return err
	}
	mgr.noteGateExit(h.g.vm.ID())
	if rec != nil {
		h.recordSpan(rec, firstFn, n, false, t0, tGate, tSub, tFn, v.Clock().Now(), h.exch)
	}
	rc.pending = 0
	return nil
}

// flushDrain is Flush's in-sub-context drain session, a named method so
// the recorder-off fast path calls it directly instead of through a
// closure that would escape per flush. One cursor snapshot covers the
// whole batch; per-descriptor work touches only record bytes. An early
// return on vCPU death abandons the transaction unpublished — the batch
// stays queued for the administrative failure path (transactional
// crashes). Callers hold rs.drainMu.
func (rc *RingCaller) flushDrain(v *cpu.VCPU, rec *obs.Recorder, tSub simtime.Time, exchp *simtime.Duration) (firstFn uint64, n int, err error) {
	h := rc.h
	mgr := h.g.mgr
	txn, err := rc.ring.BeginDrain()
	if err != nil {
		return 0, 0, err
	}
	// Completion-queue backpressure: never pop a descriptor whose
	// completion cannot be delivered.
	for txn.CQFree() > 0 {
		d, ok, perr := txn.PopDesc()
		if perr != nil {
			return firstFn, n, perr
		}
		if !ok {
			break
		}
		if n == 0 {
			firstFn = d.Fn
		}
		var reqStart simtime.Time
		if rec != nil {
			reqStart = v.Clock().Now()
			clog := rec.Causal()
			clog.Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvFlush, Time: tSub,
				Guest: h.g.vm.Name(), Object: h.objName, Fn: d.Fn})
			clog.Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvDrain, Time: reqStart,
				Guest: h.g.vm.Name(), Object: h.objName, Fn: d.Fn, Note: "gate-flush"})
		}
		ret, ferr := mgr.invoke(v, h, d.Fn, d.Args, exchp)
		if v.Dead() {
			return firstFn, n, ferr
		}
		comp := shm.Comp{Ret: ret, Status: shm.CompOK, Trace: d.Trace}
		if ferr != nil {
			comp.Status = shm.CompErr
		}
		if ok, perr := txn.PushComp(comp); perr != nil {
			return firstFn, n, perr
		} else if !ok {
			return firstFn, n, fmt.Errorf("core: ring %q/%q completion queue overflow", h.g.vm.Name(), h.objName)
		}
		if rec != nil {
			rec.RecordLatency(h.g.vm.Name(), h.objName, d.Fn, v.Clock().Elapsed(reqStart))
			note := ""
			if ferr != nil {
				note = "err"
			}
			rec.Causal().Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvComplete, Time: v.Clock().Now(),
				Guest: h.g.vm.Name(), Object: h.objName, Fn: d.Fn, Note: note})
		}
		n++
	}
	return firstFn, n, txn.Close()
}

// Poll pops up to len(out) completions from the guest's default context —
// exit-less shared-memory reads, no gate. It returns how many completions
// were delivered (possibly zero: nothing has been drained yet).
//
// With a retry policy configured, CompBusy completions are intercepted
// instead of delivered: the bounced descriptor is re-submitted after a
// jittered exponential backoff charged to the guest's clock, up to
// MaxAttempts times. A descriptor still busy after the last attempt is
// delivered as CompBusy; a descriptor bounced by a ring whose attachment
// has since been revoked or detached is delivered as CompErr (there is
// nothing left to retry against).
func (rc *RingCaller) Poll(v *cpu.VCPU, out []shm.Comp) (int, error) {
	if v != rc.h.g.vm.VCPU() {
		return 0, fmt.Errorf("core: Poll on foreign vCPU")
	}
	if rc.rs.dead.Load() {
		// The attachment died (revoke, detach, MoveObject). failRing
		// stops administratively failing descriptors when the completion
		// queue fills; every Poll frees completion slots, so sweep the
		// residue now — a dead ring never strands a descriptor.
		rc.sweepDeadRing()
	}
	retrying := rc.cfg.Retry.enabled()
	rec := rc.h.g.mgr.rec
	n := 0
	for n < len(out) {
		c, ok, err := rc.ring.PopComp()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		if retrying && len(rc.retryQ) > 0 {
			// Completions arrive in submission order, so the queue head is
			// this completion's descriptor.
			ent := rc.retryQ[0]
			rc.retryQ = rc.retryQ[1:]
			if c.Status == shm.CompBusy {
				c2, swallowed, err := rc.retryBusy(v, ent)
				if err != nil {
					return n, err
				}
				if swallowed {
					continue // re-submitted; its completion comes later
				}
				c = c2
			}
		}
		if rec != nil && c.Trace != 0 {
			note := ""
			switch c.Status {
			case shm.CompErr:
				note = "err"
			case shm.CompBusy:
				note = "busy"
			}
			rec.Causal().Event(obs.RingEvent{Trace: c.Trace, Kind: obs.EvDeliver, Time: v.Clock().Now(),
				Guest: rc.h.g.vm.Name(), Object: rc.h.objName, Note: note})
		}
		out[n] = c
		n++
		if rc.inFlight > 0 {
			rc.inFlight--
		}
	}
	return n, nil
}

// retryBusy handles one CompBusy completion under the retry policy:
// back off on the guest clock and re-submit, unless the attachment is
// dead (deliver CompErr) or the attempt budget is spent or the ring is
// still full (deliver CompBusy). The returned bool reports whether the
// completion was swallowed by a successful re-submission.
func (rc *RingCaller) retryBusy(v *cpu.VCPU, ent retryEntry) (shm.Comp, bool, error) {
	if rc.rs.dead.Load() {
		return shm.Comp{Status: shm.CompErr, Trace: ent.d.Trace}, false, nil
	}
	if ent.tries >= rc.cfg.Retry.MaxAttempts {
		return shm.Comp{Status: shm.CompBusy, Trace: ent.d.Trace}, false, nil
	}
	rec := rc.h.g.mgr.rec
	backoff := overload.Backoff(rc.retryRNG, rc.cfg.Retry.BaseBackoff, rc.cfg.Retry.MaxBackoff, ent.tries)
	v.Charge(backoff)
	if rec != nil {
		rec.Causal().Event(obs.RingEvent{Trace: ent.d.Trace, Kind: obs.EvBackoff, Time: v.Clock().Now(),
			Guest: rc.h.g.vm.Name(), Object: rc.h.objName, Fn: ent.d.Fn, Dur: backoff})
	}
	ok, err := rc.ring.PushDesc(ent.d)
	if err != nil {
		return shm.Comp{}, false, err
	}
	if !ok {
		// Still full even after backing off: give the caller the bounce.
		return shm.Comp{Status: shm.CompBusy, Trace: ent.d.Trace}, false, nil
	}
	if rc.pending == 0 {
		if err := rc.ring.Kick(); err != nil {
			return shm.Comp{}, false, err
		}
		rc.firstPending = v.Clock().Now()
	}
	rc.pending++
	ent.tries++
	rc.retryQ = append(rc.retryQ, ent)
	rc.rs.retried.Add(1)
	if rec != nil {
		rec.Causal().Event(obs.RingEvent{Trace: ent.d.Trace, Kind: obs.EvRetry, Time: v.Clock().Now(),
			Guest: rc.h.g.vm.Name(), Object: rc.h.objName, Fn: ent.d.Fn,
			Note: fmt.Sprintf("attempt %d/%d", ent.tries, rc.cfg.Retry.MaxAttempts)})
	}
	return shm.Comp{}, true, nil
}

// drainTarget is one live ring a DrainRings pass will service, and
// drainGroup is one guest's rings plus its weighted-fair poll weight.
// A group names its targets as a [start, end) range into the pass's
// shared target list (see Manager.drainTargets) rather than holding its
// own slice, so snapshotting a pass reuses one flat buffer instead of
// allocating per guest.
type drainTarget struct {
	a  *Attachment
	rs *ringState
}
type drainGroup struct {
	weight     int
	start, end int
}

// DrainRings is the manager-side poller: walk every live ring in
// deterministic order and service queued descriptors on the manager VM's
// own vCPU (its clock pays for the work, as host-side manager code). At
// most budget descriptors are serviced per call (budget <= 0 means no
// bound); the fleet scheduler interleaves bounded passes with tenant
// quanta so polling cannot starve the cores.
//
// A positive budget is split weighted-fair across guests (see
// SetPollWeight) so one tenant's deep rings cannot monopolise the pass:
// each guest is first offered its proportional share (at least one
// descriptor), then leftover budget is redistributed work-conservingly,
// starting from a cursor that rotates across passes. With overload
// control armed (SetOverload), a ring whose queue is still deep after
// its share is trimmed by CompBusy bounce-backs instead of being left to
// grow stale.
//
// DrainRings serialises on an internal lock, and the drained work charges
// the manager vCPU's clock — callers must not race it against other
// manager-clock work (negotiations) from concurrent goroutines if they
// need deterministic timings.
func (m *Manager) DrainRings(budget int) (int, error) {
	m.pollMu.Lock()
	defer m.pollMu.Unlock()

	// Snapshot the live rings in (VM id, vslot) order, grouped by guest.
	// The snapshot slices are pollMu-guarded scratch reused across passes:
	// the poller runs on every scheduler tick, and rebuilding its worklist
	// from fresh slices dominated the ring kernels' allocation profile.
	m.mu.Lock()
	ids := m.drainIDs[:0]
	for id := range m.guests {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	targets := m.drainTargets[:0]
	groups := m.drainGroups[:0]
	for _, id := range ids {
		gs := m.guests[id]
		vslots := m.drainVslots[:0]
		for vs := range gs.vslots {
			vslots = append(vslots, vs)
		}
		sort.Ints(vslots)
		groupStart := len(targets)
		for _, vs := range vslots {
			a := gs.vslots[vs]
			if a != nil && !a.revoked && a.ring != nil {
				targets = append(targets, drainTarget{a, a.ring})
			}
		}
		m.drainVslots = vslots[:0]
		if len(targets) > groupStart {
			w := gs.pollWeight
			if w <= 0 {
				w = 1
			}
			groups = append(groups, drainGroup{weight: w, start: groupStart, end: len(targets)})
		}
	}
	m.drainIDs, m.drainTargets, m.drainGroups = ids, targets, groups
	m.mu.Unlock()
	if len(groups) == 0 {
		return 0, nil
	}

	// Unbounded pass: service everything, in order — no shares to split.
	if budget <= 0 {
		total := 0
		for _, g := range groups {
			for _, t := range targets[g.start:g.end] {
				n, err := m.drainRing(t.a, t.rs, -1)
				total += n
				if err != nil {
					return total, err
				}
			}
		}
		return total, nil
	}

	sumW := 0
	for _, g := range groups {
		sumW += g.weight
	}
	start := m.drainCursor % len(groups)
	m.drainCursor++

	total := 0
	// Pass 1: proportional shares, clamped to the remaining budget.
	for i := 0; i < len(groups) && total < budget; i++ {
		g := groups[(start+i)%len(groups)]
		share := budget * g.weight / sumW
		if share < 1 {
			share = 1
		}
		if share > budget-total {
			share = budget - total
		}
		n, err := m.drainRingGroup(targets[g.start:g.end], share)
		total += n
		if err != nil {
			return total, err
		}
	}
	// Pass 2: hand leftover budget to whoever still has queued work, so
	// weighted fairness never idles the poller (work conservation).
	for i := 0; i < len(groups) && total < budget; i++ {
		g := groups[(start+i)%len(groups)]
		n, err := m.drainRingGroup(targets[g.start:g.end], budget-total)
		total += n
		if err != nil {
			return total, err
		}
	}
	// Overload: a budget-exhausted pass means queues are outrunning drain
	// capacity — trim each still-deep ring by bouncing the excess back as
	// CompBusy, so guests see backpressure now instead of unbounded queue
	// delay later.
	if m.ov.Enabled && total >= budget {
		for i := 0; i < len(groups); i++ {
			g := groups[(start+i)%len(groups)]
			for _, t := range targets[g.start:g.end] {
				if err := m.trimRing(t.a, t.rs); err != nil {
					return total, err
				}
			}
		}
	}
	return total, nil
}

// trimRing bounces a saturated ring's excess descriptors back as
// CompBusy, down to the armed BusyFrac occupancy. Host-side manager code
// under pollMu: the completion writes charge the manager clock; the
// bounced work never runs.
func (m *Manager) trimRing(a *Attachment, rs *ringState) error {
	allowed := int(m.ov.BusyFrac * float64(rs.depth))
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	clk := m.vm.VCPU().Clock()
	cost := m.hv.Cost()
	clk.Advance(cost.LockAcquire)
	defer clk.Advance(cost.LockRelease)
	txn, err := rs.host.BeginDrain()
	if err != nil {
		return err
	}
	n := 0
	for txn.Pending() > allowed && txn.CQFree() > 0 {
		d, ok, err := txn.PopDesc()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if ok, err := txn.PushComp(shm.Comp{Status: shm.CompBusy, Trace: d.Trace}); err != nil {
			return err
		} else if !ok {
			break
		}
		if m.rec != nil {
			m.rec.Causal().Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvBusy, Time: clk.Now(),
				Guest: a.guest.Name(), Object: a.obj.name, Fn: d.Fn, Note: "overload-trim"})
		}
		n++
	}
	if err := txn.Close(); err != nil {
		return err
	}
	if n > 0 {
		rs.busied.Add(uint64(n))
	}
	return nil
}

// drainRingGroup services up to limit descriptors across one guest's
// rings (its slice of the pass's target list), in vslot order. Callers
// hold pollMu.
func (m *Manager) drainRingGroup(targets []drainTarget, limit int) (int, error) {
	total := 0
	for _, t := range targets {
		if total >= limit {
			break
		}
		n, err := m.drainRing(t.a, t.rs, limit-total)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// drainRing services up to limit descriptors of one ring (limit < 0: all
// queued) as host-side manager code. Callers hold pollMu.
func (m *Manager) drainRing(a *Attachment, rs *ringState, limit int) (int, error) {
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	clk := m.vm.VCPU().Clock()
	cost := m.hv.Cost()
	clk.Advance(cost.LockAcquire)
	defer clk.Advance(cost.LockRelease)
	txn, err := rs.host.BeginDrain()
	if err != nil {
		return 0, err
	}
	var n int
	var bodyErr error
	if m.rec != nil {
		// Batch-granularity pprof label, matching the gate-flush side.
		obs.WithPhase(obs.RingPhaseService.String(), func() { n, bodyErr = m.drainRingBody(a, rs, txn, limit) })
	} else {
		// Direct call, no closure: the recorder-off path is the one the
		// zero-alloc pins measure.
		n, bodyErr = m.drainRingBody(a, rs, txn, limit)
	}
	if bodyErr != nil {
		return n, bodyErr
	}
	if err := txn.Close(); err != nil {
		return n, err
	}
	if n > 0 {
		rs.drains.Add(1)
		rs.drained.Add(uint64(n))
		rs.recordBatch(n)
	}
	return n, nil
}

// drainRingBody services up to limit descriptors (limit < 0: all queued)
// within an open drain transaction — drainRing's loop, a named method so
// the recorder-off fast path avoids an escaping closure. Callers hold
// pollMu and rs.drainMu.
func (m *Manager) drainRingBody(a *Attachment, rs *ringState, txn *shm.DrainTxn, limit int) (int, error) {
	clk := m.vm.VCPU().Clock()
	n := 0
	for limit < 0 || n < limit {
		if txn.CQFree() <= 0 {
			break // completion backpressure: wait for the guest to poll
		}
		d, ok, err := txn.PopDesc()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		if m.rec != nil {
			m.rec.Causal().Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvDrain, Time: clk.Now(),
				Guest: a.guest.Name(), Object: a.obj.name, Fn: d.Fn, Note: "poller"})
		}
		ret, ferr := m.invokeHost(a, rs, d.Fn, d.Args)
		comp := shm.Comp{Ret: ret, Status: shm.CompOK, Trace: d.Trace}
		if ferr != nil {
			comp.Status = shm.CompErr
		}
		if ok, err := txn.PushComp(comp); err != nil {
			return n, err
		} else if !ok {
			return n, fmt.Errorf("core: ring %q/%q completion queue overflow", a.guest.Name(), a.obj.name)
		}
		if m.rec != nil {
			note := ""
			if ferr != nil {
				note = "err"
			}
			m.rec.Causal().Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvComplete, Time: clk.Now(),
				Guest: a.guest.Name(), Object: a.obj.name, Fn: d.Fn, Note: note})
		}
		n++
	}
	return n, nil
}

// invokeHost dispatches one ring descriptor as host-side manager code:
// same function table and CallContext shape as a gate call, but the vCPU
// is the manager VM's own and the object/exchange windows are its
// default-context mappings. The manager lock is held only for the
// dispatch lookups.
func (m *Manager) invokeHost(a *Attachment, rs *ringState, fnID uint64, args [4]uint64) (uint64, error) {
	m.mu.Lock()
	if a.revoked {
		m.mu.Unlock()
		err := fmt.Errorf("core: attachment %q/%q revoked", a.guest.Name(), a.obj.name)
		a.recordCall(err)
		return 0, err
	}
	fn, ok := m.funcs[fnID]
	ctx := &rs.hostCtx
	if rs.hostCtxBusy {
		ctx = new(CallContext)
	}
	*ctx = CallContext{
		VCPU:         m.vm.VCPU(),
		Object:       rs.mgrObjGPA,
		ObjectSize:   a.obj.size,
		Exchange:     rs.mgrExchGPA,
		ExchangeSize: a.exchange.Size(),
		GuestID:      a.guest.ID(),
		Args:         args,
	}
	m.mu.Unlock()
	if !ok {
		err := fmt.Errorf("core: unknown manager function %d", fnID)
		a.recordCall(err)
		return 0, err
	}
	scratch := ctx == &rs.hostCtx
	if scratch {
		rs.hostCtxBusy = true
	}
	ret, err := fn(ctx)
	if scratch {
		rs.hostCtxBusy = false
	}
	a.recordCall(err)
	return ret, err
}

// failRing administratively completes every queued descriptor of a dying
// attachment with CompErr, so a revoked or detached ring never strands
// submissions: the guest's next Poll sees a failed completion for each.
// MUST be called WITHOUT m.mu held (lock order: pollMu > drainMu > m.mu).
func (m *Manager) failRing(a *Attachment, rs *ringState) {
	if rs == nil {
		return
	}
	rs.dead.Store(true) // stop guest-side busy retries before failing the queue
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	_, _ = rs.host.FailPending(shm.CompErr, func(d shm.Desc) {
		if m.rec != nil {
			m.rec.Causal().Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvFail,
				Time: m.vm.VCPU().Clock().Now(), Guest: a.guest.Name(), Object: a.obj.name,
				Fn: d.Fn, Note: "ring-failed"})
		}
		rs.failed.Add(1)
	})
}

// sweepDeadRing finishes failRing's job from the guest side: once the
// guest has polled completions away, administratively complete whatever
// descriptors are still queued on this dead ring with CompErr. The sweep
// runs through the nil-clock ring view — failing an already-dead ring is
// cleanup, and cleanup (like observation) charges no simulated time.
// Lock order: pollMu > drainMu, taken with neither held (Poll holds no
// locks).
func (rc *RingCaller) sweepDeadRing() {
	m := rc.h.g.mgr
	rs := rc.rs
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	rs.drainMu.Lock()
	defer rs.drainMu.Unlock()
	_, _ = rs.free.FailPending(shm.CompErr, func(d shm.Desc) {
		if m.rec != nil {
			m.rec.Causal().Event(obs.RingEvent{Trace: d.Trace, Kind: obs.EvFail,
				Time: rc.h.g.vm.VCPU().Clock().Now(), Guest: rc.h.g.vm.Name(), Object: rc.h.objName,
				Fn: d.Fn, Note: "ring-failed-sweep"})
		}
		rs.failed.Add(1)
	})
}

// releaseRings frees ring backing memory post-mortem. It takes pollMu so
// a concurrent DrainRings pass can never touch freed frames. MUST be
// called WITHOUT m.mu held.
func (m *Manager) releaseRings(regions []*hv.HostRegion) error {
	if len(regions) == 0 {
		return nil
	}
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	for _, r := range regions {
		if err := r.Free(); err != nil {
			return err
		}
	}
	return nil
}

// detachRingLocked unhooks an attachment's ring for post-mortem release
// and returns its backing region. Callers hold m.mu; the returned region
// must be handed to releaseRings after m.mu is dropped.
func detachRingLocked(a *Attachment) *hv.HostRegion {
	if a.ring == nil {
		return nil
	}
	a.ring.dead.Store(true)
	region := a.ring.region
	a.ring = nil
	return region
}

// RingStats is one ring's accounting snapshot (see Manager.RingStats).
type RingStats struct {
	// Guest and Object name the attachment the ring belongs to.
	Guest  string
	Object string
	// VSlot is the attachment's virtual slot ID.
	VSlot int
	// Depth is the ring's slot count.
	Depth int
	// Queued is the current submission-queue occupancy.
	Queued int
	// Ready is the current completion-queue occupancy (drained, unpolled).
	Ready int
	// Submitted and Completed are lifetime descriptor counts.
	Submitted uint64
	Completed uint64
	// Kicks counts empty->non-empty doorbell rings.
	Kicks uint64
	// Flushes and Flushed count gate-path drains and the descriptors they
	// serviced; Drains and Drained are the manager poller's counterparts.
	Flushes uint64
	Flushed uint64
	Drains  uint64
	Drained uint64
	// Failed counts descriptors completed administratively (CompErr) when
	// the attachment was revoked or detached with work still queued.
	Failed uint64
	// Busied counts descriptors bounced back as CompBusy by overload
	// control; Retried counts the guest-side re-submissions those bounces
	// triggered under a RetryPolicy.
	Busied  uint64
	Retried uint64
	// BatchP50 and BatchP99 are percentiles of the batch-size
	// distribution across both drain sides.
	BatchP50 int64
	BatchP99 int64
}

// RingStats snapshots every ring's accounting, including rings of revoked
// attachments not yet cleaned up, in (guest, vslot) order. Snapshot reads
// go through a nil-clock window: observation never charges simulated
// time.
func (m *Manager) RingStats() []RingStats {
	type target struct {
		guest  string
		object string
		vslot  int
		rs     *ringState
	}
	m.mu.Lock()
	ids := make([]int, 0, len(m.guests))
	for id := range m.guests {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var targets []target
	for _, id := range ids {
		gs := m.guests[id]
		vslots := make([]int, 0, len(gs.vslots))
		for vs := range gs.vslots {
			vslots = append(vslots, vs)
		}
		sort.Ints(vslots)
		for _, vs := range vslots {
			a := gs.vslots[vs]
			if a != nil && a.ring != nil {
				targets = append(targets, target{gs.vm.Name(), a.obj.name, vs, a.ring})
			}
		}
	}
	m.mu.Unlock()

	// pollMu excludes post-mortem ring release while the snapshot reads
	// ring memory (observation still charges nothing: the window's clock
	// is nil, and pollMu is a host-side lock outside simulated time).
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	out := make([]RingStats, 0, len(targets))
	for _, t := range targets {
		rs := t.rs
		st := RingStats{
			Guest:   t.guest,
			Object:  t.object,
			VSlot:   t.vslot,
			Depth:   rs.depth,
			Flushes: rs.flushes.Load(),
			Flushed: rs.flushed.Load(),
			Drains:  rs.drains.Load(),
			Drained: rs.drained.Load(),
			Failed:  rs.failed.Load(),
			Busied:  rs.busied.Load(),
			Retried: rs.retried.Load(),
		}
		// The free window never errors on a live region; a racing teardown
		// is excluded by snapshotting under m.mu above and freeing under
		// pollMu, so plain reads are safe here.
		st.Queued, _ = rs.free.SubmitLen()
		st.Ready, _ = rs.free.CompLen()
		st.Submitted, _ = rs.free.Submitted()
		st.Completed, _ = rs.free.Completed()
		st.Kicks, _ = rs.free.Kicks()
		b := rs.batchSnapshot()
		st.BatchP50 = b.Percentile(0.50)
		st.BatchP99 = b.Percentile(0.99)
		out = append(out, st)
	}
	return out
}
