package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// farDeadline keeps the adaptive policy from flushing on its own: flushes
// in these tests happen only when the ring fills or the test asks.
const farDeadline = simtime.Second

// TestRingWrapAroundAtCapacity pushes many times the ring's capacity
// through an 8-slot ring so both queues' cursors wrap repeatedly, and
// checks every completion arrives in order with the right value.
func TestRingWrapAroundAtCapacity(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	const depth = 8
	rc, err := h.Ring(v, RingConfig{Depth: depth, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}

	// 7 full rounds of the ring: cursors end at 56, wrapping the 8-slot
	// ring six times past the capacity boundary.
	const rounds = 7
	var comps [depth]shm.Comp
	total := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < depth; i++ {
			// fnObjAdd increments a counter in the object and returns the
			// new value — a value-carrying op that exposes any reordering
			// or slot aliasing across the wrap.
			if err := rc.Submit(v, fnObjAdd, 1); err != nil {
				t.Fatalf("round %d submit %d: %v", r, i, err)
			}
		}
		// The depth-th Submit flushed the whole batch through one gate
		// crossing; the completions must all be ready, in order.
		n, err := rc.Poll(v, comps[:])
		if err != nil {
			t.Fatal(err)
		}
		if n != depth {
			t.Fatalf("round %d: polled %d completions, want %d", r, n, depth)
		}
		for i := 0; i < n; i++ {
			total++
			if comps[i].Status != shm.CompOK {
				t.Fatalf("op %d failed: %+v", total, comps[i])
			}
			if comps[i].Ret != uint64(total) {
				t.Fatalf("op %d returned %d (out of order across wrap?)", total, comps[i].Ret)
			}
		}
	}
	if rc.Pending() != 0 {
		t.Fatalf("pending = %d after draining everything", rc.Pending())
	}

	st := f.mgr.RingStats()
	if len(st) != 1 {
		t.Fatalf("RingStats has %d rings, want 1", len(st))
	}
	rs := st[0]
	want := uint64(rounds * depth)
	if rs.Submitted != want || rs.Completed != want {
		t.Fatalf("lifetime counters: submitted=%d completed=%d, want %d", rs.Submitted, rs.Completed, want)
	}
	if rs.Queued != 0 || rs.Ready != 0 {
		t.Fatalf("occupancy after drain: queued=%d ready=%d", rs.Queued, rs.Ready)
	}
	if rs.Flushed != want || rs.Drained != 0 {
		t.Fatalf("drain split: flushed=%d drained=%d, want all %d via the gate", rs.Flushed, rs.Drained, want)
	}
	if rs.BatchP50 != depth {
		t.Fatalf("batch p50 = %d, want %d", rs.BatchP50, depth)
	}
}

// TestRingDatapathIsExitLess: neither submissions, gate flushes, nor
// polls may take a VM exit — the whole datapath is memory writes plus
// VMFUNC crossings.
func TestRingDatapathIsExitLess(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	rc, err := h.Ring(v, RingConfig{Depth: 16, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	before := v.Stats() // after ring negotiation: the hypercall's exit is setup, not datapath
	var comps [16]shm.Comp
	for r := 0; r < 5; r++ {
		for i := 0; i < 16; i++ {
			if err := rc.Submit(v, fnNop); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rc.Poll(v, comps[:]); err != nil {
			t.Fatal(err)
		}
	}
	after := v.Stats()
	if after.Exits != before.Exits {
		t.Fatalf("ring datapath caused %d exits", after.Exits-before.Exits)
	}
	// 5 flushes (one per full batch of 16) at 4 VMFuncs per crossing pair.
	if got := after.VMFuncs - before.VMFuncs; got != 20 {
		t.Fatalf("VMFuncs = %d, want 20 (4 per flush)", got)
	}
}

// TestRingDoesNotPerturbCallPath: with a live ring on the attachment, the
// per-op Call round trip must still cost exactly the paper's 196 ns —
// the ring is an addition beside the hot path, not a tax on it.
func TestRingDoesNotPerturbCallPath(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	if _, err := h.Ring(v, RingConfig{Depth: 64, Deadline: farDeadline}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(v, fnNop); err != nil { // warm the TLB
		t.Fatal(err)
	}
	const iters = 100
	start := v.Clock().Now()
	for i := 0; i < iters; i++ {
		if _, err := h.Call(v, fnNop); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Clock().Elapsed(start) / iters; got != 196 {
		t.Fatalf("Call round trip with live ring = %dns, want 196", int64(got))
	}
}

// TestRingRevokeMidBatchNoStranded: descriptors queued when the
// attachment is revoked must not be stranded — the administrative
// failure path completes every one with CompErr, and the guest's next
// poll sees them all.
func TestRingRevokeMidBatchNoStranded(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	rc, err := h.Ring(v, RingConfig{Depth: 16, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	const queued = 5
	for i := 0; i < queued; i++ {
		if err := rc.Submit(v, fnObjAdd, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.mgr.RingStats(); st[0].Queued != queued {
		t.Fatalf("queued = %d before revoke, want %d", st[0].Queued, queued)
	}

	if err := f.mgr.Revoke(vm, "obj"); err != nil {
		t.Fatal(err)
	}

	// Every queued descriptor was administratively completed.
	var comps [16]shm.Comp
	n, err := rc.Poll(v, comps[:])
	if err != nil {
		t.Fatal(err)
	}
	if n != queued {
		t.Fatalf("polled %d completions after revoke, want %d", n, queued)
	}
	for i := 0; i < n; i++ {
		if comps[i].Status != shm.CompErr {
			t.Fatalf("completion %d status = %d, want CompErr", i, comps[i].Status)
		}
	}
	st := f.mgr.RingStats()[0]
	if st.Failed != queued || st.Queued != 0 {
		t.Fatalf("failed=%d queued=%d after revoke, want %d/0", st.Failed, st.Queued, queued)
	}
	if st.Submitted != queued || st.Completed != queued {
		t.Fatalf("lifetime: submitted=%d completed=%d, want %d each", st.Submitted, st.Completed, queued)
	}

	// The dead ring refuses further gate traffic.
	if err := rc.Submit(v, fnNop); err != nil {
		t.Fatalf("post-revoke Submit (enqueue only) errored early: %v", err)
	}
	if err := rc.Flush(v); err == nil {
		t.Fatal("Flush on revoked attachment succeeded")
	}
}

// TestRingDoorbellRaceWithPoller races the guest's exit-less submit/poll
// loop against the manager's concurrent DrainRings poller. Run under
// -race this validates the SPSC publication protocol (descriptor bytes
// before cursor, cursor loads before record reads); in any mode it
// validates that every descriptor is completed exactly once no matter
// which side wins each drain.
func TestRingDoorbellRaceWithPoller(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "g")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPU()
	rc, err := h.Ring(v, RingConfig{Depth: 64, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}

	const total = 4000
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := f.mgr.DrainRings(32); err != nil {
				t.Errorf("DrainRings: %v", err)
				return
			}
		}
	}()

	polled := 0
	var comps [64]shm.Comp
	harvest := func() {
		n, err := rc.Poll(v, comps[:])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if comps[i].Status != shm.CompOK {
				t.Fatalf("completion failed: %+v", comps[i])
			}
		}
		polled += n
	}
	for i := 0; i < total; i++ {
		if err := rc.Submit(v, fnNop); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		harvest()
	}
	for polled < total {
		if err := rc.Flush(v); err != nil {
			t.Fatal(err)
		}
		harvest()
	}
	stop.Store(true)
	wg.Wait()

	if polled != total {
		t.Fatalf("polled %d completions, want %d", polled, total)
	}
	st := f.mgr.RingStats()[0]
	if st.Submitted != total || st.Completed != total {
		t.Fatalf("lifetime: submitted=%d completed=%d, want %d each", st.Submitted, st.Completed, total)
	}
	if st.Flushed+st.Drained != total {
		t.Fatalf("drain split flushed=%d + drained=%d != %d", st.Flushed, st.Drained, total)
	}
	if st.Failed != 0 {
		t.Fatalf("failed = %d, want 0", st.Failed)
	}
}

// TestDrainRingsRefusesForgedRingHeader: a guest forges its own ring
// header through its default-context mapping (a completion head far past
// the tail, a submission tail millions past the head). The poller must
// refuse that ring with shm.ErrCorruptRing instead of servicing garbage
// descriptors, keep servicing the honest guests' rings in the same pass
// (whether or not the hostile guest comes first), and return the error
// once the pass ends. The hostile guest's own gate flush fails the same
// way but still brings its vCPU back to the default context.
func TestDrainRingsRefusesForgedRingHeader(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	var rings []*RingCaller
	for _, name := range []string{"hostile", "honest1", "honest2"} {
		vm, g := f.newGuest(t, name)
		h, err := g.Attach("obj")
		if err != nil {
			t.Fatal(err)
		}
		rc, err := h.Ring(vm.VCPU(), RingConfig{Depth: 4, Deadline: farDeadline})
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, rc)
	}
	hostile := rings[0]
	hostileV := hostile.h.g.vm.VCPU()
	// One honest submit first, so the guest's own flush below has
	// something queued in its view and takes the gate.
	if err := hostile.Submit(hostileV, fnNop); err != nil {
		t.Fatal(err)
	}
	if err := hostileV.WriteU64GPA(hostile.GPA()+16, 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := hostileV.WriteU64GPA(hostile.GPA()+8, 1<<22); err != nil {
		t.Fatal(err)
	}

	// Unbounded passes and bounded passes whose rotation starts at each
	// guest in turn.
	for _, budget := range []int{0, 4, 4, 4, -1} {
		for _, rc := range rings[1:] {
			v := rc.h.g.vm.VCPU()
			for i := 0; i < 2; i++ {
				if err := rc.Submit(v, fnNop); err != nil {
					t.Fatal(err)
				}
			}
		}
		n, err := f.mgr.DrainRings(budget)
		if !errors.Is(err, shm.ErrCorruptRing) {
			t.Fatalf("budget %d: DrainRings err = %v, want ErrCorruptRing", budget, err)
		}
		if n != 4 {
			t.Fatalf("budget %d: serviced %d descriptors, want the honest guests' 4", budget, n)
		}
		for _, rc := range rings[1:] {
			var comps [4]shm.Comp
			if got, err := rc.Poll(rc.h.g.vm.VCPU(), comps[:]); err != nil || got != 2 {
				t.Fatalf("budget %d: honest guest polled %d completions (err %v), want 2", budget, got, err)
			}
		}
	}
	for _, st := range f.mgr.RingStats() {
		if st.Guest == "hostile" && (st.Drained != 0 || st.Flushed != 0) {
			t.Fatalf("forged ring was serviced: %+v", st)
		}
	}

	if err := hostile.Flush(hostileV); !errors.Is(err, shm.ErrCorruptRing) {
		t.Fatalf("hostile Flush err = %v, want ErrCorruptRing", err)
	}
	if hostileV.EPTP() != hostile.h.g.vm.DefaultEPT().Pointer() {
		t.Fatal("a refused flush left the guest outside its default context")
	}
}

// TestDrainRingsTrimSkipsForgedRing: with overload trimming armed and a
// budget of one descriptor, pass 1 stops before it reaches most rings,
// so the trim is the first to open the forged ring. It must skip that
// ring like a visit does and still trim every honest ring after it,
// whichever guest the rotating cursor starts from.
func TestDrainRingsTrimSkipsForgedRing(t *testing.T) {
	f := newFixture(t)
	f.mgr.SetOverload(OverloadConfig{Enabled: true, BusyFrac: 0.25})
	if _, err := f.mgr.CreateObject("obj", 4096); err != nil {
		t.Fatal(err)
	}
	var rings []*RingCaller
	for _, name := range []string{"hostile", "honest1", "honest2"} {
		vm, g := f.newGuest(t, name)
		h, err := g.Attach("obj")
		if err != nil {
			t.Fatal(err)
		}
		rc, err := h.Ring(vm.VCPU(), RingConfig{Depth: 4, Deadline: farDeadline})
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, rc)
	}
	hostile := rings[0]
	if err := hostile.h.g.vm.VCPU().WriteU64GPA(hostile.GPA()+16, 1<<40); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for _, rc := range rings[1:] {
			for i := 0; i < 3; i++ {
				if err := rc.Submit(rc.h.g.vm.VCPU(), fnNop); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := f.mgr.DrainRings(1); !errors.Is(err, shm.ErrCorruptRing) {
			t.Fatalf("pass %d: DrainRings err = %v, want ErrCorruptRing", pass, err)
		}
		for _, st := range f.mgr.RingStats() {
			if st.Guest != "hostile" && st.Queued > 1 {
				t.Fatalf("pass %d: %s left %d queued, want the trim down to 1", pass, st.Guest, st.Queued)
			}
		}
		for _, rc := range rings[1:] {
			var comps [4]shm.Comp
			if _, err := rc.Poll(rc.h.g.vm.VCPU(), comps[:]); err != nil {
				t.Fatal(err)
			}
			// Drop what the trim left queued, so every pass starts empty.
			if _, err := f.mgr.DrainRings(0); !errors.Is(err, shm.ErrCorruptRing) {
				t.Fatal(err)
			}
			if _, err := rc.Poll(rc.h.g.vm.VCPU(), comps[:]); err != nil {
				t.Fatal(err)
			}
		}
	}
}
