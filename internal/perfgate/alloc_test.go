package perfgate

import (
	"fmt"
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Zero-allocation pins for the simulator's hot paths. The benchdiff
// trajectory gate catches allocation regressions too, but only when
// someone runs it; these pins fail plain `go test` the moment a change
// re-introduces a heap allocation per simulated op. testing.AllocsPerRun
// runs with GC pacing disabled, so the counts are exact, not sampled.

// TestZeroAllocLaneCallPath: the steady-state gate call — variadic and
// fixed-arity — performs zero heap allocations per op.
func TestZeroAllocLaneCallPath(t *testing.T) {
	f, err := newKernelFixture()
	if err != nil {
		t.Fatal(err)
	}
	v := f.vm.VCPU()
	if _, err := f.h.Call(v, kfnNop); err != nil { // warm the slot
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.h.Call(v, kfnNop, 1, 2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Call allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := f.h.CallArgs(v, kfnNop, [4]uint64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CallArgs allocates %v per op, want 0", n)
	}
	reqs := make([]core.Req, 8)
	for i := range reqs {
		reqs[i] = core.Req{Fn: kfnNop}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := f.h.CallMulti(v, reqs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CallMulti allocates %v per batch, want 0", n)
	}
}

// TestZeroAllocLaneRingDrain: a full 32-op ring cycle — submit, flush
// (or manager-poller drain), poll — performs zero heap allocations on
// both drain sides.
func TestZeroAllocLaneRingDrain(t *testing.T) {
	f, err := newKernelFixture()
	if err != nil {
		t.Fatal(err)
	}
	v := f.vm.VCPU()
	rc, err := f.h.Ring(v, core.RingConfig{Depth: 64, Deadline: simtime.Duration(1) << 40})
	if err != nil {
		t.Fatal(err)
	}
	comps := make([]shm.Comp, 32)
	submit := func() {
		for i := 0; i < 32; i++ {
			if err := rc.Submit(v, kfnNop, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	poll := func() {
		for rc.Pending() > 0 {
			if _, err := rc.Poll(v, comps); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm both sides once: the first flush lazily backs the gate slot.
	submit()
	if err := rc.Flush(v); err != nil {
		t.Fatal(err)
	}
	poll()

	if n := testing.AllocsPerRun(100, func() {
		submit()
		if err := rc.Flush(v); err != nil {
			t.Fatal(err)
		}
		poll()
	}); n != 0 {
		t.Fatalf("gate-flush drain allocates %v per 32-op batch, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		submit()
		for rc.Pending() > 0 {
			if _, err := f.mgr.DrainRings(32); err != nil {
				t.Fatal(err)
			}
			poll()
		}
	}); n != 0 {
		t.Fatalf("manager-poller drain allocates %v per 32-op batch, want 0", n)
	}

	// Many idle rings, one busy: 6 guests x 8 rings, where every pass
	// charges the 47 empty rings' idle memos instead of re-reading them.
	for i := 0; i < 7; i++ {
		if _, err := f.mgr.CreateObject(fmt.Sprintf("idle%d", i), mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	idleRings := func(vm *hv.VM, g *core.Guest, objs []string) {
		for _, obj := range objs {
			h, err := g.Attach(obj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Ring(vm.VCPU(), core.RingConfig{Depth: 8}); err != nil {
				t.Fatal(err)
			}
		}
	}
	objs := []string{"perf", "idle0", "idle1", "idle2", "idle3", "idle4", "idle5", "idle6"}
	idleRings(f.vm, f.g, objs[1:])
	for i := 0; i < 5; i++ {
		vm, err := f.hv.CreateVM(fmt.Sprintf("idle-guest%d", i), 16*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.NewGuest(vm, f.mgr)
		if err != nil {
			t.Fatal(err)
		}
		idleRings(vm, g, objs)
	}
	if got := len(f.mgr.RingStats()); got != 48 {
		t.Fatalf("fixture has %d rings, want 48", got)
	}
	drainIdle := func() {
		submit()
		for rc.Pending() > 0 {
			if _, err := f.mgr.DrainRings(32); err != nil {
				t.Fatal(err)
			}
			poll()
		}
	}
	drainIdle() // warm the poller's worklist scratch at 48 rings
	if n := testing.AllocsPerRun(100, drainIdle); n != 0 {
		t.Fatalf("manager-poller drain over 47 idle rings allocates %v per 32-op batch, want 0", n)
	}
}

// TestZeroAllocFleetSteadyState: once its queues, rings and histograms
// have grown to working size, a fleet run allocates only its report —
// nothing per scheduled op (no event, closure or queue regrowth).
func TestZeroAllocFleetSteadyState(t *testing.T) {
	run, err := prepareFleetMix(true)
	if err != nil {
		t.Fatal(err)
	}
	ops, _, err := run() // warm-up window
	if err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(3, func() {
		if _, _, err := run(); err != nil {
			t.Fatal(err)
		}
	})
	if perOp := perRun / float64(ops); perOp > 0.05 {
		t.Fatalf("fleet run allocates %v per run, %.3f per op, want < 0.05 per op", perRun, perOp)
	}
	t.Logf("%v allocs per run of ~%d ops", perRun, ops)
}
