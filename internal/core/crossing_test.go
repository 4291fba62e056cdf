package core

import (
	"errors"
	"testing"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
)

// crossingDriver is one caller of the shared gate crossing. prepare runs
// before a case arms anything (ring negotiation); it returns stage, which
// queues the body's work without crossing (nil when there is none), and
// cross, which takes exactly one crossing through h with batch fnNop ops
// as its body. peek marks a caller that reads shared memory in the
// default context before it decides to cross, outside the span.
type crossingDriver struct {
	name    string
	batch   int
	peek    bool
	prepare func(t *testing.T, v *cpu.VCPU, h *Handle) (stage func(), cross func(h *Handle) error)
}

var crossingDrivers = []crossingDriver{
	{name: "Call", batch: 1, prepare: func(t *testing.T, v *cpu.VCPU, _ *Handle) (func(), func(*Handle) error) {
		return nil, func(h *Handle) error {
			_, err := h.Call(v, fnNop)
			return err
		}
	}},
	{name: "CallMulti", batch: 2, prepare: func(t *testing.T, v *cpu.VCPU, _ *Handle) (func(), func(*Handle) error) {
		return nil, func(h *Handle) error {
			return h.CallMulti(v, []Req{{Fn: fnNop}, {Fn: fnNop}})
		}
	}},
	{name: "Flush", batch: 2, peek: true, prepare: func(t *testing.T, v *cpu.VCPU, h *Handle) (func(), func(*Handle) error) {
		rc, err := h.Ring(v, RingConfig{Depth: 8, Deadline: farDeadline})
		if err != nil {
			t.Fatal(err)
		}
		stage := func() {
			var comps [8]shm.Comp
			_, _ = rc.Poll(v, comps[:])
			for i := 0; i < 2; i++ {
				if err := rc.Submit(v, fnNop); err != nil {
					t.Fatal(err)
				}
			}
		}
		return stage, func(h *Handle) error {
			// The same queued ring, flushed through whichever handle the
			// case crosses with.
			r := *rc
			r.h = h
			return r.Flush(v)
		}
	}},
}

// gateEpochs reads a guest's gate-path entry and exit counters.
func gateEpochs(m *Manager, vm *hv.VM) (entries, exits uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs := m.guests[vm.ID()]
	return gs.gateEntries, gs.gateExits
}

// TestCrossingSharedByCallPaths drives every caller of the single gate
// crossing — Call, CallMulti and RingCaller.Flush — through a refused
// forged binding, a crash-mid-gate injection, and a clean round trip, so
// a change to the crossing is checked on each path that takes it.
func TestCrossingSharedByCallPaths(t *testing.T) {
	for _, d := range crossingDrivers {
		t.Run(d.name+"/forged", func(t *testing.T) {
			f := newFixture(t)
			rec := obs.NewRecorder(obs.Config{SampleEvery: 1})
			f.mgr.SetRecorder(rec)
			_, _ = f.mgr.CreateObject("obj", mem.PageSize)
			vm, g := f.newGuest(t, "attacker")
			h, err := g.Attach("obj")
			if err != nil {
				t.Fatal(err)
			}
			v := vm.VCPU()
			stage, cross := d.prepare(t, v, h)
			forged := &Handle{
				g:            g,
				objName:      "obj",
				subIdx:       h.SubIndex() + 7, // never granted
				gateGVA:      h.gateGVA,
				exchangeGPA:  h.exchangeGPA,
				exchangeSize: h.exchangeSize,
				objSize:      h.objSize,
			}
			if stage != nil {
				stage()
			}
			if err := cross(forged); err == nil {
				t.Fatal("forged binding passed the gate")
			}
			if vm.Dead() {
				t.Fatal("gate refusal must not kill")
			}
			if v.EPTP() != vm.DefaultEPT().Pointer() {
				t.Fatal("guest stranded outside its default context")
			}
			if in, out := gateEpochs(f.mgr, vm); in != out {
				t.Fatalf("gate entries %d != exits %d after a refusal", in, out)
			}
			spans := rec.Spans()
			if len(spans) == 0 {
				t.Fatal("refusal recorded no span")
			}
			if sp := spans[len(spans)-1]; !sp.Err || sp.Batch != d.batch {
				t.Fatalf("refusal span err=%v batch=%d, want err=true batch=%d", sp.Err, sp.Batch, d.batch)
			}
		})

		t.Run(d.name+"/crash-mid-gate", func(t *testing.T) {
			f := newFixture(t)
			_, _ = f.mgr.CreateObject("obj", mem.PageSize)
			vm, g := f.newGuest(t, "victim")
			h, err := g.Attach("obj")
			if err != nil {
				t.Fatal(err)
			}
			stage, cross := d.prepare(t, vm.VCPU(), h)
			if stage != nil {
				stage()
			}
			f.mgr.SetInjector(fault.NewInjector(&fault.Plan{Injections: []fault.Injection{
				{Class: fault.ClassCrashMidGate, Guest: vm.Name()},
			}}))
			if err := cross(h); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("crossing returned %v, want the injected crash", err)
			}
			if !vm.Dead() {
				t.Fatal("guest survived a crash-mid-gate injection")
			}
			midGate, err := f.mgr.RecoverGuest(vm)
			if err != nil {
				t.Fatal(err)
			}
			if !midGate {
				t.Fatal("RecoverGuest did not see the mid-gate death")
			}
			if got := f.mgr.RecoveryStats().MidGateDeaths; got != 1 {
				t.Fatalf("MidGateDeaths = %d, want 1", got)
			}
		})

		t.Run(d.name+"/round-trip", func(t *testing.T) {
			f := newFixture(t)
			rec := obs.NewRecorder(obs.Config{SampleEvery: 1})
			f.mgr.SetRecorder(rec)
			_, _ = f.mgr.CreateObject("obj", mem.PageSize)
			vm, g := f.newGuest(t, "g")
			h, err := g.Attach("obj")
			if err != nil {
				t.Fatal(err)
			}
			v := vm.VCPU()
			stage, cross := d.prepare(t, v, h)
			for i := 0; i < 2; i++ { // the first crossing warms the TLB
				if stage != nil {
					stage()
				}
				start := v.Clock().Now()
				if err := cross(h); err != nil {
					t.Fatal(err)
				}
				elapsed := v.Clock().Elapsed(start)
				if i == 0 {
					continue
				}
				spans := rec.Spans()
				sp := spans[len(spans)-1]
				if sp.Err || sp.Batch != d.batch {
					t.Fatalf("span err=%v batch=%d, want err=false batch=%d", sp.Err, sp.Batch, d.batch)
				}
				if d.peek && sp.Total() >= elapsed || !d.peek && sp.Total() != elapsed {
					t.Fatalf("span covers %v of a %v call (peek=%v)", sp.Total(), elapsed, d.peek)
				}
				// The body is everything between entering and leaving the
				// sub context. One of the round trip's six instruction
				// fetches (the manager-code fetch of each invoke) is
				// charged inside it, so the crossing's own phases are the
				// round trip less that one fetch.
				body := sp.Phases[obs.PhaseFunc] + sp.Phases[obs.PhaseExchange]
				if want := v.Cost().ELISARoundTrip() - v.Cost().Instruction; sp.Total()-body != want {
					t.Fatalf("crossing took %v around a %v body, want %v", sp.Total()-body, body, want)
				}
			}
			if in, out := gateEpochs(f.mgr, vm); in != out || in == 0 {
				t.Fatalf("gate entries %d, exits %d: want equal and nonzero", in, out)
			}
		})
	}
}

// TestRingEntryPointsRejectForeignVCPU pins the ring entry points to the
// same preallocated guard error the call paths return.
func TestRingEntryPointsRejectForeignVCPU(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "owner")
	other, _ := f.newGuest(t, "other")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := h.Ring(vm.VCPU(), RingConfig{Depth: 8, Deadline: farDeadline})
	if err != nil {
		t.Fatal(err)
	}
	foreign := other.VCPU()
	_, ringErr := h.Ring(foreign, RingConfig{Depth: 8})
	_, submitErr := rc.SubmitDesc(foreign, shm.Desc{Fn: fnNop})
	_, pollErr := rc.Poll(foreign, make([]shm.Comp, 1))
	for name, err := range map[string]error{
		"Ring":       ringErr,
		"SubmitDesc": submitErr,
		"Flush":      rc.Flush(foreign),
		"Poll":       pollErr,
	} {
		if !errors.Is(err, ErrForeignVCPU) {
			t.Errorf("%s on a foreign vCPU returned %v, want ErrForeignVCPU", name, err)
		}
	}
}
