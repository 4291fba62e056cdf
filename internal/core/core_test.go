package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
)

// Manager function IDs used across the tests.
const (
	fnNop uint64 = iota + 1
	fnWriteObject
	fnReadObject
	fnObjAdd
	fnTouchGuestRAM
	fnOverrun
)

type fixture struct {
	hv  *hv.Hypervisor
	mgr *Manager
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	return newSizedFixture(t, 64*1024*1024)
}

// newSizedFixture is newFixture on a machine of physBytes of simulated
// RAM, for tests that build many small machines.
func newSizedFixture(t testing.TB, physBytes int) *fixture {
	t.Helper()
	h, err := hv.New(hv.Config{PhysBytes: physBytes})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(h, ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The standard function set.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.RegisterFunc(fnNop, func(c *CallContext) (uint64, error) { return 0, nil }))
	must(m.RegisterFunc(fnWriteObject, func(c *CallContext) (uint64, error) {
		// args: obj offset, length; payload staged in exchange[0:].
		n := int(c.Args[1])
		return 0, c.CopyExchangeToObject(int(c.Args[0]), 0, n)
	}))
	must(m.RegisterFunc(fnReadObject, func(c *CallContext) (uint64, error) {
		n := int(c.Args[1])
		return 0, c.CopyObjectToExchange(0, int(c.Args[0]), n)
	}))
	must(m.RegisterFunc(fnObjAdd, func(c *CallContext) (uint64, error) {
		v, err := c.ObjectU64(0)
		if err != nil {
			return 0, err
		}
		v += c.Args[0]
		return v, c.SetObjectU64(0, v)
	}))
	must(m.RegisterFunc(fnTouchGuestRAM, func(c *CallContext) (uint64, error) {
		// A buggy/hostile manager function reaching for the guest's
		// private RAM — must fault: guest RAM is not in the sub context.
		return 0, c.VCPU.ReadGPA(0, make([]byte, 8))
	}))
	must(m.RegisterFunc(fnOverrun, func(c *CallContext) (uint64, error) {
		// Bypass the courtesy bounds checks and run off the end of the
		// object into the guard page.
		return 0, c.VCPU.ReadGPA(c.Object+mem.GPA(c.ObjectSize), make([]byte, 8))
	}))
	return &fixture{hv: h, mgr: m}
}

func (f *fixture) newGuest(t testing.TB, name string) (*hv.VM, *Guest) {
	t.Helper()
	vm, err := f.hv.CreateVM(name, 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuest(vm, f.mgr)
	if err != nil {
		t.Fatal(err)
	}
	return vm, g
}

func TestAttachAndCallNop(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("obj", mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "guest0")
	h, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	if h.SubIndex() != firstSubIdx {
		t.Fatalf("sub index = %d, want %d", h.SubIndex(), firstSubIdx)
	}
	if h.ObjectSize() != mem.PageSize || h.ExchangeSize() != ExchangeBytes {
		t.Fatalf("sizes: obj=%d ex=%d", h.ObjectSize(), h.ExchangeSize())
	}
	ret, err := h.Call(vm.VCPU(), fnNop)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 0 {
		t.Fatalf("nop returned %d", ret)
	}
	// After the call the guest is back in its default context.
	if vm.VCPU().EPTP() != vm.DefaultEPT().Pointer() {
		t.Fatal("call did not return to the default context")
	}
	// Attach is idempotent per guest+object.
	h2, err := g.Attach("obj")
	if err != nil || h2 != h {
		t.Fatalf("re-attach: %v %v", h2, err)
	}
}

func TestCallIsExitLess(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	v := vm.VCPU()

	before := v.Stats()
	for i := 0; i < 100; i++ {
		if _, err := h.Call(v, fnNop); err != nil {
			t.Fatal(err)
		}
	}
	after := v.Stats()
	if after.Exits != before.Exits {
		t.Fatalf("data path caused %d exits", after.Exits-before.Exits)
	}
	if after.VMFuncs-before.VMFuncs != 400 {
		t.Fatalf("VMFuncs = %d, want 400 (4 per call)", after.VMFuncs-before.VMFuncs)
	}
}

// The paper's Table 2: ELISA round trip 196 ns, VMCALL 699 ns, ratio 3.5x.
func TestTable2RoundTripCosts(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	v := vm.VCPU()

	// Warm up TLB entries for all three contexts.
	if _, err := h.Call(v, fnNop); err != nil {
		t.Fatal(err)
	}
	start := v.Clock().Now()
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := h.Call(v, fnNop); err != nil {
			t.Fatal(err)
		}
	}
	elisaRTT := int64(v.Clock().Elapsed(start)) / n
	if elisaRTT != 196 {
		t.Errorf("ELISA round trip = %dns, want 196ns (paper Table 2)", elisaRTT)
	}

	// A no-op hypercall is the VMCALL baseline.
	_ = f.hv.RegisterHypercall(0x9999, func(*hv.VM, [4]uint64) (uint64, error) { return 0, nil })
	start = v.Clock().Now()
	for i := 0; i < n; i++ {
		if _, err := v.VMCall(0x9999); err != nil {
			t.Fatal(err)
		}
	}
	vmcallRTT := int64(v.Clock().Elapsed(start)) / n
	if vmcallRTT != 699 {
		t.Errorf("VMCALL round trip = %dns, want 699ns (paper Table 2)", vmcallRTT)
	}
	ratio := float64(vmcallRTT) / float64(elisaRTT)
	if ratio < 3.4 || ratio > 3.7 {
		t.Errorf("VMCALL/ELISA = %.2f, paper reports 3.5x", ratio)
	}
}

func TestSharedObjectAcrossGuests(t *testing.T) {
	f := newFixture(t)
	obj, _ := f.mgr.CreateObject("board", 2*mem.PageSize)
	vmA, gA := f.newGuest(t, "A")
	vmB, gB := f.newGuest(t, "B")
	hA, err := gA.Attach("board")
	if err != nil {
		t.Fatal(err)
	}
	hB, err := gB.Attach("board")
	if err != nil {
		t.Fatal(err)
	}

	// A publishes through its exchange buffer + manager function.
	msg := []byte("written by A, isolated from everyone's default context")
	if err := hA.ExchangeWrite(vmA.VCPU(), 0, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := hA.Call(vmA.VCPU(), fnWriteObject, 64, uint64(len(msg))); err != nil {
		t.Fatal(err)
	}

	// B reads it back through its own sub context.
	if _, err := hB.Call(vmB.VCPU(), fnReadObject, 64, uint64(len(msg))); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := hB.ExchangeRead(vmB.VCPU(), 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("B read %q", got)
	}

	// And the manager (host side) sees the same bytes in the region.
	hostView := make([]byte, len(msg))
	if err := obj.Region().Read(nil, 64, hostView); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hostView, msg) {
		t.Fatalf("host sees %q", hostView)
	}
}

func TestCallReturnsValueAndRAX(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("ctr", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("ctr")
	v := vm.VCPU()
	for want := uint64(5); want <= 15; want += 5 {
		ret, err := h.Call(v, fnObjAdd, 5)
		if err != nil {
			t.Fatal(err)
		}
		if ret != want || v.Regs[cpu.RAX] != want {
			t.Fatalf("ret=%d rax=%d want %d", ret, v.Regs[cpu.RAX], want)
		}
	}
}

func TestAttachErrors(t *testing.T) {
	f := newFixture(t)
	vm, g := f.newGuest(t, "g")
	if _, err := g.Attach("nonexistent"); err == nil {
		t.Fatal("attach to unknown object succeeded")
	}
	if vm.Dead() {
		t.Fatal("failed attach killed the guest")
	}
	if _, err := g.Attach(""); err == nil {
		t.Fatal("empty name accepted")
	}
	// Deny-by-default object.
	_, _ = f.mgr.CreateObject("private", mem.PageSize)
	_ = f.mgr.Restrict("private", 0)
	if _, err := g.Attach("private"); err == nil {
		t.Fatal("attach to restricted object succeeded")
	}
	// Explicit grant opens it.
	_ = f.mgr.Grant("private", vm, ept.PermRead)
	if _, err := g.Attach("private"); err != nil {
		t.Fatal(err)
	}
}

func TestManagerValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObject("x", 0); err == nil {
		t.Error("zero-size object accepted")
	}
	_, _ = f.mgr.CreateObject("x", mem.PageSize)
	if _, err := f.mgr.CreateObject("x", mem.PageSize); err == nil {
		t.Error("duplicate object accepted")
	}
	if err := f.mgr.RegisterFunc(fnNop, nil); err == nil {
		t.Error("nil func accepted")
	}
	if err := f.mgr.RegisterFunc(fnNop, func(*CallContext) (uint64, error) { return 0, nil }); err == nil {
		t.Error("duplicate func id accepted")
	}
	if err := f.mgr.Restrict("missing", 0); err == nil {
		t.Error("restrict of missing object accepted")
	}
	vm, _ := f.newGuest(t, "g")
	if err := f.mgr.Grant("missing", vm, ept.PermRW); err == nil {
		t.Error("grant on missing object accepted")
	}
	if err := f.mgr.Revoke(vm, "x"); err == nil {
		t.Error("revoke without attachment accepted")
	}
}

func TestManagerVMCannotAttachToItself(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	if _, err := f.mgr.attach(f.mgr.VM(), "obj"); err == nil {
		t.Fatal("manager attached to itself")
	}
}

func TestUnknownFunctionID(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	if _, err := h.Call(vm.VCPU(), 0xdeadbeef); err == nil {
		t.Fatal("unknown function id accepted")
	}
	if vm.Dead() {
		t.Fatal("unknown function killed the guest")
	}
	// The vCPU is back in the default context after the failed call.
	if vm.VCPU().EPTP() != vm.DefaultEPT().Pointer() {
		t.Fatal("failed call left the guest in a foreign context")
	}
}

func TestDetachThenCallRefused(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	if err := g.Detach("obj"); err != nil {
		t.Fatal(err)
	}
	// The gate refuses the stale slot; cooperative guests survive.
	if _, err := h.Call(vm.VCPU(), fnNop); err == nil {
		t.Fatal("call after detach succeeded")
	}
	if vm.Dead() {
		t.Fatal("call after detach killed the cooperative guest")
	}
	if err := g.Detach("obj"); err == nil {
		t.Fatal("double detach accepted")
	}
	// Re-attach works and gets a fresh slot.
	h2, err := g.Attach("obj")
	if err != nil {
		t.Fatal(err)
	}
	if h2.SubIndex() == h.SubIndex() {
		t.Fatalf("recycled slot %d for a new attachment", h2.SubIndex())
	}
	if _, err := h2.Call(vm.VCPU(), fnNop); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleObjectsGetDistinctSlots(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("o1", mem.PageSize)
	_, _ = f.mgr.CreateObject("o2", mem.PageSize)
	_, _ = f.mgr.CreateObject("o3", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	idx := map[int]bool{}
	for _, name := range []string{"o1", "o2", "o3"} {
		h, err := g.Attach(name)
		if err != nil {
			t.Fatal(err)
		}
		if idx[h.SubIndex()] {
			t.Fatalf("slot %d reused", h.SubIndex())
		}
		idx[h.SubIndex()] = true
		if _, err := h.Call(vm.VCPU(), fnNop); err != nil {
			t.Fatal(err)
		}
	}
	if !idx[2] || !idx[3] || !idx[4] {
		t.Fatalf("slots = %v, want {2,3,4}", idx)
	}
}

func TestExchangeBounds(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	v := vm.VCPU()
	if err := h.ExchangeWrite(v, h.ExchangeSize()-1, []byte{1, 2}); err == nil {
		t.Error("exchange overflow write accepted")
	}
	if err := h.ExchangeRead(v, -1, make([]byte, 1)); err == nil {
		t.Error("negative exchange read accepted")
	}
}

func TestCallContextBounds(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	var gotErrs []error
	_ = f.mgr.RegisterFunc(100, func(c *CallContext) (uint64, error) {
		gotErrs = append(gotErrs,
			c.ReadObject(c.ObjectSize-1, make([]byte, 2)),
			c.WriteObject(-1, make([]byte, 1)),
			c.ReadExchange(c.ExchangeSize, make([]byte, 1)),
			c.WriteExchange(c.ExchangeSize-1, make([]byte, 2)),
			c.CopyExchangeToObject(0, c.ExchangeSize, 8),
			c.CopyObjectToExchange(0, c.ObjectSize, 8),
			func() error { _, err := c.ObjectU64(c.ObjectSize - 4); return err }(),
			c.SetObjectU64(-8, 1),
		)
		return 0, nil
	})
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	if _, err := h.Call(vm.VCPU(), 100); err != nil {
		t.Fatal(err)
	}
	for i, err := range gotErrs {
		if err == nil {
			t.Errorf("bounds check %d accepted an out-of-range access", i)
		}
	}
	if vm.Dead() {
		t.Fatal("bounds-checked accesses killed the guest")
	}
}

func TestCallOnForeignVCPURejected(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	_, gA := f.newGuest(t, "A")
	vmB, _ := f.newGuest(t, "B")
	hA, _ := gA.Attach("obj")
	if _, err := hA.Call(vmB.VCPU(), fnNop); err == nil {
		t.Fatal("call on foreign vCPU accepted")
	}
}

func TestGateAndMgrCodeMagicVisibleWhereMapped(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("obj")
	v := vm.VCPU()

	// Gate page is readable (RX) in the default context.
	got := make([]byte, len(GateCodeMagic))
	gateGPA := mem.GPA(h.gateGVA)
	if err := v.ReadGPA(gateGPA, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != GateCodeMagic {
		t.Fatalf("gate page = %q", got)
	}
	// ...but not writable: RX means the guest cannot patch the gate.
	if err := v.WriteGPA(gateGPA, []byte{0xcc}); err == nil {
		t.Fatal("guest patched the gate page")
	}
}

func TestAttachCountsAsSlowPath(t *testing.T) {
	// Negotiation must exit (it is the explicit slow path); the guest
	// pays at least one hypercall round trip.
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	v := vm.VCPU()
	exitsBefore := v.Stats().Exits
	if _, err := g.Attach("obj"); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Exits == exitsBefore {
		t.Fatal("attach took no exits — negotiation must use hypercalls")
	}
}

func TestCallMultiAmortisesTheCrossing(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("batch", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("batch")
	v := vm.VCPU()

	// Warm up.
	if _, err := h.Call(v, fnObjAdd, 0); err != nil {
		t.Fatal(err)
	}

	const n = 32
	// Individual calls: n crossings.
	start := v.Clock().Now()
	for i := 0; i < n; i++ {
		if _, err := h.Call(v, fnObjAdd, 1); err != nil {
			t.Fatal(err)
		}
	}
	individual := v.Clock().Elapsed(start)

	// Batched: one crossing.
	reqs := make([]Req, n)
	for i := range reqs {
		reqs[i] = Req{Fn: fnObjAdd, Args: [4]uint64{1}}
	}
	start = v.Clock().Now()
	if err := h.CallMulti(v, reqs); err != nil {
		t.Fatal(err)
	}
	batched := v.Clock().Elapsed(start)

	if batched >= individual {
		t.Fatalf("batched %v not cheaper than %v", batched, individual)
	}
	// The saving is (n-1) crossings.
	saved := individual - batched
	wantSaved := simtime.Duration(n-1) * v.Cost().ELISARoundTrip()
	if saved < wantSaved*9/10 || saved > wantSaved*11/10 {
		t.Fatalf("saved %v, want ~%v", saved, wantSaved)
	}
	// Results accumulated correctly (counter kept increasing).
	last := reqs[n-1].Ret
	first := reqs[0].Ret
	if last-first != n-1 {
		t.Fatalf("rets: first=%d last=%d", first, last)
	}
	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("req %d: %v", i, r.Err)
		}
	}
}

func TestCallMultiPerOpErrors(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("batch", mem.PageSize)
	vm, g := f.newGuest(t, "g")
	h, _ := g.Attach("batch")
	reqs := []Req{
		{Fn: fnNop},
		{Fn: 0xdeadbeef}, // unknown: per-op error, not fatal
		{Fn: fnNop},
	}
	if err := h.CallMulti(vm.VCPU(), reqs); err != nil {
		t.Fatal(err)
	}
	if reqs[0].Err != nil || reqs[2].Err != nil {
		t.Fatal("good requests errored")
	}
	if reqs[1].Err == nil {
		t.Fatal("unknown fn id accepted")
	}
	if vm.Dead() {
		t.Fatal("per-op error killed the guest")
	}
	if vm.VCPU().EPTP() != vm.DefaultEPT().Pointer() {
		t.Fatal("batch left guest outside default context")
	}
}

func TestCallMultiValidation(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("batch", mem.PageSize)
	vmA, gA := f.newGuest(t, "a")
	vmB, _ := f.newGuest(t, "b")
	h, _ := gA.Attach("batch")
	if err := h.CallMulti(vmB.VCPU(), []Req{{Fn: fnNop}}); err == nil {
		t.Fatal("foreign vCPU accepted")
	}
	if err := h.CallMulti(vmA.VCPU(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestManagerStatsAccounting(t *testing.T) {
	f := newFixture(t)
	_, _ = f.mgr.CreateObject("obj", mem.PageSize)
	vm, g := f.newGuest(t, "counted")
	h, _ := g.Attach("obj")
	v := vm.VCPU()
	for i := 0; i < 5; i++ {
		if _, err := h.Call(v, fnNop); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = h.Call(v, 0xdeadbeef) // one error
	stats := f.mgr.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats entries: %d", len(stats))
	}
	s := stats[0]
	if s.Guest != "counted" || s.Object != "obj" || s.Calls != 6 || s.FnErrors != 1 || s.Revoked {
		t.Fatalf("stats = %+v", s)
	}
	desc, err := f.mgr.DescribeGuest(vm)
	if err != nil || desc == "" {
		t.Fatalf("describe: %q %v", desc, err)
	}
	if names := f.mgr.ObjectNames(); len(names) != 1 || names[0] != "obj" {
		t.Fatalf("object names: %v", names)
	}
}

// TestDescribeGuestListsAttachmentsInVslotOrder checks the inspection
// summary lists attachments in vslot order, every time: two identical
// runs must print identical text.
func TestDescribeGuestListsAttachmentsInVslotOrder(t *testing.T) {
	f := newFixture(t)
	vm, g := f.newGuest(t, "g")
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("object-%d", i)
		if _, err := f.mgr.CreateObject(name, mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Attach(name); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 10; rep++ {
		desc, err := f.mgr.DescribeGuest(vm)
		if err != nil {
			t.Fatal(err)
		}
		var vslots []int
		for _, line := range strings.Split(desc, "\n") {
			if fs := strings.Fields(line); len(fs) > 2 && fs[1] == "vslot" {
				n, err := strconv.Atoi(fs[2])
				if err != nil {
					t.Fatalf("bad vslot in %q: %v", line, err)
				}
				vslots = append(vslots, n)
			}
		}
		if len(vslots) != 8 {
			t.Fatalf("listed %d attachments, want 8:\n%s", len(vslots), desc)
		}
		for i := 1; i < len(vslots); i++ {
			if vslots[i] <= vslots[i-1] {
				t.Fatalf("vslots out of order %v:\n%s", vslots, desc)
			}
		}
	}
}

func TestHugeObjectEndToEnd(t *testing.T) {
	h, err := hv.New(hv.Config{PhysBytes: 64 * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(h, ManagerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(mgr.RegisterFunc(fnWriteObject, func(c *CallContext) (uint64, error) {
		return 0, c.CopyExchangeToObject(int(c.Args[0]), 0, int(c.Args[1]))
	}))
	must(mgr.RegisterFunc(fnReadObject, func(c *CallContext) (uint64, error) {
		return 0, c.CopyObjectToExchange(0, int(c.Args[0]), int(c.Args[1]))
	}))
	obj, err := mgr.CreateObjectHuge("big", 4*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Huge() || obj.Size() != 4*1024*1024 {
		t.Fatalf("object: huge=%v size=%d", obj.Huge(), obj.Size())
	}
	if uint64(obj.GPA())%uint64(ept.HugePageSize) != 0 {
		t.Fatalf("object GPA %v not 2MiB-aligned", obj.GPA())
	}

	vmA, err := h.CreateVM("a", 16*mem.PageSize)
	must(err)
	gA, err := NewGuest(vmA, mgr)
	must(err)
	vmB, err := h.CreateVM("b", 16*mem.PageSize)
	must(err)
	gB, err := NewGuest(vmB, mgr)
	must(err)
	hA, err := gA.Attach("big")
	must(err)
	hB, err := gB.Attach("big")
	must(err)

	// Write deep into the object through A's huge mapping; B reads it.
	deep := uint64(3*1024*1024 + 12345)
	msg := []byte("huge-page payload")
	must(hA.ExchangeWrite(vmA.VCPU(), 0, msg))
	if _, err := hA.Call(vmA.VCPU(), fnWriteObject, deep, uint64(len(msg))); err != nil {
		t.Fatal(err)
	}
	if _, err := hB.Call(vmB.VCPU(), fnReadObject, deep, uint64(len(msg))); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	must(hB.ExchangeRead(vmB.VCPU(), 0, got))
	if string(got) != string(msg) {
		t.Fatalf("cross-VM huge read: %q", got)
	}

	// Isolation is unchanged: default-context access to the huge object
	// still dies.
	err = vmA.Run(func(v *cpu.VCPU) error {
		return v.ReadGPA(obj.GPA(), make([]byte, 8))
	})
	wantKilled(t, err, cpu.ExitEPTViolation)

	// The audit sees one-object-worth of huge mappings.
	ms, err := mgr.SubContextMappings(vmB, "big")
	must(err)
	hugeCount := 0
	for _, m := range ms {
		if m.Bytes == ept.HugePageSize {
			hugeCount++
		}
	}
	if hugeCount != 2 { // 4 MiB = 2 huge pages
		t.Fatalf("huge mappings in sub context: %d", hugeCount)
	}
	if err := mgr.Fsck(); err != nil {
		t.Fatal(err)
	}
}

func TestHugeObjectReadOnlyGrant(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mgr.CreateObjectHuge("big-ro", 2*1024*1024); err != nil {
		t.Fatal(err)
	}
	vm, g := f.newGuest(t, "reader")
	_ = f.mgr.Grant("big-ro", vm, ept.PermRead)
	h, _ := g.Attach("big-ro")
	if _, err := h.Call(vm.VCPU(), fnReadObject, 0, 8); err != nil {
		t.Fatal(err)
	}
	_ = h.ExchangeWrite(vm.VCPU(), 0, []byte{1})
	_, err := h.Call(vm.VCPU(), fnWriteObject, 0, 1)
	wantKilled(t, err, cpu.ExitEPTViolation)
}
