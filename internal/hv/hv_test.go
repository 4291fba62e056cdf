package hv

import (
	"errors"
	"testing"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/mem"
)

func newHV(t *testing.T, megs int) *Hypervisor {
	t.Helper()
	h, err := New(Config{PhysBytes: megs * 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCreateVM(t *testing.T) {
	h := newHV(t, 8)
	vm, err := h.CreateVM("guest0", 16*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Name() != "guest0" || vm.RAMBytes() != 16*mem.PageSize || vm.Dead() {
		t.Fatalf("vm state wrong: %q %d %v", vm.Name(), vm.RAMBytes(), vm.Dead())
	}
	// Guest can use its RAM immediately.
	err = vm.Run(func(v *cpu.VCPU) error {
		if err := v.WriteGPA(0x100, []byte("hello")); err != nil {
			return err
		}
		buf := make([]byte, 5)
		if err := v.ReadGPA(0x100, buf); err != nil {
			return err
		}
		if string(buf) != "hello" {
			t.Errorf("guest RAM: %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.VMs()) != 1 {
		t.Fatalf("VMs() = %d", len(h.VMs()))
	}
}

func TestCreateVMValidation(t *testing.T) {
	h := newHV(t, 8)
	if _, err := h.CreateVM("x", 0); err == nil {
		t.Error("zero RAM accepted")
	}
	if _, err := h.CreateVM("x", mem.PageSize+1); err == nil {
		t.Error("unaligned RAM accepted")
	}
	if _, err := h.CreateVM("x", 1<<30); err == nil {
		t.Error("RAM larger than physical memory accepted")
	}
}

func TestGuestRAMIsPrivate(t *testing.T) {
	h := newHV(t, 8)
	a, _ := h.CreateVM("a", 4*mem.PageSize)
	b, _ := h.CreateVM("b", 4*mem.PageSize)

	_ = a.Run(func(v *cpu.VCPU) error { return v.WriteGPA(0, []byte("secret-of-a")) })
	var got [11]byte
	_ = b.Run(func(v *cpu.VCPU) error { return v.ReadGPA(0, got[:]) })
	if string(got[:]) == "secret-of-a" {
		t.Fatal("VM b read VM a's RAM at the same GPA")
	}
}

func TestHypercallDispatch(t *testing.T) {
	h := newHV(t, 8)
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	var sawVM *VM
	if err := h.RegisterHypercall(100, func(caller *VM, args [4]uint64) (uint64, error) {
		sawVM = caller
		return args[0] + args[1], nil
	}); err != nil {
		t.Fatal(err)
	}
	var ret uint64
	err := vm.Run(func(v *cpu.VCPU) error {
		r, err := v.VMCall(100, 2, 3)
		ret = r
		return err
	})
	if err != nil || ret != 5 {
		t.Fatalf("hypercall: ret=%d err=%v", ret, err)
	}
	if sawVM != vm {
		t.Fatal("handler saw wrong VM")
	}
}

func TestHypercallRegistrationErrors(t *testing.T) {
	h := newHV(t, 8)
	if err := h.RegisterHypercall(1, nil); err == nil {
		t.Error("nil handler accepted")
	}
	_ = h.RegisterHypercall(2, func(*VM, [4]uint64) (uint64, error) { return 0, nil })
	if err := h.RegisterHypercall(2, func(*VM, [4]uint64) (uint64, error) { return 0, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestHypercallErrorDoesNotKill(t *testing.T) {
	h := newHV(t, 8)
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	wantErr := errors.New("object not found")
	_ = h.RegisterHypercall(7, func(*VM, [4]uint64) (uint64, error) { return 0, wantErr })
	err := vm.Run(func(v *cpu.VCPU) error {
		_, err := v.VMCall(7)
		return err
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if vm.Dead() {
		t.Fatal("failed hypercall killed the VM")
	}
}

func TestUnknownHypercallKills(t *testing.T) {
	h := newHV(t, 8)
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	err := vm.Run(func(v *cpu.VCPU) error {
		_, err := v.VMCall(0xdead)
		return err
	})
	var k *cpu.Killed
	if !errors.As(err, &k) {
		t.Fatalf("want kill, got %v", err)
	}
	if !vm.Dead() || h.KilledVMs() != 1 {
		t.Fatal("VM not recorded dead")
	}
	if err := vm.Run(func(*cpu.VCPU) error { return nil }); err == nil {
		t.Fatal("dead VM still runs programs")
	}
}

func TestEPTViolationKillsVM(t *testing.T) {
	h := newHV(t, 8)
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	err := vm.Run(func(v *cpu.VCPU) error {
		return v.ReadGPA(0x4000_0000, make([]byte, 8)) // unmapped window
	})
	var k *cpu.Killed
	if !errors.As(err, &k) || k.Reason != cpu.ExitEPTViolation {
		t.Fatalf("want EPT-violation kill, got %v", err)
	}
	if !vm.Dead() {
		t.Fatal("VM survived an EPT violation")
	}
}

func TestEnableVMFunc(t *testing.T) {
	h := newHV(t, 8)
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	list, err := h.EnableVMFunc(vm)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	again, _ := h.EnableVMFunc(vm)
	if again != list {
		t.Fatal("EnableVMFunc not idempotent")
	}
	// Slot 0 must be the default context.
	p, _ := list.Get(0)
	if p != vm.DefaultEPT().Pointer() {
		t.Fatalf("slot 0 = %v", p)
	}
	// Guest can VMFUNC to index 0 (a self-switch) without dying.
	err = vm.Run(func(v *cpu.VCPU) error { return v.VMFunc(0, 0) })
	if err != nil {
		t.Fatal(err)
	}
	// VMFUNC to an empty slot kills.
	err = vm.Run(func(v *cpu.VCPU) error { return v.VMFunc(0, 3) })
	var k *cpu.Killed
	if !errors.As(err, &k) || k.Reason != cpu.ExitVMFuncFault {
		t.Fatalf("want vmfunc-fault kill, got %v", err)
	}
}

func TestHostRegionReadWrite(t *testing.T) {
	h := newHV(t, 8)
	r, err := h.AllocHostRegion(3*mem.PageSize + 10) // rounds to 4 pages
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4*mem.PageSize || r.Pages() != 4 {
		t.Fatalf("size=%d pages=%d", r.Size(), r.Pages())
	}
	// Cross-page write/read.
	msg := []byte("spans two pages and more data to be sure")
	off := mem.PageSize - 10
	if err := r.Write(nil, off, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := r.Read(nil, off, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatalf("round trip: %q", got)
	}
	// U64 helpers.
	if err := r.WriteU64(nil, 16, 0xabcdef); err != nil {
		t.Fatal(err)
	}
	v, _ := r.ReadU64(nil, 16)
	if v != 0xabcdef {
		t.Fatalf("u64 = %x", v)
	}
	if _, err := r.ReadU64(nil, 3); err == nil {
		t.Error("unaligned u64 accepted")
	}
	if err := r.Write(nil, r.Size()-1, []byte{1, 2}); err == nil {
		t.Error("overflowing write accepted")
	}
	if err := r.Free(); err != nil {
		t.Fatal(err)
	}
	if err := r.Free(); err == nil {
		t.Error("double free accepted")
	}
	if err := r.Read(nil, 0, got); err == nil {
		t.Error("read of freed region accepted")
	}
}

func TestAllocHostRegionValidation(t *testing.T) {
	h := newHV(t, 8)
	if _, err := h.AllocHostRegion(0); err == nil {
		t.Error("zero-size region accepted")
	}
}

func TestShareDirect(t *testing.T) {
	h := newHV(t, 8)
	a, _ := h.CreateVM("a", 4*mem.PageSize)
	b, _ := h.CreateVM("b", 4*mem.PageSize)
	region, gpas, err := h.ShareDirect(mem.PageSize, ept.PermRW, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// a writes, b reads the same bytes: shared access works...
	_ = a.Run(func(v *cpu.VCPU) error { return v.WriteGPA(gpas[0], []byte("bulletin")) })
	got := make([]byte, 8)
	_ = b.Run(func(v *cpu.VCPU) error { return v.ReadGPA(gpas[1], got) })
	if string(got) != "bulletin" {
		t.Fatalf("b sees %q", got)
	}
	// ...and the host sees it too (it is one region).
	hostView := make([]byte, 8)
	_ = region.Read(nil, 0, hostView)
	if string(hostView) != "bulletin" {
		t.Fatalf("host sees %q", hostView)
	}
	// Table 1, row "direct-mapping": no isolation — b can also scribble.
	if err := b.Run(func(v *cpu.VCPU) error { return v.WriteGPA(gpas[1], []byte("defaced!")) }); err != nil {
		t.Fatal(err)
	}
}

func TestGuestReadWriteFromHost(t *testing.T) {
	h := newHV(t, 8)
	vm, _ := h.CreateVM("g", 4*mem.PageSize)
	if err := vm.GuestWrite(0x800, []byte("from host")); err != nil {
		t.Fatal(err)
	}
	var inGuest [9]byte
	_ = vm.Run(func(v *cpu.VCPU) error { return v.ReadGPA(0x800, inGuest[:]) })
	if string(inGuest[:]) != "from host" {
		t.Fatalf("guest sees %q", inGuest)
	}
	back := make([]byte, 9)
	if err := vm.GuestRead(0x800, back); err != nil {
		t.Fatal(err)
	}
	if string(back) != "from host" {
		t.Fatalf("host read back %q", back)
	}
	if err := vm.GuestRead(0x4000_0000, back); err == nil {
		t.Fatal("host read of unmapped guest window succeeded")
	}
}

func TestDestroyVMReleasesMemory(t *testing.T) {
	h := newHV(t, 8)
	before := h.Phys().FreeFrames()
	vm, _ := h.CreateVM("g", 16*mem.PageSize)
	_, _ = h.EnableVMFunc(vm)
	if err := h.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if got := h.Phys().FreeFrames(); got != before {
		t.Fatalf("leak: free %d -> %d", before, got)
	}
	if err := h.DestroyVM(vm); err == nil {
		t.Fatal("double destroy accepted")
	}
	if len(h.VMs()) != 0 {
		t.Fatal("destroyed VM still listed")
	}
}

func TestMapIntoTable(t *testing.T) {
	h := newHV(t, 8)
	r, _ := h.AllocHostRegion(2 * mem.PageSize)
	tbl, _ := ept.New(h.Phys())
	if err := r.MapIntoTable(tbl, 0x7000_0000, ept.PermRead); err != nil {
		t.Fatal(err)
	}
	hpa, perm, _ := tbl.Lookup(0x7000_0000 + mem.PageSize)
	if hpa != r.Frames()[1].Page() || perm != ept.PermRead {
		t.Fatalf("mapping wrong: %v %v", hpa, perm)
	}
}

func TestTraceCapturesMachineEvents(t *testing.T) {
	h, err := New(Config{PhysBytes: 16 * 1024 * 1024, TraceEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	if h.Trace() == nil {
		t.Fatal("tracing not enabled")
	}
	vm, _ := h.CreateVM("traced", 4*mem.PageSize)
	_ = h.RegisterHypercall(5, func(*VM, [4]uint64) (uint64, error) { return 0, nil })
	_ = vm.Run(func(v *cpu.VCPU) error { _, err := v.VMCall(5); return err })
	// Kill via EPT violation.
	_ = vm.Run(func(v *cpu.VCPU) error { return v.ReadGPA(0x5000_0000, make([]byte, 1)) })

	tr := h.Trace()
	if len(tr.Filter("vm-create", "traced")) != 1 {
		t.Fatalf("vm-create missing:\n%s", tr)
	}
	if len(tr.Filter("hypercall", "traced")) != 1 {
		t.Fatalf("hypercall missing:\n%s", tr)
	}
	if len(tr.Filter("kill", "traced")) != 1 || len(tr.Filter("ept-violation", "traced")) != 1 {
		t.Fatalf("kill/violation missing:\n%s", tr)
	}
	// Tracing off by default, and emissions are inert.
	h2, _ := New(Config{PhysBytes: 16 * 1024 * 1024})
	if h2.Trace() != nil {
		t.Fatal("tracing on without opt-in")
	}
	_, _ = h2.CreateVM("untraced", 4*mem.PageSize) // must not panic
}

func TestDestroyVMKillsVCPU(t *testing.T) {
	h := newHV(t, 1)
	a, err := h.CreateVM("a", 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if err := a.VCPU().ReadGPA(0, buf); err != nil { // warm a's TLB
		t.Fatal(err)
	}
	if err := h.DestroyVM(a); err != nil {
		t.Fatal(err)
	}
	if a.VCPU().TLB().Len() != 0 {
		t.Fatalf("destroyed VM's TLB holds %d entries", a.VCPU().TLB().Len())
	}
	// The next guest is handed a's freed frames.
	b, err := h.CreateVM("b", 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := b.GuestWrite(mem.GPA(p*mem.PageSize), []byte("SECRET!!")); err != nil {
			t.Fatal(err)
		}
	}
	err = a.VCPU().ReadGPA(0, buf)
	if err == nil || string(buf) == "SECRET!!" {
		t.Fatalf("destroyed VM's vCPU read %q (err %v)", buf, err)
	}
}

func TestCreateVMFailureFreesFrames(t *testing.T) {
	h, err := New(Config{PhysBytes: 64 * mem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	free := h.Phys().FreeFrames()
	for _, tc := range []struct {
		name  string
		pages int
	}{
		{"RAM allocation fails", free},             // the root took one frame
		{"no frame for any table level", free - 1}, // MapRange fails on its first page
		{"table levels run out", free - 3},         // two levels allocated, the third fails
	} {
		if _, err := h.CreateVM("g", tc.pages*mem.PageSize); err == nil {
			t.Fatalf("%s: CreateVM of %d pages succeeded", tc.name, tc.pages)
		}
		if got := h.Phys().FreeFrames(); got != free {
			t.Fatalf("%s: free frames %d -> %d", tc.name, free, got)
		}
	}
	if _, err := h.CreateVM("g", (free-4)*mem.PageSize); err != nil {
		t.Fatalf("CreateVM that fits after failed attempts: %v", err)
	}
}
