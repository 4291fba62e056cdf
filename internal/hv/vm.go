package hv

import (
	"errors"
	"fmt"

	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/ept"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/trace"
)

// regionBase is the guest-physical address where non-RAM regions (shared
// windows, device apertures) are allocated, far above any realistic RAM
// size in these experiments.
const regionBase mem.GPA = 0x4000_0000

// VM is one guest: a vCPU, a default EPT context mapping its private RAM,
// and optionally VMFUNC controls with an EPTP list.
type VM struct {
	id   int
	name string
	hv   *Hypervisor

	vcpu       *cpu.VCPU
	defaultEPT *ept.Table
	ramPages   []mem.HFN
	ramBytes   int

	eptpList *ept.List // nil until EnableVMFunc
	nextGPA  mem.GPA   // allocator for shared/device windows

	dead bool
}

// CreateVM boots a guest with ramBytes of private RAM mapped RWX at GPA 0
// in a fresh default EPT context.
func (h *Hypervisor) CreateVM(name string, ramBytes int) (*VM, error) {
	if ramBytes <= 0 || ramBytes%mem.PageSize != 0 {
		return nil, fmt.Errorf("hv: vm %q: RAM size %d must be a positive multiple of %d", name, ramBytes, mem.PageSize)
	}
	tbl, err := ept.New(h.pm)
	if err != nil {
		return nil, fmt.Errorf("hv: vm %q: %w", name, err)
	}
	pages, err := h.pm.AllocFrames(ramBytes / mem.PageSize)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("hv: vm %q: %w", name, err), h.release(tbl, nil))
	}
	if err := tbl.MapRange(0, pages, ept.PermRWX); err != nil {
		return nil, errors.Join(fmt.Errorf("hv: vm %q: %w", name, err), h.release(tbl, pages))
	}
	vm := &VM{
		id:         h.nextID,
		name:       name,
		hv:         h,
		defaultEPT: tbl,
		ramPages:   pages,
		ramBytes:   ramBytes,
		nextGPA:    regionBase,
	}
	vcpu, err := cpu.New(cpu.Config{
		ID:               vm.id,
		Phys:             h.pm,
		Cost:             &h.cost,
		Handler:          h,
		FlushTLBOnSwitch: h.flushOnSwitch,
	})
	if err != nil {
		return nil, errors.Join(err, h.release(tbl, pages))
	}
	vcpu.SetVMCS(cpu.VMCS{EPTP: tbl.Pointer()})
	vm.vcpu = vcpu
	h.vms[vm.id] = vm
	h.byVCPU[vcpu.ID()] = vm
	h.nextID++
	h.trace.Emit(0, name, trace.KindVMCreate, "%d pages RAM", len(pages))
	return vm, nil
}

// release frees a VM's default EPT (root and table frames) and RAM pages.
func (h *Hypervisor) release(tbl *ept.Table, pages []mem.HFN) error {
	err := tbl.Destroy()
	for _, f := range pages {
		err = errors.Join(err, h.pm.FreeFrame(f))
	}
	return err
}

// ID returns the VM id.
func (vm *VM) ID() int { return vm.id }

// Name returns the VM name.
func (vm *VM) Name() string { return vm.name }

// VCPU returns the guest's (single) virtual CPU.
func (vm *VM) VCPU() *cpu.VCPU { return vm.vcpu }

// DefaultEPT returns the guest's default EPT context (host-side use).
func (vm *VM) DefaultEPT() *ept.Table { return vm.defaultEPT }

// RAMBytes returns the guest RAM size.
func (vm *VM) RAMBytes() int { return vm.ramBytes }

// Dead reports whether the hypervisor killed this VM.
func (vm *VM) Dead() bool { return vm.dead || vm.vcpu.Dead() }

// AllocRegionGPA reserves a guest-physical window of n pages in the VM's
// address space (above RAM) and returns its base. Nothing is mapped yet.
func (vm *VM) AllocRegionGPA(pages int) mem.GPA {
	base := vm.nextGPA
	vm.nextGPA += mem.GPA(pages * mem.PageSize)
	return base
}

// EnableVMFunc turns on the VM-functions controls for the guest: an EPTP
// list page is allocated with slot 0 holding the default context, and the
// VMCS is updated. Idempotent.
func (h *Hypervisor) EnableVMFunc(vm *VM) (*ept.List, error) {
	if vm.eptpList != nil {
		return vm.eptpList, nil
	}
	list, err := ept.NewList(h.pm)
	if err != nil {
		return nil, fmt.Errorf("hv: vm %q: %w", vm.name, err)
	}
	if err := list.Set(0, vm.defaultEPT.Pointer()); err != nil {
		return nil, err
	}
	vm.eptpList = list
	s := vm.vcpu.VMCS()
	s.VMFuncEnabled = true
	s.EPTPListAddr = list.Addr()
	vm.vcpu.SetVMCS(s)
	return list, nil
}

// EPTPList returns the VM's EPTP list, or nil if VMFUNC is not enabled.
func (vm *VM) EPTPList() *ept.List { return vm.eptpList }

// Run executes a guest program on the VM's vCPU. It is a thin wrapper that
// exists to keep call sites honest about *where* code runs.
func (vm *VM) Run(program func(*cpu.VCPU) error) error {
	if vm.Dead() {
		return fmt.Errorf("hv: vm %q is dead", vm.name)
	}
	return program(vm.vcpu)
}

// GuestRead copies guest-physical memory out through the VM's *default*
// context, as the host does when servicing a hypercall (it walks the
// guest's tables regardless of permissions — the host is trusted).
// Host-side copy work is charged to the guest's clock: the hypercall is
// synchronous on that core.
func (vm *VM) GuestRead(gpa mem.GPA, p []byte) error {
	vm.vcpu.Charge(vm.hv.cost.CopyCost(len(p)))
	return vm.eachPage(gpa, len(p), func(hpa mem.HPA, off, chunk int) error {
		return vm.hv.pm.Read(hpa, p[off:off+chunk])
	})
}

// GuestWrite copies data into guest-physical memory through the VM's
// default context.
func (vm *VM) GuestWrite(gpa mem.GPA, p []byte) error {
	vm.vcpu.Charge(vm.hv.cost.CopyCost(len(p)))
	return vm.eachPage(gpa, len(p), func(hpa mem.HPA, off, chunk int) error {
		return vm.hv.pm.Write(hpa, p[off:off+chunk])
	})
}

func (vm *VM) eachPage(gpa mem.GPA, n int, fn func(hpa mem.HPA, off, chunk int) error) error {
	done := 0
	for done < n {
		g := gpa + mem.GPA(done)
		chunk := mem.PageSize - int(g.Offset())
		if chunk > n-done {
			chunk = n - done
		}
		frame, perm, err := vm.defaultEPT.Lookup(g)
		if err != nil {
			return err
		}
		if perm == 0 {
			return fmt.Errorf("hv: vm %q: %v not mapped in default context", vm.name, g)
		}
		if err := fn(frame+mem.HPA(g.Offset()), done, chunk); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

// DestroyVM tears a guest down, releasing RAM, table frames and the EPTP
// list. The VM must not be used afterwards.
func (h *Hypervisor) DestroyVM(vm *VM) error {
	if _, ok := h.vms[vm.id]; !ok {
		return fmt.Errorf("hv: vm %q already destroyed", vm.name)
	}
	delete(h.vms, vm.id)
	delete(h.byVCPU, vm.vcpu.ID())
	vm.dead = true
	// The vCPU must not outlive its VM: with a warm TLB it would still
	// reach the freed frames, which the next guest is handed.
	vm.vcpu.Kill()
	vm.vcpu.TLB().Flush()
	h.trace.Emit(vm.vcpu.Clock().Now(), vm.name, trace.KindVMDestroy, "releasing %d RAM pages", len(vm.ramPages))
	if vm.eptpList != nil {
		if err := vm.eptpList.Destroy(); err != nil {
			return err
		}
	}
	return h.release(vm.defaultEPT, vm.ramPages)
}
