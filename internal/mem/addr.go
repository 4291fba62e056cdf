// Package mem models the host physical memory of the simulated machine:
// 4 KiB frames handed out by a frame allocator, addressed by typed
// physical/guest-physical/guest-virtual addresses.
//
// Every byte that the ELISA reproduction shares between VMs lives in this
// memory; guests reach it only through EPT translations (package ept) via
// vCPU accessors (package cpu), which is what makes the isolation tests
// meaningful: a mapping that does not exist is a byte that cannot be read.
//
// PhysMem also keeps one dirty bit per frame, set by every write after its
// bytes land and cleared by TakeDirty. Host code that polls guest-writable
// memory uses it to learn, with one atomic load, that nobody has written a
// frame since its last look (see PhysMem for the one-observer contract).
package mem

import "fmt"

// PageSize is the only page size the simulated machine supports.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageMask masks the in-page offset bits.
const PageMask = PageSize - 1

// HPA is a host-physical address.
type HPA uint64

// GPA is a guest-physical address (the input of an EPT translation).
type GPA uint64

// GVA is a guest-virtual address (the input of a guest page-table walk).
type GVA uint64

// Frame numbers for each address space.
type (
	// HFN is a host frame number: HPA >> PageShift.
	HFN uint64
	// GFN is a guest frame number: GPA >> PageShift.
	GFN uint64
)

// Frame returns the host frame containing the address.
func (a HPA) Frame() HFN { return HFN(a >> PageShift) }

// Offset returns the in-page offset of the address.
func (a HPA) Offset() uint64 { return uint64(a) & PageMask }

// PageAligned reports whether the address is at a page boundary.
func (a HPA) PageAligned() bool { return a.Offset() == 0 }

// String renders the address with its hpa: tag.
func (a HPA) String() string { return fmt.Sprintf("hpa:%#x", uint64(a)) }

// Frame returns the guest frame containing the address.
func (a GPA) Frame() GFN { return GFN(a >> PageShift) }

// Offset returns the in-page offset of the address.
func (a GPA) Offset() uint64 { return uint64(a) & PageMask }

// PageAligned reports whether the address is at a page boundary.
func (a GPA) PageAligned() bool { return a.Offset() == 0 }

// String renders the address with its gpa: tag.
func (a GPA) String() string { return fmt.Sprintf("gpa:%#x", uint64(a)) }

// Page returns the guest-physical address of the start of the frame.
func (f GFN) Page() GPA { return GPA(f) << PageShift }

// Page returns the host-physical address of the start of the frame.
func (f HFN) Page() HPA { return HPA(f) << PageShift }

// Offset returns the in-page offset of the address.
func (a GVA) Offset() uint64 { return uint64(a) & PageMask }

// PageBase returns the page-aligned base of the address.
func (a GVA) PageBase() GVA { return a &^ GVA(PageMask) }

// String renders the address with its gva: tag.
func (a GVA) String() string { return fmt.Sprintf("gva:%#x", uint64(a)) }

// PagesFor returns how many whole pages are needed to hold n bytes.
func PagesFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + PageSize - 1) / PageSize
}
