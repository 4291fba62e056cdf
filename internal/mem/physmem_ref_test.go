package mem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// refPhysMem is the flat PhysMem this package shipped before frames were
// backed lazily: one eagerly allocated byte array, an eager LIFO free
// list and an in-use map. It is kept verbatim (renamed) as the reference
// model that FuzzPhysMemMatchesReference drives in lockstep with
// PhysMem; it is not used by any non-test code.
type refPhysMem struct {
	data   []byte
	frames int
	free   []HFN // LIFO free list
	inUse  map[HFN]bool
	dirty  []uint64 // bit f%64 of word f/64: frame f written since its last TakeDirty
}

// newRefPhysMem creates a physical memory of the given size, which must be a
// positive multiple of PageSize.
func newRefPhysMem(size int) (*refPhysMem, error) {
	if size <= 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: physical size %d is not a positive multiple of %d", size, PageSize)
	}
	frames := size / PageSize
	if frames < 2 {
		return nil, fmt.Errorf("mem: physical size %d leaves no allocatable frames (frame 0 is reserved)", size)
	}
	pm := &refPhysMem{
		data:   make([]byte, size),
		frames: frames,
		free:   make([]HFN, 0, frames-1),
		inUse:  map[HFN]bool{0: true},
		dirty:  make([]uint64, (frames+63)/64),
	}
	// Frame 0 is permanently reserved (like firmware-reserved low memory)
	// so that physical address 0 is never a valid EPT root or EPTP-list
	// page — 0 doubles as the nil/revoked sentinel throughout the model.
	// Push the rest so that allocation order is ascending (frame 1 first):
	// deterministic layouts make failures reproducible.
	for f := frames - 1; f >= 1; f-- {
		pm.free = append(pm.free, HFN(f))
	}
	return pm, nil
}

// Size returns the physical memory size in bytes.
func (pm *refPhysMem) Size() int { return len(pm.data) }

// Frames returns the total number of frames.
func (pm *refPhysMem) Frames() int { return pm.frames }

// FreeFrames returns the number of currently unallocated frames.
func (pm *refPhysMem) FreeFrames() int { return len(pm.free) }

// AllocFrame allocates one zeroed frame.
func (pm *refPhysMem) AllocFrame() (HFN, error) {
	if len(pm.free) == 0 {
		return 0, fmt.Errorf("mem: out of physical frames (%d total)", pm.frames)
	}
	f := pm.free[len(pm.free)-1]
	pm.free = pm.free[:len(pm.free)-1]
	pm.inUse[f] = true
	// Frames are handed out zeroed, like a real host's page allocator
	// must for isolation.
	base := int(f) * PageSize
	clear(pm.data[base : base+PageSize])
	pm.markFrame(f)
	return f, nil
}

// AllocFrames allocates n zeroed frames. On failure nothing is allocated.
func (pm *refPhysMem) AllocFrames(n int) ([]HFN, error) {
	if n < 0 {
		return nil, fmt.Errorf("mem: AllocFrames(%d): negative count", n)
	}
	if len(pm.free) < n {
		return nil, fmt.Errorf("mem: out of physical frames: need %d, have %d", n, len(pm.free))
	}
	out := make([]HFN, n)
	for i := range out {
		f, err := pm.AllocFrame()
		if err != nil { // unreachable given the check above
			for _, g := range out[:i] {
				pm.FreeFrame(g)
			}
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

// FreeFrame returns a frame to the allocator. Freeing an unallocated frame
// is a double-free bug and returns an error.
func (pm *refPhysMem) FreeFrame(f HFN) error {
	if int(f) >= pm.frames {
		return fmt.Errorf("mem: FreeFrame(%d): beyond physical memory", f)
	}
	if f == 0 {
		return fmt.Errorf("mem: FreeFrame(0): frame 0 is permanently reserved")
	}
	if !pm.inUse[f] {
		return fmt.Errorf("mem: FreeFrame(%d): frame is not allocated", f)
	}
	delete(pm.inUse, f)
	pm.free = append(pm.free, f)
	return nil
}

// InUse reports whether frame f is currently allocated.
func (pm *refPhysMem) InUse(f HFN) bool { return pm.inUse[f] }

func (pm *refPhysMem) check(addr HPA, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: negative length %d at %v", n, addr)
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(len(pm.data)) || end < uint64(addr) {
		return fmt.Errorf("mem: access [%v, +%d) beyond physical memory size %d", addr, n, len(pm.data))
	}
	return nil
}

// Read copies len(p) bytes starting at addr into p.
func (pm *refPhysMem) Read(addr HPA, p []byte) error {
	if err := pm.check(addr, len(p)); err != nil {
		return err
	}
	copy(p, pm.data[addr:])
	return nil
}

// Write copies p into physical memory starting at addr.
func (pm *refPhysMem) Write(addr HPA, p []byte) error {
	if err := pm.check(addr, len(p)); err != nil {
		return err
	}
	copy(pm.data[addr:], p)
	pm.mark(addr, len(p))
	return nil
}

// ReadU64 reads a little-endian 64-bit word. Naturally aligned accesses
// are atomic, as on real hardware: an EPTP-list entry read by VMFUNC
// microcode on one CPU while the hypervisor rewrites it on another sees
// either the old or the new pointer, never a torn mix. (The simulation
// assumes a little-endian host, which every supported platform is.)
func (pm *refPhysMem) ReadU64(addr HPA) (uint64, error) {
	if err := pm.check(addr, 8); err != nil {
		return 0, err
	}
	if addr%8 == 0 {
		return atomic.LoadUint64((*uint64)(unsafe.Pointer(&pm.data[addr]))), nil
	}
	return binary.LittleEndian.Uint64(pm.data[addr:]), nil
}

// WriteU64 writes a little-endian 64-bit word; naturally aligned writes
// are atomic (see ReadU64).
func (pm *refPhysMem) WriteU64(addr HPA, v uint64) error {
	if err := pm.check(addr, 8); err != nil {
		return err
	}
	if addr%8 == 0 {
		atomic.StoreUint64((*uint64)(unsafe.Pointer(&pm.data[addr])), v)
	} else {
		binary.LittleEndian.PutUint64(pm.data[addr:], v)
	}
	pm.mark(addr, 8)
	return nil
}

// ReadU32 reads a little-endian 32-bit word.
func (pm *refPhysMem) ReadU32(addr HPA) (uint32, error) {
	if err := pm.check(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(pm.data[addr:]), nil
}

// WriteU32 writes a little-endian 32-bit word.
func (pm *refPhysMem) WriteU32(addr HPA, v uint32) error {
	if err := pm.check(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(pm.data[addr:], v)
	pm.mark(addr, 4)
	return nil
}

// Zero clears n bytes starting at addr.
func (pm *refPhysMem) Zero(addr HPA, n int) error {
	if err := pm.check(addr, n); err != nil {
		return err
	}
	clear(pm.data[addr : uint64(addr)+uint64(n)])
	pm.mark(addr, n)
	return nil
}

// AllocFramesContiguous allocates n physically contiguous frames whose
// first frame number is a multiple of align (in frames). Huge-page
// mappings need this: a 2 MiB EPT entry covers 512 consecutive, aligned
// host frames. Returns the frames in ascending order, zeroed.
func (pm *refPhysMem) AllocFramesContiguous(n, align int) ([]HFN, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mem: AllocFramesContiguous(%d): count must be positive", n)
	}
	if align <= 0 {
		align = 1
	}
	inFree := make(map[HFN]bool, len(pm.free))
	for _, f := range pm.free {
		inFree[f] = true
	}
	for base := align; base+n <= pm.frames; base += align {
		run := true
		for i := 0; i < n; i++ {
			if !inFree[HFN(base+i)] {
				run = false
				break
			}
		}
		if !run {
			continue
		}
		// Claim the run: remove from the free list, mark in use, zero.
		claim := make(map[HFN]bool, n)
		out := make([]HFN, n)
		for i := 0; i < n; i++ {
			f := HFN(base + i)
			claim[f] = true
			out[i] = f
			pm.inUse[f] = true
		}
		kept := pm.free[:0]
		for _, f := range pm.free {
			if !claim[f] {
				kept = append(kept, f)
			}
		}
		pm.free = kept
		start := base * PageSize
		clear(pm.data[start : start+n*PageSize])
		for _, f := range out {
			pm.markFrame(f)
		}
		return out, nil
	}
	return nil, fmt.Errorf("mem: no contiguous run of %d frames aligned to %d", n, align)
}

// mark sets the dirty bit of every frame [addr, addr+n) touches; n == 0
// touches none. Callers have bounds-checked the range and stored the
// bytes first (see PhysMem).
func (pm *refPhysMem) mark(addr HPA, n int) {
	if n == 0 {
		return
	}
	for f, last := addr.Frame(), (addr + HPA(n) - 1).Frame(); f <= last; f++ {
		pm.markFrame(f)
	}
}

// markFrame sets frame f's dirty bit. The common case — the bit is
// already set because nobody has taken it since the last write — is one
// atomic load; setBit does the rest.
func (pm *refPhysMem) markFrame(f HFN) {
	w, bit := &pm.dirty[f/64], uint64(1)<<(f%64)
	if atomic.LoadUint64(w)&bit == 0 {
		setBit(w, bit)
	}
}

// Dirty reports whether frame f has been written since its last
// TakeDirty (a frame nobody has taken yet reads dirty from its
// allocation on). Out-of-range frames report true: "might have changed"
// is the only safe answer about memory the bitmap does not cover.
func (pm *refPhysMem) Dirty(f HFN) bool {
	if int(f) >= pm.frames {
		return true
	}
	return atomic.LoadUint64(&pm.dirty[f/64])&(uint64(1)<<(f%64)) != 0
}

// TakeDirty clears frame f's dirty bit and reports whether it was set.
// Call it before reading the frame: a write racing the read either lands
// before the clear (and the read sees it) or sets the bit again. Taking
// is destructive, so a frame has at most one observer (see PhysMem).
// Out-of-range frames report true and change nothing.
func (pm *refPhysMem) TakeDirty(f HFN) bool {
	if int(f) >= pm.frames {
		return true
	}
	w, bit := &pm.dirty[f/64], uint64(1)<<(f%64)
	for {
		old := atomic.LoadUint64(w)
		if old&bit == 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old&^bit) {
			return true
		}
	}
}
