package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// chunk is the host memory behind one backed frame.
type chunk [PageSize]byte

// PhysMem is the host physical memory of the simulated machine: a fixed
// number of 4 KiB frames, a frame allocator, and host memory that
// follows the frames that have been written rather than the machine's
// size. The hypervisor owns the only reference; everyone else sees
// slices of it through translations.
//
// Frames are backed lazily. A page directory holds one chunk pointer per
// frame; the first write to a frame backs it, and a read of a frame
// nobody has written returns zeros. Chunks are carved from slabs of 64,
// so first writes cost one host allocation per 256 KiB. FreeFrame takes
// the frame's chunk back, zeroes it and keeps it for the next first
// write, so AllocFrame still hands out zeroed memory and allocation
// churn allocates nothing.
//
// The allocator hands frames out in a fixed order: the most recently
// freed frame first (a LIFO stack), then the lowest frame never handed
// out (a bump pointer that skips frames AllocFramesContiguous claimed
// ahead of it). Layouts are therefore deterministic, which makes
// failures reproducible.
//
// Accesses are bounds-checked against the physical size; an out-of-range
// access is a bug in the caller (the hypervisor or a device model), not a
// guest-visible fault, so it returns an error rather than a simulated
// machine check.
//
// Every writer also marks the frames it touched in a dirty bitmap, one
// bit per frame (2 KiB for a 64 MiB machine), set after the bytes have
// landed. A host-side observer that wants to know whether anyone wrote a
// frame since it last looked clears the bit with TakeDirty *before*
// reading the frame: any write that its read misses then sets the bit
// again, so the next TakeDirty or Dirty reports it. Clearing is
// destructive, so each frame has at most one observer; today that is the
// manager poller, on the header frame of every call ring. Zero marks the
// frames it covers even where they are unbacked (and leaves them so);
// FreeFrame's scrub is not a write and marks nothing.
//
// Reads and writes may run concurrently with each other; allocation and
// freeing are serialised by the caller (the hypervisor's lock).
type PhysMem struct {
	// frames and dirty lead: the poller's Dirty reads nothing else.
	frames int
	dirty  []uint64                // bit f%64 of word f/64: frame f written since its last TakeDirty
	dir    []atomic.Pointer[chunk] // frame -> its bytes; nil reads as zeros
	used   []uint64                // bit per frame: allocated (frame 0 always)
	ahead  []uint64                // bit per frame: claimed by AllocFramesContiguous before the bump pointer reached it
	bump   HFN                     // lowest frame AllocFrame has not yet handed out in ascending order
	freed  []HFN                   // LIFO stack of freed frames, handed out before the bump pointer moves
	nfree  int

	spareMu sync.Mutex
	spare   []*chunk // zeroed chunks taken back by FreeFrame, reused by the next first write
	slab    []chunk  // zeroed chunks carved from the last host allocation, not yet used
}

// slabChunks is how many chunks one host allocation carves: first writes
// cost one allocation per 64 frames (256 KiB), not one per frame.
const slabChunks = 64

// NewPhysMem creates a physical memory of the given size, which must be a
// positive multiple of PageSize.
func NewPhysMem(size int) (*PhysMem, error) {
	if size <= 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: physical size %d is not a positive multiple of %d", size, PageSize)
	}
	frames := size / PageSize
	if frames < 2 {
		return nil, fmt.Errorf("mem: physical size %d leaves no allocatable frames (frame 0 is reserved)", size)
	}
	words := (frames + 63) / 64
	pm := &PhysMem{
		frames: frames,
		dir:    make([]atomic.Pointer[chunk], frames),
		used:   make([]uint64, words),
		dirty:  make([]uint64, words),
		ahead:  make([]uint64, words),
		bump:   1,
		nfree:  frames - 1,
	}
	// Frame 0 is permanently reserved (like firmware-reserved low memory)
	// so that physical address 0 is never a valid EPT root or EPTP-list
	// page — 0 doubles as the nil/revoked sentinel throughout the model.
	pm.used[0] = 1
	return pm, nil
}

// MustNewPhysMem is NewPhysMem that panics on error; for tests and examples
// with constant sizes.
func MustNewPhysMem(size int) *PhysMem {
	pm, err := NewPhysMem(size)
	if err != nil {
		panic(err)
	}
	return pm
}

// Size returns the physical memory size in bytes.
func (pm *PhysMem) Size() int { return pm.frames * PageSize }

// Frames returns the total number of frames.
func (pm *PhysMem) Frames() int { return pm.frames }

// FreeFrames returns the number of currently unallocated frames.
func (pm *PhysMem) FreeFrames() int { return pm.nfree }

// AllocFrame allocates one zeroed frame.
func (pm *PhysMem) AllocFrame() (HFN, error) {
	if pm.nfree == 0 {
		return 0, fmt.Errorf("mem: out of physical frames (%d total)", pm.frames)
	}
	var f HFN
	if n := len(pm.freed); n > 0 {
		f = pm.freed[n-1]
		pm.freed = pm.freed[:n-1]
	} else {
		for testBit(pm.ahead, pm.bump) {
			pm.bump++
		}
		f = pm.bump
		pm.bump++
	}
	pm.claim(f)
	return f, nil
}

// AllocFrames allocates n zeroed frames. On failure nothing is allocated.
func (pm *PhysMem) AllocFrames(n int) ([]HFN, error) {
	if n < 0 {
		return nil, fmt.Errorf("mem: AllocFrames(%d): negative count", n)
	}
	if pm.nfree < n {
		return nil, fmt.Errorf("mem: out of physical frames: need %d, have %d", n, pm.nfree)
	}
	out := make([]HFN, n)
	for i := range out {
		out[i], _ = pm.AllocFrame() // cannot fail: n frames are free
	}
	return out, nil
}

// AllocFramesContiguous allocates n physically contiguous frames whose
// first frame number is a multiple of align (in frames). Huge-page
// mappings need this: a 2 MiB EPT entry covers 512 consecutive, aligned
// host frames. Returns the frames in ascending order, zeroed; the run is
// the lowest free one.
func (pm *PhysMem) AllocFramesContiguous(n, align int) ([]HFN, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mem: AllocFramesContiguous(%d): count must be positive", n)
	}
	if align <= 0 {
		align = 1
	}
	for base := align; base+n <= pm.frames; base += align {
		if u := pm.firstUsed(HFN(base), n); u >= 0 {
			base = u - u%align // the next candidate starts past frame u
			continue
		}
		out := make([]HFN, n)
		stacked := false
		for i := range out {
			f := HFN(base + i)
			out[i] = f
			if f >= pm.bump && !testBit(pm.ahead, f) {
				setPlainBit(pm.ahead, f) // the bump pointer will skip it
			} else {
				stacked = true // a free frame the bump pointer passed sits on the stack
			}
			pm.claim(f)
		}
		if stacked {
			kept := pm.freed[:0]
			for _, f := range pm.freed {
				if f < out[0] || f > out[n-1] {
					kept = append(kept, f)
				}
			}
			pm.freed = kept
		}
		return out, nil
	}
	return nil, fmt.Errorf("mem: no contiguous run of %d frames aligned to %d", n, align)
}

// firstUsed returns the first allocated frame in [base, base+n), or -1.
func (pm *PhysMem) firstUsed(base HFN, n int) int {
	for f := base; f < base+HFN(n); f++ {
		if testBit(pm.used, f) {
			return int(f)
		}
	}
	return -1
}

// claim marks free frame f allocated and hands it out zeroed and dirty.
// A frame is normally unbacked here (FreeFrame took its chunk), but a
// caller may have written a frame it never allocated.
func (pm *PhysMem) claim(f HFN) {
	setPlainBit(pm.used, f)
	pm.nfree--
	if c := pm.dir[f].Load(); c != nil {
		clear(c[:])
	}
	pm.markFrame(f)
}

// FreeFrame returns a frame to the allocator and scrubs it: its chunk
// goes back, zeroed, for reuse, and the frame reads as zeros until it
// is written again. Freeing an unallocated frame is a double-free bug
// and returns an error.
func (pm *PhysMem) FreeFrame(f HFN) error {
	if int(f) >= pm.frames {
		return fmt.Errorf("mem: FreeFrame(%d): beyond physical memory", f)
	}
	if f == 0 {
		return fmt.Errorf("mem: FreeFrame(0): frame 0 is permanently reserved")
	}
	if !testBit(pm.used, f) {
		return fmt.Errorf("mem: FreeFrame(%d): frame is not allocated", f)
	}
	pm.used[f/64] &^= 1 << (f % 64)
	pm.nfree++
	pm.freed = append(pm.freed, f)
	if c := pm.dir[f].Swap(nil); c != nil {
		clear(c[:])
		pm.spareMu.Lock()
		pm.spare = append(pm.spare, c)
		pm.spareMu.Unlock()
	}
	return nil
}

// InUse reports whether frame f is currently allocated.
func (pm *PhysMem) InUse(f HFN) bool { return int(f) < pm.frames && testBit(pm.used, f) }

// backed returns frame f's chunk, backing the frame if this is its
// first write.
func (pm *PhysMem) backed(f HFN) *chunk {
	if c := pm.dir[f].Load(); c != nil {
		return c
	}
	return pm.back(f)
}

// back backs frame f with a spare chunk or one carved from a slab.
// Writers racing to back the same frame agree on one chunk: the loser's
// chunk, still zero, goes back to the spares.
func (pm *PhysMem) back(f HFN) *chunk {
	for {
		if c := pm.dir[f].Load(); c != nil {
			return c
		}
		var c *chunk
		pm.spareMu.Lock()
		if n := len(pm.spare); n > 0 {
			c = pm.spare[n-1]
			pm.spare[n-1] = nil
			pm.spare = pm.spare[:n-1]
		} else {
			if len(pm.slab) == 0 {
				pm.slab = make([]chunk, min(slabChunks, pm.frames))
			}
			c = &pm.slab[0]
			pm.slab = pm.slab[1:]
		}
		pm.spareMu.Unlock()
		if pm.dir[f].CompareAndSwap(nil, c) {
			return c
		}
		pm.spareMu.Lock()
		pm.spare = append(pm.spare, c)
		pm.spareMu.Unlock()
	}
}

func (pm *PhysMem) check(addr HPA, n int) error {
	if n < 0 {
		return fmt.Errorf("mem: negative length %d at %v", n, addr)
	}
	end := uint64(addr) + uint64(n)
	if end > uint64(pm.Size()) || end < uint64(addr) {
		return fmt.Errorf("mem: access [%v, +%d) beyond physical memory size %d", addr, n, pm.Size())
	}
	return nil
}

// span returns the length of the piece of [addr, addr+n) that lies in
// addr's frame.
func span(addr HPA, n int) int {
	return min(n, PageSize-int(addr.Offset()))
}

// Read copies len(p) bytes starting at addr into p.
func (pm *PhysMem) Read(addr HPA, p []byte) error {
	if err := pm.check(addr, len(p)); err != nil {
		return err
	}
	pm.read(addr, p)
	return nil
}

// read is Read after the bounds check: frame by frame, zeros where a
// frame is unbacked.
func (pm *PhysMem) read(addr HPA, p []byte) {
	for len(p) > 0 {
		k := span(addr, len(p))
		if c := pm.dir[addr.Frame()].Load(); c != nil {
			copy(p[:k], c[addr.Offset():])
		} else {
			clear(p[:k])
		}
		p = p[k:]
		addr += HPA(k)
	}
}

// Write copies p into physical memory starting at addr.
func (pm *PhysMem) Write(addr HPA, p []byte) error {
	if err := pm.check(addr, len(p)); err != nil {
		return err
	}
	pm.write(addr, p)
	return nil
}

// write is Write after the bounds check: it backs each frame it touches
// and marks it dirty once the bytes have landed.
func (pm *PhysMem) write(addr HPA, p []byte) {
	for len(p) > 0 {
		k := span(addr, len(p))
		f := addr.Frame()
		copy(pm.backed(f)[addr.Offset():], p[:k])
		pm.markFrame(f)
		p = p[k:]
		addr += HPA(k)
	}
}

// ReadU64 reads a little-endian 64-bit word. Naturally aligned accesses
// are atomic, as on real hardware: an EPTP-list entry read by VMFUNC
// microcode on one CPU while the hypervisor rewrites it on another sees
// either the old or the new pointer, never a torn mix. (The simulation
// assumes a little-endian host, which every supported platform is.)
func (pm *PhysMem) ReadU64(addr HPA) (uint64, error) {
	if err := pm.check(addr, 8); err != nil {
		return 0, err
	}
	if addr%8 == 0 {
		c := pm.dir[addr.Frame()].Load()
		if c == nil {
			return 0, nil
		}
		return atomic.LoadUint64((*uint64)(unsafe.Pointer(&c[addr.Offset()]))), nil
	}
	var b [8]byte
	pm.read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word; naturally aligned writes
// are atomic (see ReadU64).
func (pm *PhysMem) WriteU64(addr HPA, v uint64) error {
	if err := pm.check(addr, 8); err != nil {
		return err
	}
	if addr%8 != 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		pm.write(addr, b[:])
		return nil
	}
	f := addr.Frame()
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&pm.backed(f)[addr.Offset()])), v)
	pm.markFrame(f)
	return nil
}

// ReadU32 reads a little-endian 32-bit word.
func (pm *PhysMem) ReadU32(addr HPA) (uint32, error) {
	if err := pm.check(addr, 4); err != nil {
		return 0, err
	}
	var b [4]byte
	pm.read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 writes a little-endian 32-bit word.
func (pm *PhysMem) WriteU32(addr HPA, v uint32) error {
	if err := pm.check(addr, 4); err != nil {
		return err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	pm.write(addr, b[:])
	return nil
}

// Zero clears n bytes starting at addr. It marks every frame it covers
// but backs none: an unbacked frame already reads as zeros.
func (pm *PhysMem) Zero(addr HPA, n int) error {
	if err := pm.check(addr, n); err != nil {
		return err
	}
	for n > 0 {
		k := span(addr, n)
		f := addr.Frame()
		if c := pm.dir[f].Load(); c != nil {
			clear(c[addr.Offset() : addr.Offset()+uint64(k)])
		}
		pm.markFrame(f)
		n -= k
		addr += HPA(k)
	}
	return nil
}

// testBit reports bit f of bitmap b.
func testBit(b []uint64, f HFN) bool { return b[f/64]&(1<<(f%64)) != 0 }

// setPlainBit sets bit f of a bitmap only the allocator touches.
func setPlainBit(b []uint64, f HFN) { b[f/64] |= 1 << (f % 64) }

// markFrame sets frame f's dirty bit. The common case — the bit is
// already set because nobody has taken it since the last write — is one
// atomic load; setBit does the rest.
func (pm *PhysMem) markFrame(f HFN) {
	w, bit := &pm.dirty[f/64], uint64(1)<<(f%64)
	if atomic.LoadUint64(w)&bit == 0 {
		setBit(w, bit)
	}
}

// setBit ORs bit into *w. The module targets go1.22, which has no
// atomic.OrUint64, so this is a CAS loop.
func setBit(w *uint64, bit uint64) {
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
			return
		}
	}
}

// Dirty reports whether frame f has been written since its last
// TakeDirty (a frame nobody has taken yet reads dirty from its
// allocation on). Out-of-range frames report true: "might have changed"
// is the only safe answer about memory the bitmap does not cover.
func (pm *PhysMem) Dirty(f HFN) bool {
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
func (pm *PhysMem) TakeDirty(f HFN) bool {
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
