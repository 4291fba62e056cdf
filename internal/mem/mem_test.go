package mem

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewPhysMemValidation(t *testing.T) {
	if _, err := NewPhysMem(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewPhysMem(-PageSize); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewPhysMem(PageSize + 1); err == nil {
		t.Error("unaligned size accepted")
	}
	if _, err := NewPhysMem(PageSize); err == nil {
		t.Error("single-frame memory accepted (frame 0 is reserved)")
	}
	pm, err := NewPhysMem(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Frames() != 4 || pm.Size() != 4*PageSize || pm.FreeFrames() != 3 {
		t.Fatalf("frames=%d size=%d free=%d", pm.Frames(), pm.Size(), pm.FreeFrames())
	}
	if !pm.InUse(0) {
		t.Error("frame 0 not reserved")
	}
}

func TestAllocFrameAscendingAndZeroed(t *testing.T) {
	pm := MustNewPhysMem(3 * PageSize)
	f0, _ := pm.AllocFrame()
	f1, _ := pm.AllocFrame()
	if f0 != 1 || f1 != 2 {
		t.Fatalf("allocation order: got %d,%d want 1,2", f0, f1)
	}
	// Dirty frame 0, free it, re-allocate: must come back zeroed.
	if err := pm.Write(f0.Page(), []byte{0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreeFrame(f0); err != nil {
		t.Fatal(err)
	}
	f2, _ := pm.AllocFrame()
	if f2 != f0 {
		t.Fatalf("LIFO reuse: got %d want %d", f2, f0)
	}
	buf := make([]byte, 2)
	if err := pm.Read(f2.Page(), buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 {
		t.Fatalf("re-allocated frame not zeroed: % x", buf)
	}
}

func TestAllocExhaustion(t *testing.T) {
	pm := MustNewPhysMem(3 * PageSize)
	if _, err := pm.AllocFrames(3); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if pm.FreeFrames() != 2 {
		t.Fatalf("failed AllocFrames leaked: free=%d", pm.FreeFrames())
	}
	if _, err := pm.AllocFrames(2); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocFrame(); err == nil {
		t.Fatal("allocation past exhaustion accepted")
	}
}

func TestDoubleFree(t *testing.T) {
	pm := MustNewPhysMem(2 * PageSize)
	f, _ := pm.AllocFrame()
	if err := pm.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreeFrame(f); err == nil {
		t.Fatal("double free accepted")
	}
	if err := pm.FreeFrame(HFN(99)); err == nil {
		t.Fatal("free of out-of-range frame accepted")
	}
	if err := pm.FreeFrame(HFN(0)); err == nil {
		t.Fatal("free of reserved frame 0 accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	pm := MustNewPhysMem(2 * PageSize)
	msg := []byte("exit-less, isolated, and shared")
	if err := pm.Write(100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := pm.Read(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestBoundsChecks(t *testing.T) {
	pm := MustNewPhysMem(2 * PageSize)
	end := HPA(pm.Size())
	if err := pm.Write(end-1, []byte{1, 2}); err == nil {
		t.Error("write past end accepted")
	}
	if err := pm.Read(end, make([]byte, 1)); err == nil {
		t.Error("read past end accepted")
	}
	if _, err := pm.ReadU64(end - 4); err == nil {
		t.Error("u64 read past end accepted")
	}
	if err := pm.Zero(HPA(10), -1); err == nil {
		t.Error("negative zero length accepted")
	}
}

func TestU64U32RoundTrip(t *testing.T) {
	pm := MustNewPhysMem(2 * PageSize)
	if err := pm.WriteU64(16, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := pm.ReadU64(16)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("u64: %x err=%v", v, err)
	}
	if err := pm.WriteU32(32, 0x1234abcd); err != nil {
		t.Fatal(err)
	}
	w, err := pm.ReadU32(32)
	if err != nil || w != 0x1234abcd {
		t.Fatalf("u32: %x err=%v", w, err)
	}
}

func TestZero(t *testing.T) {
	pm := MustNewPhysMem(2 * PageSize)
	_ = pm.Write(0, bytes.Repeat([]byte{0xff}, 64))
	if err := pm.Zero(8, 16); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	_ = pm.Read(0, buf)
	for i, b := range buf {
		want := byte(0xff)
		if i >= 8 && i < 24 {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestAddrHelpers(t *testing.T) {
	a := HPA(5*PageSize + 123)
	if a.Frame() != 5 || a.Offset() != 123 || a.PageAligned() {
		t.Fatalf("HPA helpers wrong: %v %v %v", a.Frame(), a.Offset(), a.PageAligned())
	}
	g := GPA(7 * PageSize)
	if g.Frame() != 7 || !g.PageAligned() {
		t.Fatalf("GPA helpers wrong")
	}
	if GFN(7).Page() != g {
		t.Fatalf("GFN.Page wrong")
	}
	if HFN(5).Page() != HPA(5*PageSize) {
		t.Fatalf("HFN.Page wrong")
	}
	v := GVA(3*PageSize + 17)
	if v.Offset() != 17 || v.PageBase() != GVA(3*PageSize) {
		t.Fatalf("GVA helpers wrong")
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-1, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {3 * PageSize, 3},
	}
	for _, c := range cases {
		if got := PagesFor(c.n); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// Property: any in-bounds write is read back identically and does not
// disturb a disjoint region.
func TestReadWriteProperty(t *testing.T) {
	pm := MustNewPhysMem(4 * PageSize)
	sentinel := bytes.Repeat([]byte{0x5a}, 64)
	_ = pm.Write(HPA(3*PageSize), sentinel)
	f := func(off uint16, data []byte) bool {
		if len(data) > 256 {
			data = data[:256]
		}
		addr := HPA(off % (2 * PageSize)) // stays clear of the sentinel page
		if err := pm.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := pm.Read(addr, got); err != nil {
			return false
		}
		if !bytes.Equal(got, data) {
			return false
		}
		chk := make([]byte, 64)
		_ = pm.Read(HPA(3*PageSize), chk)
		return bytes.Equal(chk, sentinel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: alloc/free cycles conserve the frame count.
func TestAllocFreeConservation(t *testing.T) {
	pm := MustNewPhysMem(16 * PageSize)
	f := func(k uint8) bool {
		n := int(k%15) + 1
		fs, err := pm.AllocFrames(n)
		if err != nil {
			return false
		}
		for _, fr := range fs {
			if err := pm.FreeFrame(fr); err != nil {
				return false
			}
		}
		return pm.FreeFrames() == 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFramesContiguous(t *testing.T) {
	pm := MustNewPhysMem(64 * PageSize)
	fs, err := pm.AllocFramesContiguous(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 8 || fs[0]%8 != 0 {
		t.Fatalf("run %v not aligned", fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] != fs[i-1]+1 {
			t.Fatalf("not contiguous: %v", fs)
		}
	}
	// The run is really allocated.
	for _, f := range fs {
		if !pm.InUse(f) {
			t.Fatalf("frame %d not marked in use", f)
		}
	}
	// Free them all; a bigger aligned run than available fails cleanly.
	for _, f := range fs {
		if err := pm.FreeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pm.AllocFramesContiguous(128, 1); err == nil {
		t.Fatal("impossible run accepted")
	}
	if _, err := pm.AllocFramesContiguous(0, 1); err == nil {
		t.Fatal("zero count accepted")
	}
	// Fragment the space, then ask for an aligned run that must skip the
	// fragmented region.
	lone, _ := pm.AllocFrame() // occupies the lowest free frame
	fs2, err := pm.AllocFramesContiguous(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs2 {
		if f == lone {
			t.Fatal("contiguous run overlaps an allocated frame")
		}
	}
}

// takeAll clears every frame's dirty bit and returns the frames that
// had one, in ascending order.
func takeAll(pm *PhysMem) []HFN {
	var out []HFN
	for f := 0; f < pm.Frames(); f++ {
		if pm.TakeDirty(HFN(f)) {
			out = append(out, HFN(f))
		}
	}
	return out
}

// TestDirtyBitmapMarksExactlyTouchedFrames: each writer marks the frames
// its bytes land in and nothing else; reads, failed writes and empty
// writes mark nothing.
func TestDirtyBitmapMarksExactlyTouchedFrames(t *testing.T) {
	pm := MustNewPhysMem(8 * PageSize)
	takeAll(pm)
	page := func(f int) HPA { return HFN(f).Page() }
	cases := []struct {
		name  string
		write func() error
		want  []HFN
	}{
		{"Write", func() error { return pm.Write(page(2)+100, []byte{1, 2, 3}) }, []HFN{2}},
		{"Write across a page boundary", func() error { return pm.Write(page(4)-2, []byte{1, 2, 3, 4}) }, []HFN{3, 4}},
		{"Write spanning three frames", func() error { return pm.Write(page(1)+PageSize-1, make([]byte, PageSize+2)) }, []HFN{1, 2, 3}},
		{"empty Write", func() error { return pm.Write(page(5), nil) }, nil},
		{"WriteU64 aligned", func() error { return pm.WriteU64(page(6)+8, 7) }, []HFN{6}},
		{"WriteU64 unaligned across a boundary", func() error { return pm.WriteU64(page(6)-4, 7) }, []HFN{5, 6}},
		{"WriteU32", func() error { return pm.WriteU32(page(7)+4, 7) }, []HFN{7}},
		{"Zero", func() error { return pm.Zero(page(1)+PageSize-8, 16) }, []HFN{1, 2}},
		{"empty Zero", func() error { return pm.Zero(page(3), 0) }, nil},
		{"AllocFrame", func() error { _, err := pm.AllocFrame(); return err }, []HFN{1}},
		{"AllocFrames", func() error { _, err := pm.AllocFrames(2); return err }, []HFN{2, 3}},
		{"AllocFramesContiguous", func() error { _, err := pm.AllocFramesContiguous(2, 2); return err }, []HFN{4, 5}},
	}
	for _, c := range cases {
		if err := c.write(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := takeAll(pm); !equalFrames(got, c.want) {
			t.Errorf("%s marked %v, want %v", c.name, got, c.want)
		}
	}

	// Reads, frees and rejected writes leave the bitmap untouched.
	end := HPA(pm.Size())
	buf := make([]byte, 16)
	_ = pm.Read(page(1), buf)
	_, _ = pm.ReadU64(page(2))
	_, _ = pm.ReadU32(page(3))
	_ = pm.FreeFrame(5)
	if pm.Write(end-1, []byte{1, 2}) == nil || pm.WriteU64(end-4, 1) == nil ||
		pm.WriteU32(end-2, 1) == nil || pm.Zero(end-1, 2) == nil || pm.Zero(0, -1) == nil {
		t.Fatal("out-of-range write accepted")
	}
	if got := takeAll(pm); got != nil {
		t.Errorf("reads and failed writes marked %v", got)
	}
}

func equalFrames(a, b []HFN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTakeDirtyClearsAndReports: TakeDirty reports the bit and clears
// it, Dirty only reports, and frames outside memory read dirty.
func TestTakeDirtyClearsAndReports(t *testing.T) {
	pm := MustNewPhysMem(4 * PageSize)
	if pm.Dirty(1) {
		t.Fatal("a never-allocated frame should start clean")
	}
	if _, err := pm.AllocFrames(2); err != nil {
		t.Fatal(err)
	}
	if !pm.Dirty(1) {
		t.Fatal("a frame nobody has taken should read dirty from its allocation on")
	}
	if !pm.TakeDirty(1) || pm.TakeDirty(1) || pm.Dirty(1) {
		t.Fatal("TakeDirty did not clear the bit it reported")
	}
	if err := pm.WriteU64(HFN(1).Page(), 1); err != nil {
		t.Fatal(err)
	}
	if !pm.Dirty(1) || !pm.Dirty(1) {
		t.Fatal("Dirty missed a write or cleared the bit")
	}
	if !pm.Dirty(2) || !pm.TakeDirty(2) || pm.Dirty(2) {
		t.Fatal("neighbouring frame's bit is not independent")
	}
	if !pm.TakeDirty(1) || pm.Dirty(1) {
		t.Fatal("TakeDirty after a write")
	}
	if !pm.Dirty(HFN(pm.Frames())) || !pm.TakeDirty(HFN(pm.Frames())) {
		t.Fatal("an out-of-range frame must read dirty")
	}
}

// TestDirtyBitmapNoLostWrite runs writers on frames that share one bitmap
// word against an observer that takes their bits: whenever a writer's
// store is newer than what the observer last read, the observer's next
// TakeDirty must report it. Run under -race it also proves the bitmap
// and the stores are properly synchronised.
func TestDirtyBitmapNoLostWrite(t *testing.T) {
	const writers, writes = 4, 2000
	pm := MustNewPhysMem(8 * PageSize)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var seen [writers]uint64 // the observer's latest read of each writer's counter
	var observeErr error
	observer := make(chan struct{})
	go func() {
		defer close(observer)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for w := 0; w < writers; w++ {
				f := HFN(1 + w)
				if !pm.TakeDirty(f) {
					continue
				}
				v, err := pm.ReadU64(f.Page())
				if err != nil {
					observeErr = err
					return
				}
				seen[w] = v
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); i <= writes; i++ {
				if err := pm.WriteU64(HFN(1+w).Page(), i); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-observer
	if observeErr != nil {
		t.Fatal(observeErr)
	}
	// Every writer finished; one more observation must catch any final
	// store the racing loop missed, because its bit is still set.
	for w := 0; w < writers; w++ {
		f := HFN(1 + w)
		if seen[w] != writes && !pm.TakeDirty(f) {
			t.Fatalf("writer %d: observer stopped at %d of %d with the bit clear: a write was lost", w, seen[w], writes)
		}
		if pm.Dirty(f) {
			t.Fatalf("writer %d: bit still set after the final take", w)
		}
	}
}

// TestZeroAllocDirtyBitmap pins the bitmap's cost on the hot paths: a
// word write and a take allocate nothing.
func TestZeroAllocDirtyBitmap(t *testing.T) {
	pm := MustNewPhysMem(4 * PageSize)
	addr := HFN(1).Page()
	if n := testing.AllocsPerRun(100, func() { _ = pm.WriteU64(addr, 1) }); n != 0 {
		t.Errorf("WriteU64: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = pm.WriteU64(addr, 1); pm.TakeDirty(1) }); n != 0 {
		t.Errorf("WriteU64+TakeDirty: %v allocs/op, want 0", n)
	}
}
