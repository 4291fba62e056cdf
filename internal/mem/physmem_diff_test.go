package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// The differential tests drive byte-coded operation sequences through
// PhysMem and refPhysMem (the flat model it replaced) and require the
// same returned frames, bytes, error-ness, FreeFrames, InUse and dirty
// bits after every step. The one intended difference is FreeFrame's
// scrub: a freed frame reads as zeros, so the harness clears the
// reference's bytes for a frame both sides freed. A small machine makes
// the sequences reach exhaustion, double and out-of-range frees, frames
// written while unallocated, contiguous runs claimed ahead of the bump
// pointer and off the free stack, and accesses that straddle frames.

// diffFrames is the size of the machine the sequences run on.
const diffFrames = 20

// diffAddr decodes two bytes into an address: a frame one past the end
// is possible (out-of-range accesses must fail alike), and the offsets
// crowd the ends of the frame so multi-byte accesses straddle frames.
func diffAddr(fb, ob byte) HPA {
	f := HPA(fb) % (diffFrames + 1)
	off := HPA(ob) * 16 % PageSize
	if ob < 96 {
		off = PageSize - 1 - HPA(ob)%24 // the last bytes of the frame
	}
	return f<<PageShift | off
}

// diffLen decodes a byte into an access length that spans up to three
// frames; 255 is -1, which Zero must refuse alike.
func diffLen(b byte) int {
	if b == 255 {
		return -1
	}
	return int(b) * 37
}

// sameErr reports whether two results agree on error-ness.
func sameErr(a, b error) bool { return (a == nil) == (b == nil) }

// runPhysMemDiff decodes ops four bytes at a time (operation, then three
// argument bytes) and applies each step to both memories.
func runPhysMemDiff(t *testing.T, ops []byte) {
	t.Helper()
	got, want := MustNewPhysMem(diffFrames*PageSize), mustNewRef(t)
	for step := 0; step+4 <= len(ops); step += 4 {
		op, a, b, c := ops[step], ops[step+1], ops[step+2], ops[step+3]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (op %d): "+format, append([]any{step / 4, op % 13}, args...)...)
		}
		switch op % 13 {
		case 0:
			gf, gerr := got.AllocFrame()
			wf, werr := want.AllocFrame()
			if gf != wf || !sameErr(gerr, werr) {
				fail("AllocFrame = %d %v, reference %d %v", gf, gerr, wf, werr)
			}
		case 1:
			n := int(a) % 6
			if a >= 250 {
				n = diffFrames // more than is ever free
			}
			gfs, gerr := got.AllocFrames(n)
			wfs, werr := want.AllocFrames(n)
			if !equalFrames(gfs, wfs) || !sameErr(gerr, werr) {
				fail("AllocFrames(%d) = %v %v, reference %v %v", n, gfs, gerr, wfs, werr)
			}
		case 2:
			n, align := int(a)%6, []int{0, 1, 2, 4, 8}[int(b)%5]
			gfs, gerr := got.AllocFramesContiguous(n, align)
			wfs, werr := want.AllocFramesContiguous(n, align)
			if !equalFrames(gfs, wfs) || !sameErr(gerr, werr) {
				fail("AllocFramesContiguous(%d, %d) = %v %v, reference %v %v", n, align, gfs, gerr, wfs, werr)
			}
		case 3:
			f := HFN(a) % (diffFrames + 2) // frame 0, double frees and out-of-range frames included
			gerr, werr := got.FreeFrame(f), want.FreeFrame(f)
			if !sameErr(gerr, werr) {
				fail("FreeFrame(%d) = %v, reference %v", f, gerr, werr)
			}
			if gerr == nil {
				clear(want.data[f.Page() : f.Page()+PageSize]) // model the scrub
			}
		case 4:
			addr, n := diffAddr(a, b), max(diffLen(c), 0)
			gp, wp := make([]byte, n), make([]byte, n)
			gerr, werr := got.Read(addr, gp), want.Read(addr, wp)
			if !sameErr(gerr, werr) || !bytes.Equal(gp, wp) {
				fail("Read(%v, %d) differs (err %v, reference %v)", addr, n, gerr, werr)
			}
		case 5:
			addr, n := diffAddr(a, b), max(diffLen(c), 0)
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(step + i*7 + 1)
			}
			gerr, werr := got.Write(addr, p), want.Write(addr, p)
			if !sameErr(gerr, werr) {
				fail("Write(%v, %d) = %v, reference %v", addr, n, gerr, werr)
			}
		case 6:
			addr := diffAddr(a, b)
			gv, gerr := got.ReadU64(addr)
			wv, werr := want.ReadU64(addr)
			if gv != wv || !sameErr(gerr, werr) {
				fail("ReadU64(%v) = %#x %v, reference %#x %v", addr, gv, gerr, wv, werr)
			}
		case 7:
			addr, v := diffAddr(a, b), uint64(step+1)*0x0101010101010101^uint64(c)
			if gerr, werr := got.WriteU64(addr, v), want.WriteU64(addr, v); !sameErr(gerr, werr) {
				fail("WriteU64(%v) = %v, reference %v", addr, gerr, werr)
			}
		case 8:
			addr := diffAddr(a, b)
			gv, gerr := got.ReadU32(addr)
			wv, werr := want.ReadU32(addr)
			if gv != wv || !sameErr(gerr, werr) {
				fail("ReadU32(%v) = %#x %v, reference %#x %v", addr, gv, gerr, wv, werr)
			}
		case 9:
			addr, v := diffAddr(a, b), uint32(step+1)*0x01010101^uint32(c)
			if gerr, werr := got.WriteU32(addr, v), want.WriteU32(addr, v); !sameErr(gerr, werr) {
				fail("WriteU32(%v) = %v, reference %v", addr, gerr, werr)
			}
		case 10:
			addr, n := diffAddr(a, b), diffLen(c)
			if gerr, werr := got.Zero(addr, n), want.Zero(addr, n); !sameErr(gerr, werr) {
				fail("Zero(%v, %d) = %v, reference %v", addr, n, gerr, werr)
			}
		case 11, 12:
			f := HFN(a) % (diffFrames + 2)
			if g, w := got.TakeDirty(f), want.TakeDirty(f); g != w {
				fail("TakeDirty(%d) = %v, reference %v", f, g, w)
			}
		}
		if g, w := got.FreeFrames(), want.FreeFrames(); g != w {
			fail("FreeFrames = %d, reference %d", g, w)
		}
		for f := HFN(0); f < diffFrames+2; f++ {
			if g, w := got.InUse(f), want.InUse(f); g != w {
				fail("InUse(%d) = %v, reference %v", f, g, w)
			}
			if g, w := got.Dirty(f), want.Dirty(f); g != w {
				fail("Dirty(%d) = %v, reference %v", f, g, w)
			}
		}
	}
	// Every byte must agree at the end.
	gp, wp := make([]byte, diffFrames*PageSize), make([]byte, diffFrames*PageSize)
	if err := got.Read(0, gp); err != nil {
		t.Fatal(err)
	}
	if err := want.Read(0, wp); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(gp, wp); i >= 0 {
		t.Fatalf("final sweep: byte %#x = %#x, reference %#x", i, gp[i], wp[i])
	}
}

func mustNewRef(t *testing.T) *refPhysMem {
	t.Helper()
	ref, err := newRefPhysMem(diffFrames * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestPhysMemMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ops := make([]byte, 4*(20+rng.Intn(300)))
		rng.Read(ops)
		runPhysMemDiff(t, ops)
	}
}

func FuzzPhysMemMatchesReference(f *testing.F) {
	// Fill the machine, free a scattered set, claim contiguous runs over
	// the freed frames and ahead of the bump pointer, then keep going.
	f.Add([]byte{
		1, 5, 0, 0, 1, 5, 0, 0, 5, 2, 200, 3, 3, 2, 0, 0, 3, 4, 0, 0,
		2, 2, 1, 0, 2, 4, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0,
		4, 2, 200, 20, 7, 12, 50, 9, 6, 12, 50, 0, 10, 2, 0, 255, 11, 3, 0, 0,
	})
	// Straddling accesses on unallocated frames, then allocation over them.
	f.Add([]byte{
		5, 7, 3, 200, 9, 8, 5, 1, 8, 8, 5, 0, 10, 7, 3, 120, 12, 7, 0, 0,
		1, 250, 0, 0, 1, 5, 0, 0, 1, 5, 0, 0, 4, 7, 3, 200, 6, 20, 0, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runPhysMemDiff(t, ops)
	})
}
