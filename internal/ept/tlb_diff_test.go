package ept

import (
	"math/rand"
	"testing"

	"github.com/elisa-go/elisa/internal/mem"
)

// The differential tests drive random operation sequences through TLB and
// refTLB (the map-backed model it replaced) and require the same Lookup
// results, Stats and Len after every step. Small capacities and a small
// key space make the sequences reach FIFO eviction, lazy ring compaction,
// invalidate-then-reinsert, large entries and several EPTP tags sharing a
// gfn.

// diffTags are the EPTP tags the sequences use; they share every gfn.
var diffTags = [...]Pointer{0x1000 | 0x1e, 0x2000 | 0x1e, 0x7f000 | 0x5e}

// diffGFN decodes a byte into a gfn: the low three bits pick a 4KiB page,
// the top three its 2MiB region, so small and large entries overlap.
func diffGFN(b byte) mem.GFN { return mem.GFN(b&0x7) | mem.GFN(b>>5)<<9 }

// runTLBDiff decodes ops three bytes at a time (operation, tag, gfn) and
// applies each step to both TLBs.
func runTLBDiff(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	got, want := NewTLB(capacity), newRefTLB(capacity)
	for step := 0; step+3 <= len(ops); step += 3 {
		op, b := ops[step], ops[step+2]
		eptp := diffTags[int(ops[step+1])%len(diffTags)]
		frame := mem.HPA(step+1) << mem.PageShift
		perm := Perm(op>>4) & PermRWX
		switch op % 8 {
		case 0, 1:
			got.Insert(eptp, diffGFN(b), frame, perm)
			want.Insert(eptp, diffGFN(b), frame, perm)
		case 2:
			got.InsertLarge(eptp, mem.GFN(b>>5), frame, perm)
			want.InsertLarge(eptp, mem.GFN(b>>5), frame, perm)
		case 3, 4:
			gh, gp, gok := got.Lookup(eptp, diffGFN(b))
			wh, wp, wok := want.Lookup(eptp, diffGFN(b))
			if gh != wh || gp != wp || gok != wok {
				t.Fatalf("step %d: Lookup(%#x, %#x) = %#x %v %v, reference %#x %v %v",
					step/3, eptp, diffGFN(b), gh, gp, gok, wh, wp, wok)
			}
		case 5:
			got.InvalidatePage(eptp, diffGFN(b))
			want.InvalidatePage(eptp, diffGFN(b))
		case 6:
			got.InvalidateContext(eptp)
			want.InvalidateContext(eptp)
		case 7:
			if b%8 == 0 { // keep global flushes rare so the arrays fill
				got.Flush()
				want.Flush()
			}
		}
		gh, gm := got.Stats()
		wh, wm := want.Stats()
		if gh != wh || gm != wm || got.Len() != want.Len() {
			t.Fatalf("step %d (op %d): hits/misses/len = %d/%d/%d, reference %d/%d/%d",
				step/3, op%8, gh, gm, got.Len(), wh, wm, want.Len())
		}
	}
	// Every key the sequence could have cached must agree at the end.
	for _, eptp := range diffTags {
		for b := 0; b < 256; b++ {
			gh, gp, gok := got.Lookup(eptp, diffGFN(byte(b)))
			wh, wp, wok := want.Lookup(eptp, diffGFN(byte(b)))
			if gh != wh || gp != wp || gok != wok {
				t.Fatalf("final sweep: Lookup(%#x, %#x) = %#x %v %v, reference %#x %v %v",
					eptp, diffGFN(byte(b)), gh, gp, gok, wh, wp, wok)
			}
		}
	}
}

func TestTLBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		ops := make([]byte, 3*(50+rng.Intn(1500)))
		rng.Read(ops)
		runTLBDiff(t, 4+rng.Intn(13), ops)
	}
}

func FuzzTLBMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		runTLBDiff(t, 4+int(capacity%13), ops)
	})
}
