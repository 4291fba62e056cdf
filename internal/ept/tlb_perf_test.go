package ept

import (
	"testing"

	"github.com/elisa-go/elisa/internal/mem"
)

// Allocation pins and `go test -bench` kernels for the ept layer's TLB.
// testing.AllocsPerRun runs with GC pacing disabled, so counts are exact.

// perfTags stand in for the default and sub contexts a vCPU switches
// between on the exit-less call path.
var perfTags = [...]Pointer{0x10_1000 | 0x1e, 0x20_3000 | 0x1e, 0x30_5000 | 0x1e}

// fillTLB inserts n 4KiB translations spread over perfTags.
func fillTLB(tlb *TLB, n int) {
	for i := 0; i < n; i++ {
		tlb.Insert(perfTags[i%len(perfTags)], mem.GFN(i), mem.HPA(i)<<mem.PageShift, PermRW)
	}
}

func TestZeroAllocTLBLookup(t *testing.T) {
	tlb := NewTLB(0)
	fillTLB(tlb, 512)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i = (i + 1) % 512
		if _, _, ok := tlb.Lookup(perfTags[i%len(perfTags)], mem.GFN(i)); !ok {
			t.Fatal("warm lookup missed")
		}
	}); n != 0 {
		t.Fatalf("Lookup hit allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, ok := tlb.Lookup(perfTags[0], 1<<20); ok {
			t.Fatal("lookup of an absent page hit")
		}
	}); n != 0 {
		t.Fatalf("Lookup miss allocates %v per op, want 0", n)
	}
}

func TestZeroAllocTLBInsertExisting(t *testing.T) {
	tlb := NewTLB(0)
	fillTLB(tlb, 512)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i = (i + 1) % 512
		tlb.Insert(perfTags[i%len(perfTags)], mem.GFN(i), 0x9000, PermRead)
	}); n != 0 {
		t.Fatalf("Insert of a resident key allocates %v per op, want 0", n)
	}
}

func TestZeroAllocTLBInvalidatePage(t *testing.T) {
	tlb := NewTLB(0)
	fillTLB(tlb, 512)
	i := 0
	if n := testing.AllocsPerRun(200, func() { // each run drops a resident key
		tlb.InvalidatePage(perfTags[i%len(perfTags)], mem.GFN(i))
		i++
	}); n != 0 {
		t.Fatalf("InvalidatePage allocates %v per op, want 0", n)
	}
	if tlb.Len() != 512-201 {
		t.Fatalf("Len = %d after 201 invalidations of 512 entries", tlb.Len())
	}
}

// TestZeroAllocTLBColdFill bounds what a new vCPU's TLB costs while its
// first 64 translations arrive: the TLB itself, three table sizes (32, 64
// and 128 slots) and two ring sizes, not an allocation sized for its full
// capacity.
func TestZeroAllocTLBColdFill(t *testing.T) {
	const bound = 6
	if n := testing.AllocsPerRun(50, func() {
		sinkTLB = NewTLB(0) // escapes, as a vCPU's TLB does
		fillTLB(sinkTLB, 64)
	}); n > bound {
		t.Fatalf("NewTLB + 64 inserts allocates %v, want <= %d", n, bound)
	}
}

var (
	sinkTLB *TLB
	sinkHPA mem.HPA
)

// BenchmarkTLBLookupHit: a warm Lookup on the translate path, over a
// working set of 1024 pages in three tagged contexts.
func BenchmarkTLBLookupHit(b *testing.B) {
	const n = 1024
	tlb := NewTLB(0)
	fillTLB(tlb, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 7) % n
		hpa, _, _ := tlb.Lookup(perfTags[k%len(perfTags)], mem.GFN(k))
		sinkHPA += hpa
	}
}

// BenchmarkTLBColdFill: one short-lived vCPU's TLB — NewTLB, 256 inserts
// and the InvalidateContext a detach issues.
func BenchmarkTLBColdFill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tlb := NewTLB(0)
		fillTLB(tlb, 256)
		tlb.InvalidateContext(perfTags[0])
		sinkHPA += mem.HPA(tlb.Len())
	}
}
