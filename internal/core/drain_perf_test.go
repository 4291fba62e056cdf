package core

import (
	"fmt"
	"testing"

	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/shm"
)

// BenchmarkDrainRingsIdle is the poll layer's own kernel: one bounded
// DrainRings pass over 6 guests x 8 rings, the shape of a fleet where
// most rings sit empty between bursts. "all-idle" is a pass with nothing
// queued anywhere; "one-busy" keeps one ring fed with 8 descriptors per
// pass (submitted and polled inside the timed loop), so pass 2 runs with
// leftover budget and the idle rings are elided. Run with
//
//	go test -run '^$' -bench DrainRingsIdle ./internal/core/
func BenchmarkDrainRingsIdle(b *testing.B) {
	for _, busy := range []bool{false, true} {
		name := "all-idle"
		if busy {
			name = "one-busy"
		}
		b.Run(name, func(b *testing.B) {
			f := newSizedFixture(b, 16*1024*1024)
			var busyRing *RingCaller
			for i := 0; i < 8; i++ {
				if _, err := f.mgr.CreateObject(fmt.Sprintf("o%d", i), mem.PageSize); err != nil {
					b.Fatal(err)
				}
			}
			for gi := 0; gi < 6; gi++ {
				vm, g := f.newGuest(b, fmt.Sprintf("g%d", gi))
				for i := 0; i < 8; i++ {
					h, err := g.Attach(fmt.Sprintf("o%d", i))
					if err != nil {
						b.Fatal(err)
					}
					rc, err := h.Ring(vm.VCPU(), RingConfig{Depth: 16, Deadline: farDeadline})
					if err != nil {
						b.Fatal(err)
					}
					if busyRing == nil {
						busyRing = rc
					}
				}
			}
			v := busyRing.h.g.vm.VCPU()
			var comps [8]shm.Comp
			pass := func() {
				if busy {
					for i := 0; i < len(comps); i++ {
						if err := busyRing.Submit(v, fnNop); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := f.mgr.DrainRings(32); err != nil {
					b.Fatal(err)
				}
				if busy {
					if _, err := busyRing.Poll(v, comps[:]); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass() // size the poller's worklist scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pass")
		})
	}
}
