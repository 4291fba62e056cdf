package mem

import (
	"sync"
	"testing"
)

// TestConcurrentFirstWriteOneFrame has writers race to back the same
// unbacked frame, each storing its own words. If two writers installed
// different chunks, one writer's words would be lost; under -race the
// test also proves the directory and the spare list are synchronised.
func TestConcurrentFirstWriteOneFrame(t *testing.T) {
	const writers, words = 8, 32
	for round := 0; round < 50; round++ {
		pm := MustNewPhysMem(4 * PageSize)
		f, err := pm.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			// Start from a recycled chunk: back a frame, free it, and
			// race on a fresh frame that will draw the spare.
			if err := pm.WriteU64(f.Page(), 1); err != nil {
				t.Fatal(err)
			}
			if err := pm.FreeFrame(f); err != nil {
				t.Fatal(err)
			}
			if f, err = pm.AllocFrame(); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < words; i++ {
					addr := f.Page() + HPA(8*(w*words+i))
					if w%2 == 0 {
						_ = pm.WriteU64(addr, uint64(w<<16|i+1))
					} else {
						_ = pm.Write(addr, le64(uint64(w<<16|i+1)))
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for w := 0; w < writers; w++ {
			for i := 0; i < words; i++ {
				v, err := pm.ReadU64(f.Page() + HPA(8*(w*words+i)))
				if err != nil {
					t.Fatal(err)
				}
				if v != uint64(w<<16|i+1) {
					t.Fatalf("round %d: writer %d word %d = %#x: a first write was lost", round, w, i, v)
				}
			}
		}
	}
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestFreeFrameScrubs checks that a freed frame reads as zeros, that its
// chunk is reused by the next first write, and that neither the scrub nor
// Zero on an unbacked frame backs anything.
func TestFreeFrameScrubs(t *testing.T) {
	pm := MustNewPhysMem(8 * PageSize)
	f, _ := pm.AllocFrame()
	if err := pm.Write(f.Page()+100, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	c := pm.dir[f].Load()
	if err := pm.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	if pm.dir[f].Load() != nil || len(pm.spare) != 1 {
		t.Fatal("FreeFrame kept the frame's chunk")
	}
	buf := make([]byte, 3)
	if err := pm.Read(f.Page()+100, buf); err != nil || buf[0]|buf[1]|buf[2] != 0 {
		t.Fatalf("freed frame reads % x (%v), want zeros", buf, err)
	}
	g, _ := pm.AllocFrame()
	if err := pm.Zero(g.Page(), PageSize); err != nil {
		t.Fatal(err)
	}
	if pm.dir[g].Load() != nil || !pm.Dirty(g) {
		t.Fatal("Zero on an unbacked frame must mark it but not back it")
	}
	if err := pm.WriteU64(g.Page(), 7); err != nil {
		t.Fatal(err)
	}
	if pm.dir[g].Load() != c || len(pm.spare) != 0 {
		t.Fatal("first write did not reuse the spare chunk")
	}
	if v, _ := pm.ReadU64(g.Page() + 8); v != 0 {
		t.Fatalf("recycled chunk not zeroed: %#x", v)
	}
}

// TestZeroAllocPhysMemHotPath pins the sparse memory's hot paths at zero
// allocations: byte and word accesses on backed frames, and the churn
// cycle free → alloc → first write, which reuses the freed chunk.
func TestZeroAllocPhysMemHotPath(t *testing.T) {
	pm := MustNewPhysMem(16 * PageSize)
	f, _ := pm.AllocFrame()
	addr := f.Page() + PageSize - 4 // byte accesses straddle into the next frame
	buf := make([]byte, 8)
	_ = pm.Write(addr, buf)
	for name, fn := range map[string]func(){
		"Read":     func() { _ = pm.Read(addr, buf) },
		"Write":    func() { _ = pm.Write(addr, buf) },
		"ReadU64":  func() { _, _ = pm.ReadU64(f.Page() + 8) },
		"WriteU64": func() { _ = pm.WriteU64(f.Page()+8, 1) },
		"free-realloc-write": func() {
			_ = pm.FreeFrame(f)
			f, _ = pm.AllocFrame()
			_ = pm.WriteU64(f.Page(), 1)
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
