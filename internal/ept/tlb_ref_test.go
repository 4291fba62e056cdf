package ept

import (
	"github.com/elisa-go/elisa/internal/mem"
)

// refTLB is the map-backed tagged TLB the flat table in tlb.go replaced,
// kept unchanged apart from its names as the reference model for the
// differential tests in tlb_diff_test.go: every hit/miss decision, Stats
// and Len of TLB must match it step for step.
type refTLB struct {
	capacity int
	entries  map[refKey]refVal
	order    []refKey // FIFO ring of resident keys
	head     int

	// Large (2MiB) entries are a separate, smaller array on real parts;
	// one large entry covers 512 small ones, which is the hugepage TLB
	// -reach win the ablation measures.
	largeCap     int
	largeEntries map[refKey]refVal
	largeOrder   []refKey
	largeHead    int

	hits   uint64
	misses uint64
}

type refKey struct {
	eptp Pointer
	gfn  mem.GFN
}

type refVal struct {
	frame mem.HPA
	perm  Perm
}

// refDefaultCapacity is sized like a contemporary STLB (1536 4 KiB entries).
const refDefaultCapacity = 1536

// newRefTLB creates a TLB with the given entry capacity (<=0 picks the default).
func newRefTLB(capacity int) *refTLB {
	if capacity <= 0 {
		capacity = refDefaultCapacity
	}
	largeCap := capacity / 16
	if largeCap < 4 {
		largeCap = 4
	}
	return &refTLB{
		capacity:     capacity,
		entries:      make(map[refKey]refVal, capacity),
		order:        make([]refKey, 0, capacity),
		largeCap:     largeCap,
		largeEntries: make(map[refKey]refVal, largeCap),
	}
}

// Lookup returns the cached translation for gfn under eptp, consulting
// both the 4KiB and the 2MiB arrays.
func (t *refTLB) Lookup(eptp Pointer, gfn mem.GFN) (mem.HPA, Perm, bool) {
	if v, ok := t.entries[refKey{eptp, gfn}]; ok {
		t.hits++
		return v.frame, v.perm, true
	}
	if v, ok := t.largeEntries[refKey{eptp, gfn >> 9}]; ok {
		t.hits++
		in := mem.HPA(gfn&0x1ff) << mem.PageShift
		return v.frame + in, v.perm, true
	}
	t.misses++
	return 0, 0, false
}

// Insert caches a translation, evicting the oldest entry if full.
func (t *refTLB) Insert(eptp Pointer, gfn mem.GFN, frame mem.HPA, perm Perm) {
	k := refKey{eptp, gfn}
	if _, exists := t.entries[k]; exists {
		t.entries[k] = refVal{frame, perm}
		return
	}
	if len(t.entries) >= t.capacity {
		// Evict FIFO head; skip keys already invalidated.
		for len(t.order) > t.head {
			victim := t.order[t.head]
			t.head++
			if _, ok := t.entries[victim]; ok {
				delete(t.entries, victim)
				break
			}
		}
		if t.head > t.capacity { // compact the ring lazily
			t.order = append(t.order[:0], t.order[t.head:]...)
			t.head = 0
		}
	}
	t.entries[k] = refVal{frame, perm}
	t.order = append(t.order, k)
}

// InvalidatePage drops the translation for one page in one context
// (INVEPT single-context, page-granular).
func (t *refTLB) InvalidatePage(eptp Pointer, gfn mem.GFN) {
	delete(t.entries, refKey{eptp, gfn})
}

// InvalidateContext drops every translation tagged with eptp
// (INVEPT single-context).
func (t *refTLB) InvalidateContext(eptp Pointer) {
	for k := range t.entries {
		if k.eptp == eptp {
			delete(t.entries, k)
		}
	}
	for k := range t.largeEntries {
		if k.eptp == eptp {
			delete(t.largeEntries, k)
		}
	}
}

// Flush drops everything (INVEPT global).
func (t *refTLB) Flush() {
	clear(t.entries)
	t.order = t.order[:0]
	t.head = 0
	clear(t.largeEntries)
	t.largeOrder = t.largeOrder[:0]
	t.largeHead = 0
}

// InsertLarge caches a 2MiB translation: gfn2m is the large-page frame
// number (GPA >> 21), frame the host base of the 2MiB region.
func (t *refTLB) InsertLarge(eptp Pointer, gfn2m mem.GFN, frame mem.HPA, perm Perm) {
	k := refKey{eptp, gfn2m}
	if _, exists := t.largeEntries[k]; exists {
		t.largeEntries[k] = refVal{frame, perm}
		return
	}
	if len(t.largeEntries) >= t.largeCap {
		for len(t.largeOrder) > t.largeHead {
			victim := t.largeOrder[t.largeHead]
			t.largeHead++
			if _, ok := t.largeEntries[victim]; ok {
				delete(t.largeEntries, victim)
				break
			}
		}
		if t.largeHead > t.largeCap {
			t.largeOrder = append(t.largeOrder[:0], t.largeOrder[t.largeHead:]...)
			t.largeHead = 0
		}
	}
	t.largeEntries[k] = refVal{frame, perm}
	t.largeOrder = append(t.largeOrder, k)
}

// Stats reports hit/miss counts since creation.
func (t *refTLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Len reports the number of resident entries (both granularities).
func (t *refTLB) Len() int { return len(t.entries) + len(t.largeEntries) }
