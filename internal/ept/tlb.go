package ept

import (
	"math/bits"

	"github.com/elisa-go/elisa/internal/mem"
)

// TLB models a tagged translation cache. Entries are keyed by
// (EPTP, guest frame), so — like real hardware with VPID/EP4TA tagging —
// a VMFUNC EPTP switch does not flush the cache. This matters for the
// performance argument: if each ELISA call flushed the TLB, the exit-less
// advantage would shrink, and the paper's hardware keeps translations warm.
//
// Each array is bounded with FIFO eviction; the model only needs to
// distinguish "warm" from "cold" translations, not replacement subtleties.
type TLB struct {
	small tlbArray // 4KiB entries

	// Large (2MiB) entries are a separate, smaller array on real parts;
	// one large entry covers 512 small ones, which is the hugepage TLB
	// -reach win the ablation measures.
	large tlbArray

	hits   uint64
	misses uint64
}

type tlbKey struct {
	eptp Pointer
	gfn  mem.GFN
}

// DefaultTLBCapacity is sized like a contemporary STLB (1536 4 KiB entries).
const DefaultTLBCapacity = 1536

// NewTLB creates a TLB with the given entry capacity (<=0 picks the default).
// Capacity bounds what the TLB may hold; its memory grows with what it
// actually holds.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultTLBCapacity
	}
	largeCap := capacity / 16
	if largeCap < 4 {
		largeCap = 4
	}
	return &TLB{
		small: tlbArray{capacity: capacity},
		large: tlbArray{capacity: largeCap},
	}
}

// Lookup returns the cached translation for gfn under eptp, consulting
// both the 4KiB and the 2MiB arrays.
func (t *TLB) Lookup(eptp Pointer, gfn mem.GFN) (mem.HPA, Perm, bool) {
	if s := t.small.table.get(tlbKey{eptp, gfn}); s != nil {
		t.hits++
		return s.frame, s.perm, true
	}
	if s := t.large.table.get(tlbKey{eptp, gfn >> 9}); s != nil {
		t.hits++
		in := mem.HPA(gfn&0x1ff) << mem.PageShift
		return s.frame + in, s.perm, true
	}
	t.misses++
	return 0, 0, false
}

// Insert caches a translation, evicting the oldest entry if full.
func (t *TLB) Insert(eptp Pointer, gfn mem.GFN, frame mem.HPA, perm Perm) {
	t.small.insert(tlbKey{eptp, gfn}, frame, perm)
}

// InsertLarge caches a 2MiB translation: gfn2m is the large-page frame
// number (GPA >> 21), frame the host base of the 2MiB region.
func (t *TLB) InsertLarge(eptp Pointer, gfn2m mem.GFN, frame mem.HPA, perm Perm) {
	t.large.insert(tlbKey{eptp, gfn2m}, frame, perm)
}

// InvalidatePage drops the translation for one page in one context
// (INVEPT single-context, page-granular).
func (t *TLB) InvalidatePage(eptp Pointer, gfn mem.GFN) {
	t.small.table.remove(tlbKey{eptp, gfn})
}

// InvalidateContext drops every translation tagged with eptp
// (INVEPT single-context).
func (t *TLB) InvalidateContext(eptp Pointer) {
	t.small.table.removeContext(eptp)
	t.large.table.removeContext(eptp)
}

// Flush drops everything (INVEPT global).
func (t *TLB) Flush() {
	t.small.flush()
	t.large.flush()
}

// Stats reports hit/miss counts since creation.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }

// Len reports the number of resident entries (both granularities).
func (t *TLB) Len() int { return t.small.table.n + t.large.table.n }

// tlbArray is one bounded translation array with FIFO eviction.
type tlbArray struct {
	capacity int
	table    tlbTable
	order    []tlbKey // FIFO ring of inserted keys, resident or not
	head     int
}

func (a *tlbArray) insert(k tlbKey, frame mem.HPA, perm Perm) {
	if s := a.table.get(k); s != nil {
		s.frame, s.perm = frame, perm
		return
	}
	if a.table.n >= a.capacity {
		// Evict FIFO head; skip keys already invalidated. A key that was
		// invalidated and inserted again is still evicted at its older
		// ring position.
		for len(a.order) > a.head {
			victim := a.order[a.head]
			a.head++
			if a.table.remove(victim) {
				break
			}
		}
		if a.head > a.capacity { // compact the ring lazily
			a.order = append(a.order[:0], a.order[a.head:]...)
			a.head = 0
		}
	}
	a.table.add(k, frame, perm)
	if len(a.order) == cap(a.order) {
		// Grow the ring by the table's size, not by single-append
		// doublings: a cold TLB's first inserts then allocate once.
		order := make([]tlbKey, len(a.order), len(a.order)+len(a.table.slots))
		copy(order, a.order)
		a.order = order
	}
	a.order = append(a.order, k)
}

func (a *tlbArray) flush() {
	a.table.clear()
	a.order = a.order[:0]
	a.head = 0
}

// tlbTable is an open-addressed hash table from tlbKey to a translation:
// linear probing, backward-shift deletion (no tombstones), and a
// power-of-two slot array that starts empty and doubles whenever it would
// become more than half full.
type tlbTable struct {
	slots []tlbSlot
	shift uint // 64 - log2(len(slots)): home() keeps the hash's top bits
	n     int  // resident entries
}

type tlbSlot struct {
	key   tlbKey
	frame mem.HPA
	perm  Perm
	used  bool
}

// minTableSlots is the first allocation of a table: 1KiB, room for 16
// translations before the first doubling.
const minTableSlots = 32

// home is the slot where k's probe sequence starts: a multiplicative
// (Fibonacci) hash of the tag mixed with the frame number.
func (h *tlbTable) home(k tlbKey) int {
	x := uint64(k.gfn) ^ uint64(k.eptp)*0xff51afd7ed558ccd
	return int((x * 0x9e3779b97f4a7c15) >> h.shift)
}

// find returns the index of k's slot, or -1 if k is not resident.
func (h *tlbTable) find(k tlbKey) int {
	if h.n == 0 {
		return -1
	}
	mask := len(h.slots) - 1
	for i := h.home(k); ; i = (i + 1) & mask {
		if !h.slots[i].used {
			return -1
		}
		if h.slots[i].key == k {
			return i
		}
	}
}

// get returns k's slot, or nil if k is not resident.
func (h *tlbTable) get(k tlbKey) *tlbSlot {
	if i := h.find(k); i >= 0 {
		return &h.slots[i]
	}
	return nil
}

// add inserts k, which must not be resident.
func (h *tlbTable) add(k tlbKey, frame mem.HPA, perm Perm) {
	if 2*(h.n+1) > len(h.slots) {
		h.grow()
	}
	h.place(tlbSlot{key: k, frame: frame, perm: perm, used: true})
	h.n++
}

// place stores s in the first free slot of its probe sequence.
func (h *tlbTable) place(s tlbSlot) {
	mask := len(h.slots) - 1
	i := h.home(s.key)
	for h.slots[i].used {
		i = (i + 1) & mask
	}
	h.slots[i] = s
}

func (h *tlbTable) grow() {
	old := h.slots
	size := max(2*len(old), minTableSlots)
	h.slots = make([]tlbSlot, size)
	h.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.used {
			h.place(s)
		}
	}
}

// remove drops k and reports whether it was resident.
func (h *tlbTable) remove(k tlbKey) bool {
	i := h.find(k)
	if i < 0 {
		return false
	}
	h.deleteAt(i)
	return true
}

// removeContext drops every entry tagged with eptp.
func (h *tlbTable) removeContext(eptp Pointer) {
	for i := 0; i < len(h.slots) && h.n > 0; {
		if h.slots[i].used && h.slots[i].key.eptp == eptp {
			// deleteAt may shift a later entry of the cluster into i;
			// look at i again. It never moves an unvisited entry below i.
			h.deleteAt(i)
			continue
		}
		i++
	}
}

// deleteAt empties slot i by backward shift: each later entry of the
// cluster whose probe sequence passes i moves into the hole, so lookups
// never need tombstones.
func (h *tlbTable) deleteAt(i int) {
	mask := len(h.slots) - 1
	for j := (i + 1) & mask; h.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill i only if i lies on its probe path,
		// i.e. its home is no further along (cyclically) than i.
		if (j-h.home(h.slots[j].key))&mask >= (j-i)&mask {
			h.slots[i] = h.slots[j]
			i = j
		}
	}
	h.slots[i] = tlbSlot{}
	h.n--
}

func (h *tlbTable) clear() {
	if h.n > 0 {
		clear(h.slots)
		h.n = 0
	}
}
