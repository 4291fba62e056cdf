package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// byteWindow is a plain in-memory Window: the ring codec without a
// hypervisor behind it, cheap enough to build once per fuzz input.
type byteWindow []byte

func (w byteWindow) Size() int { return len(w) }

func (w byteWindow) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(w) {
		return fmt.Errorf("byteWindow: access [%d,+%d) outside size %d", off, n, len(w))
	}
	return nil
}

func (w byteWindow) Read(off int, p []byte) error {
	if err := w.check(off, len(p)); err != nil {
		return err
	}
	copy(p, w[off:])
	return nil
}

func (w byteWindow) Write(off int, p []byte) error {
	if err := w.check(off, len(p)); err != nil {
		return err
	}
	copy(w[off:], p)
	return nil
}

func (w byteWindow) ReadU64(off int) (uint64, error) {
	if err := w.check(off, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[off:]), nil
}

func (w byteWindow) WriteU64(off int, v uint64) error {
	if err := w.check(off, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(w[off:], v)
	return nil
}

// newByteRing formats a ring with the given slot count in a fresh
// byteWindow.
func newByteRing(t testing.TB, slots int) (byteWindow, *CallRing) {
	t.Helper()
	w := make(byteWindow, CallRingBytes(slots))
	r, err := InitCallRing(w, slots)
	if err != nil {
		t.Fatal(err)
	}
	return w, r
}

// TestBeginDrainRejectsForgedCursors: a snapshot whose submission or
// completion queue holds more than slots is refused with ErrCorruptRing
// — including the forged header that used to make one drain service
// four million garbage descriptors — while full-but-legal queues open.
func TestBeginDrainRejectsForgedCursors(t *testing.T) {
	const slots = 4
	cases := []struct {
		name                           string
		sqHead, sqTail, cqHead, cqTail uint64
		corrupt                        bool
	}{
		{"empty", 0, 0, 0, 0, false},
		{"full submission queue", 10, 14, 0, 0, false},
		{"full completion queue", 0, 0, 6, 10, false},
		{"both full after wrap", 1<<64 - 2, 2, 1<<64 - 1, 3, false},
		{"submission one past full", 10, 15, 0, 0, true},
		{"completion one past full", 0, 0, 6, 11, true},
		{"submission head past tail", 5, 4, 0, 0, true},
		{"completion head past tail", 0, 0, 5, 4, true},
		{"forged tail and head", 0, 1 << 22, 1 << 40, 0, true},
	}
	for _, c := range cases {
		w, r := newByteRing(t, slots)
		for off, v := range map[int]uint64{offSQHead: c.sqHead, offSQTail: c.sqTail, offCQHead: c.cqHead, offCQTail: c.cqTail} {
			_ = w.WriteU64(off, v)
		}
		txn, err := r.BeginDrain()
		if got := errors.Is(err, ErrCorruptRing); got != c.corrupt {
			t.Errorf("%s: BeginDrain err = %v, want corrupt=%v", c.name, err, c.corrupt)
			continue
		}
		if c.corrupt {
			if _, ferr := r.FailPending(CompErr, nil); !errors.Is(ferr, ErrCorruptRing) {
				t.Errorf("%s: FailPending err = %v, want ErrCorruptRing", c.name, ferr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p, f := txn.Pending(), txn.CQFree(); p < 0 || p > slots || f < 0 || f > slots {
			t.Errorf("%s: Pending %d CQFree %d outside [0, %d]", c.name, p, f, slots)
		}
	}
}

// FuzzCallRingHeader drives the ring codec from an arbitrary 48-byte
// header followed by a script of drain, fail, producer and poll
// operations and raw header rewrites. It must never panic; a drain
// transaction never pops or pushes more than slots records; and a
// snapshot is refused with ErrCorruptRing exactly when its cursors are
// out of geometry.
func FuzzCallRingHeader(f *testing.F) {
	hdr := func(sqHead, sqTail, cqHead, cqTail, slots, kicks uint64) []byte {
		b := make([]byte, callRingHdr)
		for i, v := range []uint64{sqHead, sqTail, cqHead, cqTail, slots, kicks} {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		return b
	}
	f.Add(hdr(0, 0, 0, 0, 4, 0), []byte{3, 3, 0, 2, 2, 0})
	f.Add(hdr(0, 1<<22, 1<<40, 0, 4, 0), []byte{0, 1, 2})
	f.Add(hdr(5, 4, 0, 0, 4, 0), []byte{3, 0, 4, 1, 0})
	f.Add(hdr(1<<64-2, 2, 1<<64-1, 3, 4, 9), []byte{0, 2, 0, 3, 3, 0})
	f.Add(hdr(0, 0, 0, 0, 1<<20, 0), []byte{3, 2, 5, 0})
	f.Fuzz(func(t *testing.T, header, script []byte) {
		const slots = 4
		w, drain := newByteRing(t, slots)
		copy(w[:callRingHdr], header)
		// The producer side attaches through the (possibly forged) slot
		// count; a refused attach leaves only the drain side to exercise.
		prod, _ := OpenCallRing(w)
		for i := 0; i < len(script); i++ {
			switch script[i] % 6 {
			case 0:
				checkDrainTxn(t, w, drain)
			case 1:
				n, err := drain.FailPending(CompErr, nil)
				if n < 0 || n > slots {
					t.Fatalf("FailPending completed %d descriptors with %d slots", n, slots)
				}
				if err != nil && !errors.Is(err, ErrCorruptRing) {
					t.Fatalf("FailPending: %v", err)
				}
			case 2:
				if prod != nil {
					if _, _, err := prod.PopComp(); err != nil {
						t.Fatalf("PopComp: %v", err)
					}
				}
			case 3:
				if prod != nil {
					if _, err := prod.PushDesc(Desc{Fn: uint64(i)}); err != nil {
						t.Fatalf("PushDesc: %v", err)
					}
				}
			case 4:
				// Raw rewrite of one header word from the next script bytes.
				if i+2 < len(script) {
					off := 8 * (int(script[i+1]) % 6)
					_ = w.WriteU64(off, uint64(script[i+2])<<(script[i+1]%64))
					i += 2
				}
			default:
				_, _ = drain.SubmitLen()
				_, _ = drain.CompLen()
				if prod != nil {
					_, _ = prod.ProducerPending()
				}
			}
		}
	})
}

// checkDrainTxn opens a drain transaction, pops and pushes as far as it
// lets, and checks the geometry invariants against the raw header.
func checkDrainTxn(t *testing.T, w byteWindow, r *CallRing) {
	t.Helper()
	slots := uint64(r.Slots())
	sqHead, _ := w.ReadU64(offSQHead)
	sqTail, _ := w.ReadU64(offSQTail)
	cqHead, _ := w.ReadU64(offCQHead)
	cqTail, _ := w.ReadU64(offCQTail)
	corrupt := sqTail-sqHead > slots || cqTail-cqHead > slots
	txn, err := r.BeginDrain()
	if corrupt {
		if !errors.Is(err, ErrCorruptRing) {
			t.Fatalf("out-of-geometry snapshot sq [%d, %d) cq [%d, %d) opened: err %v", sqHead, sqTail, cqHead, cqTail, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("in-geometry snapshot refused: %v", err)
	}
	popped, pushed := 0, 0
	for {
		_, ok, err := txn.PopDesc()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if popped++; popped > int(slots) {
			t.Fatalf("transaction popped more than %d descriptors", slots)
		}
	}
	for {
		ok, err := txn.PushComp(Comp{Status: CompOK})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if pushed++; pushed > int(slots) {
			t.Fatalf("transaction pushed more than %d completions", slots)
		}
	}
	if err := txn.Close(); err != nil {
		t.Fatal(err)
	}
}
