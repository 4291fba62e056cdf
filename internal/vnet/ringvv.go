package vnet

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
)

// Manager functions of the ring-datapath VM-to-VM variant. Unlike
// FnVVSend/FnVVRecv (which take counts and walk the whole exchange
// inside one call), these operate on a single frame staged at an
// explicit exchange offset — the natural unit for a call-ring
// descriptor, which carries the offset in its argument words.
const (
	FnVVSendAt uint64 = 0x4E45_0105
	FnVVRecvAt uint64 = 0x4E45_0106
)

// RingVVConfig configures NewRingVVPath.
type RingVVConfig struct {
	// Ring is the attachment call-ring geometry and batching policy for
	// both sides (zero values pick core defaults: depth 64, flush on
	// every submit).
	Ring core.RingConfig
	// MaxFrame caps the frame size this path can carry and sets the
	// exchange staging stride (0 picks 256 bytes). Smaller strides fit
	// more in-flight frames in the 32 KiB exchange buffer.
	MaxFrame int
}

// DefaultMaxFrame is the staging slot size RingVVConfig zero values pick.
const DefaultMaxFrame = 256

// RingVVPath is the exit-less ring datapath: both guests drive their
// attachment's call ring instead of taking one gate crossing per
// Send/Recv batch. Each frame becomes one descriptor (FnVVSendAt or
// FnVVRecvAt with its staging offset); the adaptive policy in
// core.RingCaller decides when a gate crossing actually happens, so at
// batch depth N the 196 ns crossing is amortised over N frames — or
// never taken at all when a manager-side poller drains the ring first.
type RingVVPath struct {
	h        *hv.Hypervisor
	mgr      *core.Manager
	a, b     *core.Guest
	hA, hB   *core.Handle
	rcA, rcB *core.RingCaller
	rings    map[ringViewKey]*shm.Ring

	stride  int // staging slot size in the exchange buffer
	windowA int // concurrent in-flight frames per side
	windowB int

	// Sender-side in-flight bookkeeping: staging cursor, outstanding
	// count, and FIFO submit stamps for latency measurement.
	slotA, outA int
	stampsA     []simtime.Time
	harvested   int // frames confirmed sent by the last harvest window

	// Receiver side mirrors the sender, plus the FIFO of staged offsets
	// whose completions carry the frame lengths.
	slotB, outB int
	stampsB     []simtime.Time
	offsB       []int

	txSeq int
	rxSeq int

	// txLat and rxLat record per-frame guest-clock latency from Submit to
	// harvested completion — the number the batching experiment's p99
	// column reports.
	txLat *stats.Histogram
	rxLat *stats.Histogram

	comps []shm.Comp // scratch completion buffer
}

// NewRingVVPath publishes the forwarding ring as a manager object
// ("vv-ring", like ELISAVVPath — use a separate manager per path),
// attaches both guests, and negotiates a call ring on each attachment.
func NewRingVVPath(h *hv.Hypervisor, mgr *core.Manager, a, b *core.Guest, cfg RingVVConfig) (*RingVVPath, error) {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.MaxFrame > SlotBytes {
		return nil, fmt.Errorf("vnet: ring vv: max frame %d exceeds payload slot size %d", cfg.MaxFrame, SlotBytes)
	}
	region, _, err := newVVRing(h)
	if err != nil {
		return nil, err
	}
	p := &RingVVPath{
		h:     h,
		mgr:   mgr,
		a:     a,
		b:     b,
		rings: make(map[ringViewKey]*shm.Ring),
		txLat: stats.NewHistogram(),
		rxLat: stats.NewHistogram(),
	}
	p.stride = (cfg.MaxFrame + 7) &^ 7
	if _, err := mgr.CreateObjectFromRegion("vv-ring", region); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnVVSendAt, p.fnSendAt); err != nil {
		return nil, err
	}
	if err := mgr.RegisterFunc(FnVVRecvAt, p.fnRecvAt); err != nil {
		return nil, err
	}
	if p.hA, err = a.Attach("vv-ring"); err != nil {
		return nil, err
	}
	if p.hB, err = b.Attach("vv-ring"); err != nil {
		return nil, err
	}
	if p.rcA, err = p.hA.Ring(a.VM().VCPU(), cfg.Ring); err != nil {
		return nil, err
	}
	if p.rcB, err = p.hB.Ring(b.VM().VCPU(), cfg.Ring); err != nil {
		return nil, err
	}
	window := func(h *core.Handle, rc *core.RingCaller) int {
		w := h.ExchangeSize() / p.stride
		if w > rc.Depth() {
			w = rc.Depth()
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	p.windowA = window(p.hA, p.rcA)
	p.windowB = window(p.hB, p.rcB)
	p.comps = make([]shm.Comp, p.windowA+p.windowB)
	return p, nil
}

// Name implements VVPath.
func (p *RingVVPath) Name() string { return "elisa-ring" }

// Sender implements VVPath.
func (p *RingVVPath) Sender() *hv.VM { return p.a.VM() }

// Receiver implements VVPath.
func (p *RingVVPath) Receiver() *hv.VM { return p.b.VM() }

// TxLatency and RxLatency return snapshots of the per-frame
// submit-to-completion latency distributions.
func (p *RingVVPath) TxLatency() *stats.Histogram { return p.txLat.Clone() }

// RxLatency is TxLatency's counterpart for the receive side.
func (p *RingVVPath) RxLatency() *stats.Histogram { return p.rxLat.Clone() }

// RingStats reports the manager-side counters of both attachment rings
// (descriptor counts, gate crossings, batch-size percentiles).
func (p *RingVVPath) RingStats() []core.RingStats { return p.mgr.RingStats() }

func (p *RingVVPath) ringFor(ctx *core.CallContext) (*shm.Ring, error) {
	key := ringViewKey{ctx.VCPU, ctx.Object}
	if r, ok := p.rings[key]; ok {
		return r, nil
	}
	w, err := shm.NewGPAWindow(ctx.VCPU, ctx.Object, ctx.ObjectSize)
	if err != nil {
		return nil, err
	}
	r, err := shm.OpenRing(w)
	if err != nil {
		return nil, err
	}
	p.rings[key] = r
	return r, nil
}

// fnSendAt forwards one staged frame: args = (exchange offset, size).
// Returns 1 if the frame entered the payload ring, 0 if the ring was
// full (the frame is dropped and the sender retries it as a fresh
// submission).
func (p *RingVVPath) fnSendAt(ctx *core.CallContext) (uint64, error) {
	off, size := int(ctx.Args[0]), int(ctx.Args[1])
	if size <= 0 || size > p.stride || off < 0 || off+size > ctx.ExchangeSize {
		return 0, fmt.Errorf("vnet: ring vv send: bad staging (off %d size %d)", off, size)
	}
	ring, err := p.ringFor(ctx)
	if err != nil {
		return 0, err
	}
	ctx.VCPU.Charge(mgrExtra)
	buf := make([]byte, size)
	if err := ctx.ReadExchange(off, buf); err != nil {
		return 0, err
	}
	ok, err := ring.Push(buf)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	return 1, nil
}

// fnRecvAt pops one frame into the exchange at args[0] (capacity
// args[1]); the return value is the frame length, 0 when the payload
// ring is empty.
func (p *RingVVPath) fnRecvAt(ctx *core.CallContext) (uint64, error) {
	off, max := int(ctx.Args[0]), int(ctx.Args[1])
	if max <= 0 || off < 0 || off+max > ctx.ExchangeSize {
		return 0, fmt.Errorf("vnet: ring vv recv: bad staging (off %d max %d)", off, max)
	}
	ring, err := p.ringFor(ctx)
	if err != nil {
		return 0, err
	}
	ctx.VCPU.Charge(mgrExtra)
	buf := make([]byte, SlotBytes)
	n, ok, err := ring.Pop(buf)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	if n > max {
		return 0, fmt.Errorf("vnet: ring vv recv: frame of %d bytes exceeds staging slot %d", n, max)
	}
	if err := ctx.WriteExchange(off, buf[:n]); err != nil {
		return 0, err
	}
	return uint64(n), nil
}

// harvestTx flushes and polls until every outstanding send descriptor
// has completed, recording per-frame latency and counting confirmed
// sends into p.harvested.
func (p *RingVVPath) harvestTx(v *cpu.VCPU) error {
	for p.outA > 0 {
		n, err := p.rcA.Poll(v, p.comps[:min(p.outA, len(p.comps))])
		if err != nil {
			return err
		}
		if n == 0 {
			// Nothing drained yet: take the gate ourselves. If a manager
			// poller raced us the flush finds an empty queue and costs
			// nothing; completions then show up on the next poll.
			if err := p.rcA.Flush(v); err != nil {
				return err
			}
			continue
		}
		now := v.Clock().Now()
		for i := 0; i < n; i++ {
			p.txLat.RecordDuration(now.Sub(p.stampsA[i]))
			if p.comps[i].Status == shm.CompOK && p.comps[i].Ret == 1 {
				p.harvested++
			}
		}
		p.stampsA = p.stampsA[n:]
		p.outA -= n
	}
	p.stampsA = p.stampsA[:0]
	return nil
}

// Send implements VVPath: each frame is staged in the exchange buffer
// and submitted as one ring descriptor. The in-flight window is bounded
// by the staging capacity and ring depth; crossing the window harvests
// completions before reusing slots.
func (p *RingVVPath) Send(count, size int) (int, error) {
	if size > p.stride {
		return 0, fmt.Errorf("vnet: ring vv: frame size %d exceeds staging stride %d", size, p.stride)
	}
	v := p.a.VM().VCPU()
	p.harvested = 0
	buf := make([]byte, size)
	for i := 0; i < count; i++ {
		if p.outA >= p.windowA {
			if err := p.harvestTx(v); err != nil {
				return p.harvested, err
			}
		}
		off := p.slotA * p.stride
		p.slotA = (p.slotA + 1) % p.windowA
		v.ChargeInstr(driverInstr)
		fillPattern(buf, p.txSeq+i)
		if err := p.hA.ExchangeWrite(v, off, buf); err != nil {
			return p.harvested, err
		}
		p.stampsA = append(p.stampsA, v.Clock().Now())
		if err := p.rcA.Submit(v, FnVVSendAt, uint64(off), uint64(size)); err != nil {
			return p.harvested, err
		}
		p.outA++
	}
	if err := p.harvestTx(v); err != nil {
		return p.harvested, err
	}
	p.txSeq += p.harvested
	return p.harvested, nil
}

// harvestRx drains outstanding receive descriptors: each completion's
// Ret is the frame length staged at the matching FIFO offset. Frames
// are verified against the expected pattern as they land.
func (p *RingVVPath) harvestRx(v *cpu.VCPU) (int, error) {
	got := 0
	buf := make([]byte, p.stride)
	for p.outB > 0 {
		n, err := p.rcB.Poll(v, p.comps[:min(p.outB, len(p.comps))])
		if err != nil {
			return got, err
		}
		if n == 0 {
			if err := p.rcB.Flush(v); err != nil {
				return got, err
			}
			continue
		}
		now := v.Clock().Now()
		for i := 0; i < n; i++ {
			off := p.offsB[i]
			p.rxLat.RecordDuration(now.Sub(p.stampsB[i]))
			c := p.comps[i]
			if c.Status != shm.CompOK {
				return got, fmt.Errorf("vnet: ring vv: recv descriptor failed")
			}
			fl := int(c.Ret)
			if fl == 0 {
				continue // payload ring was empty when this descriptor ran
			}
			if fl > p.stride {
				return got, fmt.Errorf("vnet: ring vv: bad staged length %d", fl)
			}
			v.ChargeInstr(vvAppInstr)
			if err := p.hB.ExchangeRead(v, off, buf[:fl]); err != nil {
				return got, err
			}
			if !checkPattern(buf[:fl], p.rxSeq) {
				return got, fmt.Errorf("vnet: ring vv: frame %d corrupted", p.rxSeq)
			}
			p.rxSeq++
			got++
		}
		p.offsB = p.offsB[n:]
		p.stampsB = p.stampsB[n:]
		p.outB -= n
	}
	p.offsB = p.offsB[:0]
	p.stampsB = p.stampsB[:0]
	return got, nil
}

// Recv implements VVPath: submit one FnVVRecvAt descriptor per frame
// wanted, then harvest the completions (whose Ret values carry the
// frame lengths).
func (p *RingVVPath) Recv(max int) (int, error) {
	v := p.b.VM().VCPU()
	got := 0
	for i := 0; i < max; i++ {
		if p.outB >= p.windowB {
			n, err := p.harvestRx(v)
			got += n
			if err != nil {
				return got, err
			}
		}
		off := p.slotB * p.stride
		p.slotB = (p.slotB + 1) % p.windowB
		v.ChargeInstr(driverInstr)
		p.offsB = append(p.offsB, off)
		p.stampsB = append(p.stampsB, v.Clock().Now())
		if err := p.rcB.Submit(v, FnVVRecvAt, uint64(off), uint64(p.stride)); err != nil {
			return got, err
		}
		p.outB++
	}
	n, err := p.harvestRx(v)
	got += n
	return got, err
}
