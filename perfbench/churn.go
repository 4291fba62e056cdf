package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/workload"
)

// tenant_churn: the control-plane lifecycle on one machine with a fixed
// pool of shared objects. One op is one guest lifecycle: hv.CreateVM
// and core.NewGuest; Attach to several pool objects (the negotiation
// hypercall plus gate and sub EPT construction); one exit-less Call per
// handle; Detach each; Manager.CleanupGuest; hv.DestroyVM — the
// documented order (DestroyVM without CleanupGuest leaks the guest's
// ELISA frames). Free frames must return to their pre-lifecycle count
// after every lifecycle, and Manager.Fsck runs every churnFsckEvery.

const (
	churnPhysBytes  = 64 * 1024 * 1024
	churnPool       = 16
	churnRAM        = 16 * mem.PageSize
	churnFsckEvery  = 64
	churnEchoFn     = 0xBE9C0F02
	churnPayloads   = 64
	churnMaxPayload = 2048
)

// churnScale sets the lifecycles per pass.
type churnScale struct{ lifecycles int }

var churnSize = churnScale{lifecycles: 4000}

// churn holds the generated inputs.
type churn struct {
	objPages []int    // pool object sizes in pages
	objSigs  []uint64 // the word each pool object holds at offset 0
	objNames []string
	payloads [][]byte // shared payload bodies; calls send prefixes
	names    []string // guest VM name per lifecycle
	cycles   []lifecycle
}

// lifecycle is one guest's script: the pool objects it attaches, and
// for each handle the payload prefix its call sends and the value the
// call must return.
type lifecycle struct {
	objs  []int
	calls []churnCall
}

type churnCall struct {
	payload, n int
	want       uint64
}

// checksum is the value the echo function computes over a payload.
func checksum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

func newChurn(seed int64, size churnScale) (*churn, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 1)))
	in := &churn{}
	for i := 0; i < churnPool; i++ {
		in.objPages = append(in.objPages, 1<<(i%4)) // a fixed pool layout: 1, 2, 4, 8 pages
		in.objSigs = append(in.objSigs, rng.Uint64())
		in.objNames = append(in.objNames, fmt.Sprintf("pool-%02d", i))
	}
	for i := 0; i < churnPayloads; i++ {
		p := make([]byte, churnMaxPayload)
		workload.FillPattern(p, rng.Int())
		in.payloads = append(in.payloads, p)
	}
	for i := 0; i < size.lifecycles; i++ {
		k := 2 + rng.Intn(5)
		lc := lifecycle{objs: rng.Perm(churnPool)[:k]}
		for _, obj := range lc.objs {
			c := churnCall{payload: rng.Intn(churnPayloads), n: 8 + rng.Intn(churnMaxPayload-7)}
			c.want = checksum(in.payloads[c.payload][:c.n]) ^ in.objSigs[obj]
			lc.calls = append(lc.calls, c)
		}
		in.cycles = append(in.cycles, lc)
		in.names = append(in.names, fmt.Sprintf("tenant-%05d", i))
	}
	return in, nil
}

// churnRound is one built machine with the pool created.
type churnRound struct {
	in      *churn
	h       *hv.Hypervisor
	mgr     *core.Manager
	buf     []byte // the echo function's scratch
	handles []*core.Handle
	// cleanup releases a guest's ELISA state before DestroyVM; it is
	// Manager.CleanupGuest, a seam the frame-leak check's test replaces.
	cleanup func(*hv.VM) error
}

func (in *churn) setup(tr *tracer) (round, error) {
	rd := &churnRound{in: in, buf: make([]byte, churnMaxPayload)}
	var err error
	tr.begin("hv.new")
	rd.h, err = hv.New(hv.Config{PhysBytes: churnPhysBytes})
	tr.end()
	if err != nil {
		return nil, err
	}
	if rd.mgr, err = core.NewManager(rd.h, core.ManagerConfig{}); err != nil {
		return nil, err
	}
	rd.cleanup = rd.mgr.CleanupGuest
	for i, name := range in.objNames {
		tr.begin("core.create_object")
		obj, err := rd.mgr.CreateObject(name, in.objPages[i]*mem.PageSize)
		tr.end()
		if err != nil {
			return nil, err
		}
		if err := obj.Region().WriteU64(nil, 0, in.objSigs[i]); err != nil {
			return nil, err
		}
	}
	if err := rd.mgr.RegisterFunc(churnEchoFn, rd.echo); err != nil {
		return nil, err
	}
	return rd, nil
}

// echo is the manager function every lifecycle calls: it reads the
// payload from the caller's exchange buffer and the object's signature
// word through the sub context, and returns their combination.
func (rd *churnRound) echo(ctx *core.CallContext) (uint64, error) {
	n := int(ctx.Args[0])
	if n <= 0 || n > len(rd.buf) {
		return 0, fmt.Errorf("echo: payload length %d", n)
	}
	if err := ctx.ReadExchange(0, rd.buf[:n]); err != nil {
		return 0, err
	}
	sig, err := ctx.ObjectU64(0)
	if err != nil {
		return 0, err
	}
	return checksum(rd.buf[:n]) ^ sig, nil
}

func (rd *churnRound) run(tr *tracer, m *meter) *outcome {
	in := rd.in
	o := &outcome{attempted: int64(len(in.cycles))}
	pm := rd.h.Phys()
	mgrV := rd.mgr.VM().VCPU()
	mgrBefore := mgrV.Stats()
	var guests cpu.Stats
	lats := make([]int64, 0, len(in.cycles))
	d := newDigest()
	peak := 0
	for i := range in.cycles {
		free0 := pm.FreeFrames()
		m.begin()
		lat, st, inUse, err := rd.lifecycle(i, tr, d)
		m.end(1)
		if err != nil {
			o.fail(int64(len(in.cycles)-i), "lifecycle %d: %v", i, err)
			break
		}
		o.ops++
		lats = append(lats, lat)
		addStats(&guests, st)
		if inUse > peak {
			peak = inUse
		}
		if free := pm.FreeFrames(); free != free0 {
			o.fail(1, "lifecycle %d: %d free frames after teardown, %d before", i, free, free0)
		}
		if (i+1)%churnFsckEvery == 0 {
			if err := rd.mgr.Fsck(); err != nil {
				o.fail(1, "fsck after lifecycle %d: %v", i, err)
			}
		}
	}
	var sum int64
	for _, l := range lats {
		sum += l
	}
	if sum > 0 {
		o.goodputMops = float64(o.ops) / float64(sum) * 1e3
	}
	o.digest = d.sum()
	o.samples = int64(len(lats))
	o.p99 = float64(rank(lats, 0.99))
	o.p50 = float64(rank(lats, 0.50))
	addStats(&guests, mgrV.Stats())
	o.layers = cpuLayers(mgrBefore, guests, o.ops)
	o.layers["mem.frames_in_use_peak"] = float64(peak)
	return o
}

// lifecycle runs guest i's whole life and returns its simulated
// duration (the guest's clock runs from boot), its vCPU counters, and
// the frames in use while it was fully attached.
func (rd *churnRound) lifecycle(i int, tr *tracer, d *digest) (lat int64, st cpu.Stats, inUse int, err error) {
	in := rd.in
	lc := in.cycles[i]
	tr.begin("hv.create_vm")
	vm, err := rd.h.CreateVM(in.names[i], churnRAM)
	tr.end()
	if err != nil {
		return 0, st, 0, err
	}
	g, err := core.NewGuest(vm, rd.mgr)
	if err != nil {
		return 0, st, 0, err
	}
	v := vm.VCPU()
	rd.handles = rd.handles[:0]
	for _, obj := range lc.objs {
		tr.begin("core.attach")
		hd, err := g.Attach(in.objNames[obj])
		tr.end()
		if err != nil {
			return 0, st, 0, err
		}
		rd.handles = append(rd.handles, hd)
	}
	pm := rd.h.Phys()
	inUse = pm.Frames() - pm.FreeFrames()
	for j, hd := range rd.handles {
		c := lc.calls[j]
		tr.begin("core.call")
		err := hd.ExchangeWrite(v, 0, in.payloads[c.payload][:c.n])
		var ret uint64
		if err == nil {
			ret, err = hd.Call(v, churnEchoFn, uint64(c.n))
		}
		tr.end()
		if err != nil {
			return 0, st, 0, err
		}
		if ret != c.want {
			return 0, st, 0, fmt.Errorf("call %d to %s returned %#x, want %#x", j, in.objNames[lc.objs[j]], ret, c.want)
		}
		d.add(int64(ret))
	}
	for _, obj := range lc.objs {
		tr.begin("core.detach")
		err := g.Detach(in.objNames[obj])
		tr.end()
		if err != nil {
			return 0, st, 0, err
		}
	}
	tr.begin("core.cleanup")
	err = rd.cleanup(vm)
	tr.end()
	if err != nil {
		return 0, st, 0, err
	}
	lat = int64(v.Clock().Now())
	d.add(lat)
	st = v.Stats()
	tr.begin("hv.destroy_vm")
	err = rd.h.DestroyVM(vm)
	tr.end()
	return lat, st, inUse, err
}

func (rd *churnRound) verify(o *outcome) {
	if err := rd.mgr.Fsck(); err != nil {
		o.fail(1, "final fsck: %v", err)
	}
}
