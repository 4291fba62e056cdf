package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/kvs"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// kv_mix: the paper's in-memory KV store. Eight guest VMs share one
// ELISA store (kvs.DefaultLayout) and run a closed loop of 90% GET /
// 10% PUT over zipf(0.99) keys drawn from a preloaded key set, through
// kvs.Cluster.RunMixed in fixed chunks.
//
// The fixture is assembled from the same public constructors
// kvs.BuildCluster("elisa", …) uses (hv.New with 512 MiB, a manager, an
// ELISA service, one guest per VM); building it piecewise is what gives
// the benchmark the hypervisor, manager and guests to read stats from
// and to check outputs through. TestKVFixtureMatchesBuildCluster holds
// the two to identical simulated results.

const (
	kvVMs       = 8
	kvReadRatio = 0.9
	kvZipfSkew  = 0.99
	kvPhysBytes = 512 * 1024 * 1024 // kvs.BuildCluster's machine size
	kvObject    = "kv-store"        // kvs.BuildCluster's object name
	kvNopFn     = 0xBE9C0F01        // an empty manager function for the 196 ns pin
)

// kvSize scales the workload: keys preloaded, and per VM chunks of
// chunkOps operations per pass.
type kvSize struct{ keys, chunks, chunkOps int }

var kvMixSize = kvSize{keys: 2048, chunks: 8, chunkOps: 5000}

// kvMix holds the generated inputs: the key set, each VM's key-index
// stream and read/write seed, and every value the pass writes.
type kvMix struct {
	size     kvSize
	keys     [][]byte
	streams  [][]int32 // per VM, chunks*chunkOps key indices
	mixSeeds []int64   // per VM read/write decision seeds
	preload  [][]byte  // per key initial value
	// putVals[c][k] is the value a PUT to key k writes in chunk c. Every
	// (key, chunk) pair has its own value, so a GET that returns another
	// key's value, or a stale write of the same chunk, fails its check.
	putVals [][][]byte
	putArg  []byte // the value RunMixed hands the probes; they forward putVals
}

// subSeed derives an independent stream seed for lane i of a workload
// seed (splitmix64 finalizer).
func subSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// kvValue is value number k: its index in the first word, then the
// workload package's verifiable byte pattern.
func kvValue(k int) []byte {
	v := make([]byte, kvs.DefaultLayout.ValSize)
	binary.LittleEndian.PutUint64(v, uint64(k))
	workload.FillPattern(v[8:], k)
	return v
}

func newKVMix(seed int64, size kvSize) (*kvMix, error) {
	in := &kvMix{size: size}
	rng := rand.New(rand.NewSource(subSeed(seed, 0)))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	seen := make(map[string]bool, size.keys)
	for len(in.keys) < size.keys {
		k := make([]byte, 8+rng.Intn(kvs.DefaultLayout.KeySize-7))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			in.keys = append(in.keys, k)
		}
	}
	for i := 0; i < kvVMs; i++ {
		z, err := workload.NewZipf(subSeed(seed, 100+i), size.keys, kvZipfSkew)
		if err != nil {
			return nil, err
		}
		s := make([]int32, size.chunks*size.chunkOps)
		for j := range s {
			s[j] = int32(z.Next())
		}
		in.streams = append(in.streams, s)
		in.mixSeeds = append(in.mixSeeds, subSeed(seed, 200+i))
	}
	for i := range in.keys {
		in.preload = append(in.preload, kvValue(i))
	}
	for c := 0; c < size.chunks; c++ {
		vals := make([][]byte, size.keys)
		for k := range vals {
			vals[k] = kvValue((c+1)*size.keys + k)
		}
		in.putVals = append(in.putVals, vals)
	}
	in.putArg = make([]byte, kvs.DefaultLayout.ValSize)
	return in, nil
}

// kvStream replays one VM's pre-generated key indices; last is the index
// of the key handed out most recently.
type kvStream struct {
	idx  []int32
	pos  int
	last int
}

func (s *kvStream) Next() int {
	s.last = int(s.idx[s.pos])
	s.pos++
	return s.last
}

// kvProbe sits between kvs.Cluster and one VM's ELISA client. It checks
// every GET against the value the store must hold, makes every PUT write
// the current chunk's value for its key (the same size as the value
// RunMixed passes, so the simulated cost is the same), and records exact
// per-op simulated latency: in RunMixed's closed loop a VM issues its
// next op at the instant the previous one (lock wait included)
// completed, so an op's latency is the gap to the next op's start.
type kvProbe struct {
	c      *kvs.ELISAClient
	keys   *kvStream
	expect [][]byte // shared across probes: key index -> current value
	vals   [][]byte // the current chunk's PUT value per key index

	prev    simtime.Time // start of the op in flight, -1 when none
	lat     []int64
	badGets int64
}

func (p *kvProbe) tick() {
	now := p.c.Clock().Now()
	if p.prev >= 0 {
		p.lat = append(p.lat, int64(now-p.prev))
	}
	p.prev = now
}

// close ends the in-flight op at the VM's current clock.
func (p *kvProbe) close() {
	p.tick()
	p.prev = -1
}

func (p *kvProbe) Get(key, val []byte) (bool, error) {
	p.tick()
	found, err := p.c.Get(key, val)
	if err == nil && (!found || !bytes.Equal(val[:kvs.DefaultLayout.ValSize], p.expect[p.keys.last])) {
		p.badGets++
	}
	return found, err
}

func (p *kvProbe) Put(key, _ []byte) (simtime.Duration, error) {
	p.tick()
	val := p.vals[p.keys.last]
	cs, err := p.c.Put(key, val)
	if err == nil {
		p.expect[p.keys.last] = val
	}
	return cs, err
}

func (p *kvProbe) Delete(key []byte) (bool, error) { return p.c.Delete(key) }
func (p *kvProbe) Clock() *simtime.Clock           { return p.c.Clock() }
func (p *kvProbe) Scheme() string                  { return p.c.Scheme() }

// kvRound is one built fixture.
type kvRound struct {
	in      *kvMix
	h       *hv.Hypervisor
	mgr     *core.Manager
	guests  []*core.Guest
	probes  []*kvProbe
	cluster *kvs.Cluster
	expect  [][]byte
}

func (in *kvMix) setup(tr *tracer) (round, error) {
	rd := &kvRound{in: in, expect: make([][]byte, len(in.keys))}
	var err error
	tr.begin("hv.new")
	rd.h, err = hv.New(hv.Config{PhysBytes: kvPhysBytes})
	tr.end()
	if err != nil {
		return nil, err
	}
	if rd.mgr, err = core.NewManager(rd.h, core.ManagerConfig{}); err != nil {
		return nil, err
	}
	tr.begin("kvs.new_service")
	svc, err := kvs.NewELISAService(rd.h, rd.mgr, kvObject, kvs.DefaultLayout)
	tr.end()
	if err != nil {
		return nil, err
	}
	if err := rd.mgr.RegisterFunc(kvNopFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	clients := make([]kvs.Client, kvVMs)
	for i := range clients {
		tr.begin("hv.create_vm")
		vm, err := rd.h.CreateVM(fmt.Sprintf("kv-client-%d", i), 16*mem.PageSize)
		tr.end()
		if err != nil {
			return nil, err
		}
		g, err := core.NewGuest(vm, rd.mgr)
		if err != nil {
			return nil, err
		}
		tr.begin("core.attach")
		c, err := svc.NewClient(g)
		tr.end()
		if err != nil {
			return nil, err
		}
		p := &kvProbe{c: c, keys: &kvStream{idx: in.streams[i]}, expect: rd.expect, prev: -1,
			lat: make([]int64, 0, len(in.streams[i]))}
		rd.guests = append(rd.guests, g)
		rd.probes = append(rd.probes, p)
		clients[i] = p
	}
	if rd.cluster, err = kvs.NewCluster(clients...); err != nil {
		return nil, err
	}
	tr.begin("kvs.preload")
	defer tr.end()
	for i, k := range in.keys {
		if _, err := rd.probes[0].c.Put(k, in.preload[i]); err != nil {
			return nil, fmt.Errorf("preload %q: %w", k, err)
		}
		rd.expect[i] = in.preload[i]
	}
	return rd, nil
}

// vcpus lists the vCPUs whose counters the layer metrics sum: every
// client plus the manager VM.
func (rd *kvRound) vcpus() []*cpu.VCPU {
	vs := []*cpu.VCPU{rd.mgr.VM().VCPU()}
	for _, g := range rd.guests {
		vs = append(vs, g.VM().VCPU())
	}
	return vs
}

func (rd *kvRound) run(tr *tracer, m *meter) *outcome {
	in := rd.in
	o := &outcome{attempted: int64(kvVMs * in.size.chunks * in.size.chunkOps)}
	choosers := make([]workload.KeyChooser, kvVMs)
	mixes := make([]*workload.Mix, kvVMs)
	starts := make([]simtime.Time, kvVMs)
	for i, p := range rd.probes {
		choosers[i] = p.keys
		mix, err := workload.NewMix(in.mixSeeds[i], kvReadRatio)
		if err != nil {
			o.fail(o.attempted, "mix: %v", err)
			return o
		}
		mixes[i] = mix
		starts[i] = p.Clock().Now()
	}
	before := sumStats(rd.vcpus())
	marks := make([]int, kvVMs)
	for c := 0; c < in.size.chunks; c++ {
		for i, p := range rd.probes {
			marks[i] = len(p.lat)
			p.vals = in.putVals[c]
		}
		m.begin()
		tr.begin("kvs.run")
		res, err := rd.cluster.RunMixed(in.size.chunkOps, in.keys, choosers, mixes, in.putArg)
		tr.end()
		if err != nil {
			o.fail(o.attempted-o.ops, "chunk %d: %v", c, err)
			return o
		}
		m.end(res.Ops)
		o.ops += res.Ops
		// The probes must have seen exactly the ops RunMixed counted,
		// with the latencies its own histogram summed.
		var n, sum int64
		for i, p := range rd.probes {
			p.close()
			for _, l := range p.lat[marks[i]:] {
				n++
				sum += l
			}
		}
		if n != res.Ops || sum != res.Latency.Sum() {
			o.fail(1, "chunk %d: probes saw %d ops / %d ns, RunMixed %d ops / %d ns", c, n, sum, res.Ops, res.Latency.Sum())
		}
	}
	rd.finish(o, starts, before)
	return o
}

// finish derives the simulated metrics and the layer counts.
func (rd *kvRound) finish(o *outcome, starts []simtime.Time, before cpu.Stats) {
	d := newDigest()
	var all []int64
	for i, p := range rd.probes {
		elapsed := p.Clock().Elapsed(starts[i])
		o.goodputMops += float64(len(p.lat)) / float64(elapsed) * 1e3
		d.add(int64(elapsed))
		d.add(p.lat...)
		all = append(all, p.lat...)
		if p.badGets > 0 {
			o.fail(p.badGets, "VM %d: %d GETs returned a missing or wrong value", i, p.badGets)
		}
	}
	o.samples = int64(len(all))
	o.p99 = float64(rank(all, 0.99))
	o.p50 = float64(rank(all, 0.50))
	o.digest = d.sum()
	after := sumStats(rd.vcpus())
	o.layers = cpuLayers(before, after, o.ops)
	pm := rd.h.Phys()
	o.layers["mem.frames_in_use_peak"] = float64(pm.Frames() - pm.FreeFrames())
}

func (rd *kvRound) verify(o *outcome) {
	// Every key reads back as the last value written to it.
	buf := make([]byte, kvs.DefaultLayout.ValSize)
	for i, k := range rd.in.keys {
		found, err := rd.probes[0].c.Get(k, buf)
		if err != nil || !found || !bytes.Equal(buf, rd.expect[i]) {
			o.fail(1, "key %q reads back wrong (found=%v err=%v)", k, found, err)
		}
	}
	// A warm empty call through a client's handle costs exactly the
	// paper's 196 ns.
	g := rd.guests[0]
	v := g.VM().VCPU()
	h, err := g.Attach(kvObject) // the client's existing handle
	if err != nil {
		o.fail(1, "re-attach for the 196 ns pin: %v", err)
		return
	}
	if _, err := h.Call(v, kvNopFn); err != nil {
		o.fail(1, "warm-up nop call: %v", err)
		return
	}
	t0 := v.Clock().Now()
	if _, err := h.Call(v, kvNopFn); err != nil {
		o.fail(1, "nop call: %v", err)
		return
	}
	if got, want := v.Clock().Elapsed(t0), rd.h.Cost().ELISARoundTrip(); got != want {
		o.fail(1, "warm nop call took %d ns simulated, want %d", got, want)
	}
}

// sumStats adds up the counters of several vCPUs.
func sumStats(vs []*cpu.VCPU) cpu.Stats {
	var s cpu.Stats
	for _, v := range vs {
		addStats(&s, v.Stats())
	}
	return s
}

func addStats(s *cpu.Stats, x cpu.Stats) {
	s.Exits += x.Exits
	s.Hypercalls += x.Hypercalls
	s.VMFuncs += x.VMFuncs
	s.TLBHits += x.TLBHits
	s.TLBMisses += x.TLBMisses
}

// cpuLayers turns a vCPU counter delta into the cpu and ept layer
// metrics.
func cpuLayers(before, after cpu.Stats, ops int64) map[string]float64 {
	m := make(map[string]float64)
	if ops > 0 {
		m["cpu.vmfuncs_per_op"] = float64(after.VMFuncs-before.VMFuncs) / float64(ops)
		m["cpu.exits_per_op"] = float64(after.Exits-before.Exits) / float64(ops)
		m["cpu.hypercalls_per_op"] = float64(after.Hypercalls-before.Hypercalls) / float64(ops)
	}
	hits, misses := after.TLBHits-before.TLBHits, after.TLBMisses-before.TLBMisses
	if hits+misses > 0 {
		m["ept.tlb_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return m
}
