package core

// Reference model for the manager poller. refDrainRings is DrainRings as
// it stood before the idle memo and the ordered guest registry: it
// rebuilds its worklist from the guests map with two sorts on every pass
// and reads every ring on every visit, never consulting the memo or the
// dirty bitmap. The only rule it shares with the real poller is the
// corrupt-ring one (a ring whose header is out of geometry is skipped
// for the rest of the pass, and the pass returns its error at the end).
// The optimised poller must be indistinguishable from it — same manager
// clock, same returned counts and errors, same ring accounting, same
// causal event stream — on any sequence of submits, polls, revokes,
// detaches and passes, and of the writers that bypass the poller: raw
// guest stores into the ring header and gate-path flushes on the
// guest's own vCPU.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/shm"
	"github.com/elisa-go/elisa/internal/simtime"
)

// refDrainRings is the reference poller (see the file comment). It
// shares drainRing, trimRing and the rotating cursor with the real one;
// the worklist build, the pass structure and the visits are the old
// ones.
func refDrainRings(m *Manager, budget int) (int, error) {
	m.pollMu.Lock()
	defer m.pollMu.Unlock()

	type group struct {
		weight  int
		targets []drainTarget
	}
	m.mu.Lock()
	ids := make([]int, 0, len(m.guests))
	for id := range m.guests {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var groups []group
	for _, id := range ids {
		gs := m.guests[id]
		vslots := make([]int, 0, len(gs.slots))
		for _, a := range gs.slots {
			vslots = append(vslots, a.vslot)
		}
		sort.Ints(vslots)
		var ts []drainTarget
		for _, vs := range vslots {
			a := gs.slot(vs)
			if a != nil && !a.revoked && a.ring != nil {
				ts = append(ts, drainTarget{a: a, rs: a.ring})
			}
		}
		if len(ts) > 0 {
			w := gs.pollWeight
			if w <= 0 {
				w = 1
			}
			groups = append(groups, group{weight: w, targets: ts})
		}
	}
	m.mu.Unlock()
	if len(groups) == 0 {
		return 0, nil
	}

	// corrupt returns the pass's first corrupt-ring error in walk order.
	corrupt := func() error {
		for _, g := range groups {
			for _, t := range g.targets {
				if t.corrupt != nil {
					return t.corrupt
				}
			}
		}
		return nil
	}

	if budget <= 0 {
		total := 0
		for _, g := range groups {
			for i := range g.targets {
				n, err := refVisit(m, &g.targets[i], -1)
				total += n
				if err != nil {
					return total, err
				}
			}
		}
		return total, corrupt()
	}

	sumW := 0
	for _, g := range groups {
		sumW += g.weight
	}
	start := m.drainCursor % len(groups)
	m.drainCursor++

	total := 0
	for i := 0; i < len(groups) && total < budget; i++ {
		g := groups[(start+i)%len(groups)]
		share := budget * g.weight / sumW
		if share < 1 {
			share = 1
		}
		if share > budget-total {
			share = budget - total
		}
		n, err := refDrainRingGroup(m, g.targets, share)
		total += n
		if err != nil {
			return total, err
		}
	}
	for i := 0; i < len(groups) && total < budget; i++ {
		g := groups[(start+i)%len(groups)]
		n, err := refDrainRingGroup(m, g.targets, budget-total)
		total += n
		if err != nil {
			return total, err
		}
	}
	if m.ov.Enabled && total >= budget {
		for i := 0; i < len(groups); i++ {
			g := groups[(start+i)%len(groups)]
			for i := range g.targets {
				t := &g.targets[i]
				if t.corrupt != nil {
					continue
				}
				if err := t.skipCorrupt(m.trimRing(t.a, t.rs)); err != nil {
					return total, err
				}
			}
		}
	}
	return total, corrupt()
}

// refDrainRingGroup visits every ring of one guest until limit
// descriptors are serviced, re-reading idle rings each time.
func refDrainRingGroup(m *Manager, targets []drainTarget, limit int) (int, error) {
	total := 0
	for i := range targets {
		if total >= limit {
			break
		}
		n, err := refVisit(m, &targets[i], limit-total)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// refVisit reads and services one ring with no memo; a corrupt ring is
// recorded on its target and skipped for the rest of the pass.
func refVisit(m *Manager, t *drainTarget, limit int) (int, error) {
	if t.corrupt != nil {
		return 0, nil
	}
	n, err := m.drainRing(t.a, t.rs, limit)
	return n, t.skipCorrupt(err)
}

// drainScript decodes a byte string into fixture shapes and operations;
// an exhausted script reads as zeros.
type drainScript struct {
	b []byte
	i int
}

func (s *drainScript) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *drainScript) done() bool { return s.i >= len(s.b) }

// drainWorldRing is one negotiated ring of a drain world and the
// attachment it belongs to.
type drainWorldRing struct {
	vm  *hv.VM
	g   *Guest
	obj string
	rc  *RingCaller
}

// drainWorld is one of the two fixtures the reference test drives in
// lockstep. The worlds are built from the same script and differ only in
// which poller services their rings.
type drainWorld struct {
	f     *fixture
	rec   *obs.Recorder
	rings []drainWorldRing
	drain func(budget int) (int, error)
}

// drainOutcome is everything an operation let the test observe; the two
// worlds must agree on it after every step.
type drainOutcome struct {
	Op     string
	N      int
	Err    string
	Clock  simtime.Time
	Comps  []shm.Comp
	Stats  []RingStats
	Events []obs.RingEvent
}

const drainObjects = 4

// newDrainWorld builds a world from the script's set-up prefix: up to six
// guests, each attached to up to four objects, with rings of depth 2–16
// on most attachments, random poll weights, overload trimming on or off,
// and the flight recorder armed or not.
func newDrainWorld(t *testing.T, s *drainScript, ref bool) *drainWorld {
	t.Helper()
	f := newSizedFixture(t, 8*1024*1024)
	w := &drainWorld{f: f, drain: f.mgr.DrainRings}
	if ref {
		w.drain = func(budget int) (int, error) { return refDrainRings(f.mgr, budget) }
	}
	for i := 0; i < drainObjects; i++ {
		if _, err := f.mgr.CreateObject(fmt.Sprintf("o%d", i), mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if b := s.next(); b%2 == 1 {
		f.mgr.SetOverload(OverloadConfig{Enabled: true, BusyFrac: 0.25 * float64(1+b/2%3)})
	}
	if s.next()%2 == 1 {
		w.rec = obs.NewRecorder(obs.Config{CausalEvents: 1 << 16})
		f.mgr.SetRecorder(w.rec)
	}
	guests := 1 + s.next()%6
	for gi := 0; gi < guests; gi++ {
		vm, g := f.newGuest(t, fmt.Sprintf("g%d", gi))
		atts := 1 + s.next()%drainObjects
		for ai := 0; ai < atts; ai++ {
			obj := fmt.Sprintf("o%d", ai)
			h, err := g.Attach(obj)
			if err != nil {
				t.Fatal(err)
			}
			b := s.next()
			if b%4 == 0 {
				continue // attachment without a ring: the poller must skip it
			}
			rc, err := h.Ring(vm.VCPU(), RingConfig{Depth: 2 << (b / 4 % 4), Deadline: farDeadline})
			if err != nil {
				t.Fatal(err)
			}
			w.rings = append(w.rings, drainWorldRing{vm: vm, g: g, obj: obj, rc: rc})
		}
		if err := f.mgr.SetPollWeight(vm, s.next()%4); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// step applies one scripted operation and reports what it observed. The
// operand bytes are read up front so both worlds consume the script
// identically whatever the operation does. Operation bytes 0–9 keep the
// meanings the committed seeds were written for; 10–13 are the writers
// that bypass the poller.
func (w *drainWorld) step(op, a, b int) drainOutcome {
	m := w.f.mgr
	var out drainOutcome
	if len(w.rings) == 0 {
		op = 9 // nothing to submit to: every step is a pass
	}
	var r drainWorldRing
	if len(w.rings) > 0 {
		r = w.rings[a%len(w.rings)]
	}
	switch op % 16 {
	case 0, 1, 2, 3:
		out.Op = "submit"
		v := r.vm.VCPU()
		for i := 0; i <= b%8; i++ {
			fn := fnNop
			if i%2 == 1 {
				fn = fnObjAdd
			}
			if err := r.rc.Submit(v, fn, 1); err != nil {
				out.Err = errString(err)
				break
			}
			out.N++
		}
	case 4, 5:
		out.Op = "poll"
		out.Comps = make([]shm.Comp, 1+b%8)
		n, err := r.rc.Poll(r.vm.VCPU(), out.Comps)
		out.N, out.Err, out.Comps = n, errString(err), out.Comps[:n]
	case 6:
		switch b % 4 {
		case 0:
			out.Op = "revoke"
			out.Err = errString(m.Revoke(r.vm, r.obj))
		case 1:
			out.Op = "detach"
			out.Err = errString(r.g.Detach(r.obj))
		default:
			out.Op = "weight"
			out.Err = errString(m.SetPollWeight(r.vm, b%5))
		}
	case 10, 11:
		out.Op, out.Err = w.headerWrite(r, b)
	case 12, 13:
		out.Op = "flush"
		out.Err = errString(r.rc.Flush(r.vm.VCPU()))
	default:
		out.Op = "drain"
		budget := b%24 - 4 // -4..19: unbounded passes and tight budgets both
		n, err := w.drain(budget)
		out.N, out.Err = n, errString(err)
		out.Stats = m.RingStats()
		out.Events = w.rec.Causal().Events()
	}
	out.Clock = m.vm.VCPU().Clock().Now()
	return out
}

// headerWrite is a raw guest store into its own ring header, through its
// default-context mapping and behind the poller's back:
//
//   - rewrite a cursor or the doorbell with the value it already holds
//     (the header frame turns dirty, the ring state does not change);
//   - push a descriptor by hand, writing its record and bumping sqTail
//     within the protocol (the caller is re-attached afterwards so its
//     cached producer cursor follows);
//   - rarely, forge the completion head out of geometry, which the
//     pollers must refuse with shm.ErrCorruptRing.
//
// Rings of dead attachments are left alone.
func (w *drainWorld) headerWrite(r drainWorldRing, b int) (string, string) {
	if r.rc.rs.dead.Load() {
		return "header-dead", ""
	}
	v, base := r.vm.VCPU(), r.rc.GPA()
	read := func(off int) uint64 {
		x, err := v.ReadU64GPA(base + mem.GPA(off))
		if err != nil {
			panic(err) // a live ring stays mapped in the default context
		}
		return x
	}
	write := func(off int, x uint64) string { return errString(v.WriteU64GPA(base+mem.GPA(off), x)) }
	depth := uint64(r.rc.Depth())
	switch {
	case b%64 == 63:
		return "header-forge", write(16, read(24)+depth+1)
	case b%8 >= 5:
		sqHead, sqTail := read(0), read(8)
		if sqTail-sqHead >= depth {
			return "header-push-full", ""
		}
		rec := make([]byte, 48)
		rec[0] = byte(fnNop + uint64(b/8%2)*(fnObjAdd-fnNop))
		if err := v.WriteGPA(base+mem.GPA(48+sqTail%depth*48), rec); err != nil {
			return "header-push", errString(err)
		}
		if err := write(8, sqTail+1); err != "" {
			return "header-push", err
		}
		win, err := shm.NewGPAWindow(v, base, shm.CallRingBytes(int(depth)))
		if err != nil {
			return "header-push", errString(err)
		}
		if r.rc.ring, err = shm.OpenCallRing(win); err != nil {
			return "header-push", errString(err)
		}
		r.rc.pending++
		r.rc.inFlight++
		return "header-push", ""
	default:
		off := [...]int{0, 8, 16, 24, 40}[b%8] // the four cursors, the doorbell
		return "header-rewrite", write(off, read(off))
	}
}

// checkDrainMatchesReference runs script through a world on the real
// poller and a world on the reference poller in lockstep and fails at
// the first step where anything observable differs.
func checkDrainMatchesReference(t *testing.T, script []byte) {
	t.Helper()
	s1, s2 := &drainScript{b: script}, &drainScript{b: script}
	opt, ref := newDrainWorld(t, s1, false), newDrainWorld(t, s2, true)
	for step := 0; step < 400 && !s1.done(); step++ {
		op, a, b := s1.next(), s1.next(), s1.next()
		s2.next()
		s2.next()
		s2.next()
		got, want := opt.step(op, a, b), ref.step(op, a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): poller diverged from reference\n got: %+v\nwant: %+v", step, want.Op, got, want)
		}
	}
}

// TestDrainRingsMatchesReference drives both pollers through seeded
// random scripts: guest and ring counts, ring depths, poll weights,
// budgets at or below zero and above it, overload trimming on and off,
// and submits, polls, revokes and detaches between passes.
func TestDrainRingsMatchesReference(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 16+rng.Intn(600))
		rng.Read(script)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkDrainMatchesReference(t, script) })
	}
}

// FuzzDrainRingsMatchesReference is the same lockstep comparison over
// arbitrary scripts.
func FuzzDrainRingsMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 3, 3, 1, 2, 3, 1, 2, 0, 0, 5, 0, 7, 0, 9, 0, 12, 4, 0, 3, 7, 1, 9, 2, 30})
	f.Fuzz(func(t *testing.T, script []byte) {
		checkDrainMatchesReference(t, script)
	})
}
