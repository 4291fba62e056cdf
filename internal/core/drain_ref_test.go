package core

// Reference model for the manager poller. refDrainRings is DrainRings as
// it stood before idle elision and the ordered guest registry: it
// rebuilds its worklist from the guests map with two sorts on every pass
// and re-reads every ring in the work-conserving pass. The optimised
// poller must be indistinguishable from it — same manager clock, same
// returned counts, same ring accounting, same causal event stream — on
// any sequence of submits, polls, revokes, detaches and passes.

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
// only the worklist build and the pass structure are the old ones.
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

	if budget <= 0 {
		total := 0
		for _, g := range groups {
			for _, t := range g.targets {
				n, err := m.drainRing(t.a, t.rs, -1)
				total += n
				if err != nil {
					return total, err
				}
			}
		}
		return total, nil
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
			for _, t := range g.targets {
				if err := m.trimRing(t.a, t.rs); err != nil {
					return total, err
				}
			}
		}
	}
	return total, nil
}

// refDrainRingGroup visits every ring of one guest until limit
// descriptors are serviced, re-reading idle rings each time.
func refDrainRingGroup(m *Manager, targets []drainTarget, limit int) (int, error) {
	total := 0
	for _, t := range targets {
		if total >= limit {
			break
		}
		n, err := m.drainRing(t.a, t.rs, limit-total)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
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
// identically whatever the operation does.
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
	switch op % 10 {
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
