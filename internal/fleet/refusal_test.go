package fleet

import (
	"fmt"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/fault"
	"github.com/elisa-go/elisa/internal/obs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
)

// stormPlan schedules one burst of n EPTP-list corruptions against guest,
// starting at start and 5µs apart. The corruptions are repaired on the
// pump tick that applies them, so they feed the guest's circuit breaker
// without killing it.
func stormPlan(guest string, start simtime.Time, n int) *fault.Plan {
	p := &fault.Plan{Seed: 1}
	for i := 0; i < n; i++ {
		p.Injections = append(p.Injections, fault.Injection{
			Seq: i, At: start + simtime.Time(i)*5_000, Class: fault.ClassEPTPCorrupt,
			Guest: guest, Count: 1, Arg: uint64(i),
		})
	}
	return p
}

// armRecorder gives the rig's manager a flight recorder whose causal log
// holds every event of a short run.
func armRecorder(r *rig) *obs.CausalLog {
	rec := obs.NewRecorder(obs.Config{CausalEvents: 1 << 16})
	r.mgr.SetRecorder(rec)
	return rec.Causal()
}

// overloadEvents returns the causal log's trace-0 overload events: the
// refusal events (throttle, shed, quarantine) and, separately, the
// breaker trips. It fails the test if the log evicted anything.
func overloadEvents(t *testing.T, l *obs.CausalLog) (refusals, trips []obs.RingEvent) {
	t.Helper()
	evs := l.Events()
	if uint64(len(evs)) != l.EventsSeen() {
		t.Fatalf("causal log evicted events: %d retained of %d", len(evs), l.EventsSeen())
	}
	for _, e := range evs {
		switch {
		case e.Kind == obs.EvBreaker && strings.HasPrefix(e.Note, "tripped "):
			trips = append(trips, e)
		case e.Kind == obs.EvThrottle || e.Kind == obs.EvShed || e.Kind == obs.EvBreaker:
			if e.Trace != 0 {
				t.Fatalf("overload refusal carries trace %#x: %v", e.Trace, e)
			}
			refusals = append(refusals, e)
		}
	}
	return refusals, trips
}

// The breaker rung end to end: a fault storm against one tenant trips its
// breaker, and every arrival refused while it is open shows up three ways
// — as BreakerShed in the report, as a quarantine verdict in the decision
// trace, and as a trace-0 breaker event in the causal log after the trip.
func TestFleetBreakerRungQuarantines(t *testing.T) {
	const cooldown = 200 * simtime.Microsecond
	r := newRig(t, 2, 0)
	causal := armRecorder(r)
	d := overload.NewDecisionTrace(0)
	s, err := New(r.hv, r.mgr, Config{
		Cores: 1, Seed: 5, QueueDepth: 16, Decisions: d,
		Faults:           stormPlan("q", 100_000, 3),
		BreakerThreshold: 3, BreakerWindow: 100 * simtime.Microsecond, BreakerCooldown: cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"q", "ok"} {
		if _, err := s.Admit(TenantSpec{Name: name, Objects: objects(2), Fn: fnNop, RateOPS: 1_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Run(simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := rep.Tenants[0], rep.Tenants[1]
	if q.Crashed || q.BreakerShed == 0 {
		t.Fatalf("storming tenant was not quarantined: %+v", q)
	}
	if ok.BreakerShed != 0 {
		t.Fatalf("bystander refused by a breaker: %+v", ok)
	}
	if n := d.Count("q", overload.VerdictQuarantine); n != q.BreakerShed {
		t.Fatalf("decision trace holds %d quarantine verdicts, report %d", n, q.BreakerShed)
	}
	refusals, trips := overloadEvents(t, causal)
	if len(trips) != 1 || trips[0].Guest != "q" || trips[0].Note != fmt.Sprintf("tripped 1, cooldown %s", cooldown) {
		t.Fatalf("want one trip of q with the configured cooldown, got %v", trips)
	}
	quarantined := uint64(0)
	for _, e := range refusals {
		if e.Kind != obs.EvBreaker || e.Guest != "q" || e.Note != "quarantined" {
			t.Fatalf("unexpected overload event: %v", e)
		}
		if e.Time < trips[0].Time || e.Time >= trips[0].Time.Add(cooldown+s.cfg.PumpEvery) {
			t.Fatalf("quarantine refusal at %d outside the cooldown after the trip at %d", e.Time, trips[0].Time)
		}
		quarantined++
	}
	t.Logf("q: %d quarantine refusals after the trip at %s", quarantined, simtime.Duration(trips[0].Time))
	if quarantined != q.BreakerShed {
		t.Fatalf("causal log holds %d quarantine events, report %d", quarantined, q.BreakerShed)
	}
}

// Every rung of the refusal ladder, armed at once: each refusal is
// counted once in the report, once in the decision trace, and — for
// throttle, shed and quarantine — once in the causal log, in the same
// order and with the matching note. Queue-full drops have no causal event.
func TestFleetRefusalRecordedOnce(t *testing.T) {
	r := newRig(t, 2, 0)
	causal := armRecorder(r)
	d := overload.NewDecisionTrace(0)
	calls := map[string]int{}
	s, err := New(r.hv, r.mgr, Config{
		Cores: 1, Seed: 9, QueueDepth: 8, Decisions: d,
		Classes: 2, ShedLow: 0.3, ShedHigh: 0.6,
		Faults:           stormPlan("q", 50_000, 3),
		BreakerThreshold: 3, BreakerWindow: 100 * simtime.Microsecond, BreakerCooldown: 100 * simtime.Microsecond,
		// A deterministic cluster-wide cap on tenant g: every third
		// arrival is refused at the outermost gate.
		GlobalAdmit: func(_ simtime.Time, tenant string, _ int) bool {
			calls[tenant]++
			return tenant != "g" || calls[tenant]%3 != 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []TenantSpec{
		{Name: "g", Class: 0, RateOPS: 2_000_000},
		{Name: "b", Class: 0, RateOPS: 2_000_000, AdmitRateOPS: 500_000, AdmitBurst: 4},
		{Name: "q", Class: 0, RateOPS: 2_000_000},
		{Name: "hi", Class: 1, RateOPS: 8_000_000},
	}
	for _, sp := range specs {
		sp.Objects, sp.Fn = objects(2), fnNop
		if _, err := s.Admit(sp); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Run(500 * simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Skipped() != 0 {
		t.Fatalf("decision trace capped: %d skipped", d.Skipped())
	}

	var total [overload.VerdictRebalance]uint64
	for _, tr := range rep.Tenants {
		want := map[overload.Verdict]uint64{
			overload.VerdictThrottle:   tr.Throttled,
			overload.VerdictQuarantine: tr.BreakerShed,
			overload.VerdictShed:       tr.Shed,
			overload.VerdictDrop:       tr.Dropped,
			overload.VerdictBusy:       tr.Busied,
		}
		sum := d.Count(tr.Name, overload.VerdictAdmit)
		for v, n := range want {
			if got := d.Count(tr.Name, v); got != n {
				t.Errorf("%s: %d %s verdicts in the trace, report says %d", tr.Name, got, v, n)
			}
			sum += n
			total[v] += n
		}
		if sum != tr.Submitted {
			t.Errorf("%s: verdicts sum to %d, submitted %d", tr.Name, sum, tr.Submitted)
		}
	}
	for _, v := range []overload.Verdict{overload.VerdictThrottle, overload.VerdictQuarantine, overload.VerdictShed, overload.VerdictDrop} {
		if total[v] == 0 {
			t.Errorf("no %s refusals: the scenario no longer drives that rung", v)
		}
	}
	if rep.Tenants[0].Throttled == 0 || rep.Tenants[1].Throttled == 0 {
		t.Errorf("want throttles from both the global and the token bucket: %+v", rep.Tenants[:2])
	}

	// The causal log mirrors the trace's throttle, quarantine and shed
	// verdicts one for one.
	var want []overload.Decision
	for _, dec := range d.Events() {
		switch dec.Verdict {
		case overload.VerdictThrottle, overload.VerdictQuarantine, overload.VerdictShed:
			want = append(want, dec)
		}
	}
	got, _ := overloadEvents(t, causal)
	if len(got) != len(want) {
		t.Fatalf("causal log holds %d refusal events, decision trace %d", len(got), len(want))
	}
	t.Logf("refusals by verdict: %v", total)
	for i, dec := range want {
		e := got[i]
		var kind obs.EventKind
		var note string
		switch dec.Verdict {
		case overload.VerdictThrottle:
			kind, note = obs.EvThrottle, dec.Note
		case overload.VerdictQuarantine:
			kind, note = obs.EvBreaker, "quarantined"
		case overload.VerdictShed:
			kind, note = obs.EvShed, fmt.Sprintf("class %d below %s", dec.Class, dec.Note)
		}
		if e.Kind != kind || e.Guest != dec.Tenant || e.Time != dec.At || e.Note != note {
			t.Fatalf("refusal %d: causal event %v does not mirror decision %+v", i, e, dec)
		}
	}
}

// A tenant evicted while quarantined stays quarantined on the adopting
// scheduler — one with no fault plan, like a cluster's non-fault shards
// — until its breaker's cooldown ends, then is admitted again. Moved
// back to the source, whose injector fired the storm that tripped it,
// the breaker counts only faults fired after the adoption and does not
// re-trip.
func TestFleetQuarantineSurvivesMigration(t *testing.T) {
	const cooldown = 500 * simtime.Microsecond
	breakers := func(cfg Config) Config {
		cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown = 3, 100*simtime.Microsecond, cooldown
		return cfg
	}
	spec := TenantSpec{Name: "q", Objects: objects(2), Fn: fnNop, RateOPS: 1_000_000}

	// Source: a storm late in the window leaves q quarantined at its end.
	ra := newRig(t, 2, 0)
	causalA := armRecorder(ra)
	src, err := New(ra.hv, ra.mgr, breakers(Config{Cores: 1, Seed: 5, QueueDepth: 16, Faults: stormPlan("q", 800_000, 3)}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Admit(spec); err != nil {
		t.Fatal(err)
	}
	repA, err := src.Run(simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !repA.Tenants[0].Quarantined {
		t.Fatalf("q not quarantined at the end of the source window: %+v", repA.Tenants[0])
	}
	_, trips := overloadEvents(t, causalA)
	if len(trips) != 1 {
		t.Fatalf("want one trip on the source, got %v", trips)
	}
	openUntil := trips[0].Time.Add(cooldown)

	rb := newRig(t, 2, 0)
	causalB := armRecorder(rb)
	d := overload.NewDecisionTrace(0)
	dst, err := New(rb.hv, rb.mgr, breakers(Config{Cores: 1, Seed: 6, QueueDepth: 16, Decisions: d}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.Evict("q")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Adopt(st); err != nil {
		t.Fatal(err)
	}
	repB, err := dst.Run(3 * simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	q := repB.Tenants[0]
	if q.Quarantined || q.BreakerShed <= repA.Tenants[0].BreakerShed || q.Completed <= repA.Tenants[0].Completed {
		t.Fatalf("adopted tenant: %+v (source report %+v)", q, repA.Tenants[0])
	}
	if _, trips := overloadEvents(t, causalB); len(trips) != 0 {
		t.Fatalf("adopted breaker tripped on a fault-free scheduler: %v", trips)
	}
	var firstAdmit simtime.Time = -1
	quarantined := 0
	for _, dec := range d.Events() {
		if dec.Tenant != "q" {
			continue
		}
		switch dec.Verdict {
		case overload.VerdictQuarantine:
			quarantined++
			if firstAdmit >= 0 || dec.At >= openUntil.Add(dst.cfg.PumpEvery) {
				t.Fatalf("quarantine refusal at %d after the cooldown ended at %d", dec.At, openUntil)
			}
		case overload.VerdictAdmit:
			if firstAdmit < 0 {
				firstAdmit = dec.At
			}
		}
	}
	if quarantined == 0 || firstAdmit < openUntil {
		t.Fatalf("destination refused %d arrivals and first admitted q at %d; the cooldown ends at %d",
			quarantined, firstAdmit, openUntil)
	}

	// Back to the source with a closed breaker: the storm that tripped it
	// there is history and must not trip it again.
	if st, err = dst.Evict("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Adopt(st); err != nil {
		t.Fatal(err)
	}
	repA, err = src.Run(simtime.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, trips := overloadEvents(t, causalA); len(trips) != 1 || repA.Tenants[1].BreakerShed != q.BreakerShed {
		t.Fatalf("q re-tripped on returning to the source: trips %v, report %+v", trips, repA.Tenants[1])
	}
}
