package workload

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/simtime"
)

// Generate renders a scenario — tenant specs, a seed, a horizon — into a
// concrete Trace: every tenant's arrival process and key chooser run
// forward in simulated time and the streams merge in (time, spec order)
// order, so the same inputs always produce the identical trace, and the
// trace file is the only artefact a replay needs.
//
// Seeding mirrors the fleet scheduler's convention (seed + index*7919 +
// 1 per tenant, a distinct lane per generator), so a spec's stream is
// invariant to which other tenants share the scenario.
func Generate(specs []Spec, seed int64, horizon simtime.Duration) (*Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: generate horizon %d must be positive", horizon)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: generate needs at least one spec")
	}
	type lane struct {
		spec    *Spec
		arrival Arrival
		keys    KeyChooser
		next    simtime.Time // next arrival instant (past horizon = done)
		emitted int
		rr      int
	}
	lanes := make([]*lane, 0, len(specs))
	for i := range specs {
		sp := &specs[i]
		if err := sp.validate(); err != nil {
			return nil, err
		}
		arr, err := sp.NewArrival(seed + int64(i)*7919 + 1)
		if err != nil {
			return nil, err
		}
		keys, err := sp.NewKeys(seed + int64(i)*7919 + 2)
		if err != nil {
			return nil, err
		}
		ln := &lane{spec: sp, arrival: arr, keys: keys}
		ln.next = simtime.Time(0).Add(arr.NextInterval())
		lanes = append(lanes, ln)
	}
	// Size the trace for the specs' mean rates over the horizon (capped
	// by Ops) plus a margin, so appends rarely regrow it. The guess
	// changes capacity only, never the events, and is bounded so that an
	// absurd rate cannot reserve memory up front.
	var expect float64
	for _, ln := range lanes {
		n := meanOPS(ln.arrival, ln.spec) * horizon.Seconds()
		if ln.spec.Ops > 0 {
			n = min(n, float64(ln.spec.Ops))
		}
		expect += n
	}
	end := simtime.Time(0).Add(horizon)
	tr := &Trace{Events: make([]Event, 0, int(min(expect*1.0625, 1<<22))+16)}
	for {
		var pick *lane
		for _, ln := range lanes {
			if ln.next >= end {
				continue
			}
			if ln.spec.Ops > 0 && ln.emitted >= ln.spec.Ops {
				continue
			}
			if pick == nil || ln.next < pick.next {
				pick = ln // ties resolve to the earlier spec: lanes scan in spec order
			}
		}
		if pick == nil {
			return tr, nil
		}
		obj := pick.rr
		if pick.keys != nil {
			obj = pick.keys.Next()
		}
		pick.rr = (pick.rr + 1) % len(pick.spec.Objects)
		tr.Events = append(tr.Events, Event{
			At:     pick.next,
			Tenant: pick.spec.Name,
			Object: pick.spec.Objects[obj%len(pick.spec.Objects)],
			Fn:     pick.spec.Fn,
			Class:  pick.spec.Class,
			Size:   pick.spec.SizeBytes,
		})
		pick.emitted++
		pick.next = pick.next.Add(pick.arrival.NextInterval())
	}
}

// meanOPS is an arrival process's long-run mean rate: MMPP reports its
// dwell-weighted mean; for Poisson and Diurnal it is the spec's rate.
func meanOPS(arr Arrival, sp *Spec) float64 {
	if m, ok := arr.(*MMPP); ok {
		return m.MeanOPS()
	}
	return sp.RateOPS
}
