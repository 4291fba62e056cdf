// Command elisa-top is the operator's live view of the exit-less fast
// path: it boots a multi-tenant ELISA system with the flight recorder
// attached, drives a zipfian read/write workload through it, and renders
// a per-attachment table — calls/sec, errors, p50/p99 latency, and TLB
// miss rate — once per simulated interval, the way top(1) would over a
// production machine.
//
// Latencies come from the recorder's per-attachment histograms, call and
// error counts from the manager's accounting, and TLB rates from the
// per-vCPU counters; everything on screen is also exportable via
// -prom/-json at exit.
//
// With -objects N > -slot-budget B, each tenant's working set
// oversubscribes its physical EPTP slots and the SLOTS (backed/budget)
// and REMAP/S (HCSlotFault re-binds per second) columns show the
// virtualisation layer working.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	elisa "github.com/elisa-go/elisa"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/stats"
	"github.com/elisa-go/elisa/internal/workload"
)

// Manager-function ids of the demo workload.
const (
	fnGet = 1
	fnPut = 2
	// fnBogus is deliberately unregistered: a slice of calls use it so
	// the errors column shows real per-tenant error accounting.
	fnBogus = 99
)

const (
	objName  = "kv"
	objPages = 64
	valBytes = 256
)

func main() {
	guests := flag.Int("guests", 4, "number of tenant guests")
	objects := flag.Int("objects", 1, "objects per tenant (working-set size)")
	slotBudget := flag.Int("slot-budget", 0, "physical EPTP slots per guest (0 = whole list)")
	frames := flag.Int("frames", 5, "number of table refreshes")
	interval := flag.Int("interval", 50, "simulated milliseconds per frame")
	sample := flag.Int("sample", 1, "span sampling: keep 1 in N spans")
	skew := flag.Float64("skew", 1.1, "zipf skew of the key popularity (>1)")
	readRatio := flag.Float64("reads", 0.9, "fraction of GETs in the mix")
	errEvery := flag.Int("err-every", 64, "inject one failing call every N ops (0 = never)")
	ringDepth := flag.Int("ring", 0, "drive ops through exit-less call rings of this depth (0 = one gate crossing per call); the RING column then shows drained descriptors and batch p50")
	ringDeadlineUs := flag.Int("ring-deadline", 5, "ring batching deadline in simulated microseconds (with -ring)")
	pollBudget := flag.Int("poll-budget", 64, "descriptors the manager poller services per frame (with -ring; 0 = poller off, rings drain only via guest flushes)")
	overload := flag.Bool("overload", false, "arm overload control: saturated rings bounce CompBusy and guests retry with deterministic backoff (with -ring); the SHED/BUSY column then shows bounces/retries per frame")
	shards := flag.Int("shards", 1, "boot a sharded cluster with N manager shards and render one row per shard (SHARD/GOODPUT/OCC/REMAP); calls route via the consistent-hash placement ring; incompatible with -ring, -overload, and -faults")
	faults := flag.Int("faults", 0, "arm a chaos plan with N seeded fault injections (0 = chaos off); the CHAOS column then shows per-guest hits")
	faultSeed := flag.Int64("fault-seed", 42, "seed of the chaos plan (same seed = same fault trace)")
	ansi := flag.Bool("ansi", false, "redraw in place with ANSI escapes instead of printing frames sequentially")
	prom := flag.Bool("prom", false, "dump Prometheus-format metrics at exit")
	jsonOut := flag.Bool("json", false, "dump JSON metrics at exit")
	once := flag.Bool("once", false, "with -json: drive exactly one interval and emit a machine-readable snapshot (bit-identical for the same flags), then exit")
	spans := flag.Int("spans", 0, "print the last N sampled call spans at exit")
	flag.Parse()
	if *once {
		if !*jsonOut {
			log.Fatal("elisa-top: -once requires -json (the one-shot mode has no table renderer)")
		}
		if err := runOnce(os.Stdout, *guests, *objects, *slotBudget, *interval, *sample, *skew, *readRatio,
			*errEvery, *ringDepth, *ringDeadlineUs, *pollBudget, *overload, *shards); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *shards > 1 {
		if *ringDepth > 0 || *overload || *faults > 0 {
			log.Fatal("elisa-top: -shards is the per-call cluster mode; -ring, -overload, and -faults are single-shard flags")
		}
		if err := runShards(*guests, *objects, *shards, *slotBudget, *frames, *interval, *sample, *skew, *readRatio,
			*errEvery, *ansi, *prom, *jsonOut); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*guests, *objects, *slotBudget, *frames, *interval, *sample, *skew, *readRatio, *errEvery,
		*ringDepth, *ringDeadlineUs, *pollBudget, *overload, *faults, *faultSeed, *ansi, *prom, *jsonOut, *spans); err != nil {
		log.Fatal(err)
	}
}

// tenant is one guest driving load.
type tenant struct {
	g     *elisa.GuestVM
	hs    []*elisa.Handle // one per object, cycled round-robin
	rings []*elisa.RingCaller
	rr    int
	keys  workload.KeyChooser
	mix   *workload.Mix
	ops   int
	start simtime.Time // frame start on this guest's clock
}

// pollRings drains every completion the tenant's rings have ready.
func (tn *tenant) pollRings(v *elisa.VCPU) {
	var comps [64]elisa.Comp
	for _, rc := range tn.rings {
		for {
			n, err := rc.Poll(v, comps[:])
			if err != nil || n == 0 {
				break
			}
		}
	}
}

// buildSingle boots the single-shard system and its tenants: nObjects
// objects, every tenant attached to all of them, plus one call ring per
// attachment when ringDepth > 0.
func buildSingle(nGuests, nObjects, slotBudget, sample int, skew, readRatio float64,
	ringDepth, ringDeadlineUs int, overload bool) (*elisa.System, []*tenant, error) {
	if nGuests <= 0 || nObjects <= 0 {
		return nil, nil, fmt.Errorf("need at least one guest and one object")
	}
	sys, err := elisa.NewSystem(elisa.Config{
		PhysBytes:   256*1024*1024 + nGuests*nObjects*64*1024,
		SlotBudget:  slotBudget,
		TraceEvents: 1024,
		Observe:     &elisa.ObserveConfig{SampleEvery: sample},
	})
	if err != nil {
		return nil, nil, err
	}
	mgr := sys.Manager()
	if overload {
		mgr.SetOverload(elisa.OverloadConfig{Enabled: true})
	}
	objNames := make([]string, nObjects)
	for i := range objNames {
		objNames[i] = objName
		if nObjects > 1 {
			objNames[i] = fmt.Sprintf("%s-%02d", objName, i)
		}
		if _, err := mgr.CreateObject(objNames[i], objPages*elisa.PageSize); err != nil {
			return nil, nil, err
		}
	}
	// GET: object -> exchange at the keyed offset; PUT: exchange -> object.
	if err := mgr.RegisterFunc(fnGet, func(c *elisa.CallContext) (uint64, error) {
		return uint64(valBytes), c.CopyObjectToExchange(0, int(c.Args[0]), valBytes)
	}); err != nil {
		return nil, nil, err
	}
	if err := mgr.RegisterFunc(fnPut, func(c *elisa.CallContext) (uint64, error) {
		return uint64(valBytes), c.CopyExchangeToObject(int(c.Args[0]), 0, valBytes)
	}); err != nil {
		return nil, nil, err
	}

	nKeys := objPages*elisa.PageSize/valBytes - 1
	tenants := make([]*tenant, nGuests)
	for i := range tenants {
		g, err := sys.NewGuestVM(fmt.Sprintf("tenant-%d", i), 16*elisa.PageSize)
		if err != nil {
			return nil, nil, err
		}
		hs := make([]*elisa.Handle, len(objNames))
		var rings []*elisa.RingCaller
		for j, name := range objNames {
			h, err := g.Attach(name)
			if err != nil {
				return nil, nil, err
			}
			hs[j] = h
			if ringDepth > 0 {
				cfg := elisa.RingConfig{
					Depth:    ringDepth,
					Deadline: simtime.Duration(ringDeadlineUs) * simtime.Microsecond,
				}
				if overload {
					// Bounded retries so a CompBusy bounce backs off and
					// re-submits instead of surfacing to the workload loop.
					cfg.Retry = elisa.RetryPolicy{MaxAttempts: 3, Seed: int64(7 + i)}
				}
				rc, err := h.Ring(g.VCPU(), cfg)
				if err != nil {
					return nil, nil, err
				}
				rings = append(rings, rc)
			}
		}
		keys, err := workload.NewZipf(int64(1000+i), nKeys, skew)
		if err != nil {
			return nil, nil, err
		}
		mix, err := workload.NewMix(int64(2000+i), readRatio)
		if err != nil {
			return nil, nil, err
		}
		tenants[i] = &tenant{g: g, hs: hs, rings: rings, keys: keys, mix: mix}
	}
	return sys, tenants, nil
}

// driveFrame advances every live tenant by one simulated interval of its
// own clock, settles its rings, and then runs one budget-bounded manager
// poller pass, as the fleet scheduler interleaves one with its quanta. A
// fnBogus call errors by design; any other error is fatal unless chaos is
// armed, where injected failures (and guest deaths) are the point.
func driveFrame(mgr *elisa.Manager, tenants []*tenant, interval simtime.Duration,
	errEvery, ringDepth, pollBudget int, chaos bool) error {
	for _, tn := range tenants {
		if tn.g.Dead() {
			continue // crashed in an earlier frame; quarantined by the caller
		}
		v := tn.g.VCPU()
		tn.start = v.Clock().Now()
		for !tn.g.Dead() && v.Clock().Elapsed(tn.start) < interval {
			off := tn.keys.Next() * valBytes
			fn := uint64(fnPut)
			if tn.mix.Read() {
				fn = fnGet
			}
			tn.ops++
			if errEvery > 0 && tn.ops%errEvery == 0 {
				fn = fnBogus
			}
			if tn.rings != nil {
				// Ring datapath: enqueue exit-lessly; a failing function
				// comes back as a CompErr completion, so only protocol
				// errors surface here. Poll before the completion queue
				// can fill, or flushes stall on backpressure.
				if tn.rings[tn.rr].Pending() >= ringDepth {
					tn.pollRings(v)
				}
				if err := tn.rings[tn.rr].Submit(v, fn, uint64(off)); err != nil && !chaos {
					return fmt.Errorf("%s: submit: %w", tn.g.Name(), err)
				}
			} else if _, err := tn.hs[tn.rr].Call(v, fn, uint64(off)); err != nil && fn != fnBogus && !chaos {
				return fmt.Errorf("%s: call: %w", tn.g.Name(), err)
			}
			tn.rr = (tn.rr + 1) % len(tn.hs)
		}
		if tn.rings != nil && !tn.g.Dead() {
			// Frame epilogue: flush the batching backlog and collect
			// completions so the frame's counters are settled.
			for _, rc := range tn.rings {
				if err := rc.Flush(v); err != nil && !chaos {
					return fmt.Errorf("%s: flush: %w", tn.g.Name(), err)
				}
			}
			tn.pollRings(v)
		}
	}
	if ringDepth > 0 && pollBudget > 0 {
		if _, err := mgr.DrainRings(pollBudget); err != nil {
			return err
		}
	}
	return nil
}

func run(nGuests, nObjects, slotBudget, frames, intervalMs, sample int, skew, readRatio float64, errEvery,
	ringDepth, ringDeadlineUs, pollBudget int, overload bool, nFaults int, faultSeed int64, ansi, prom, jsonOut bool, nSpans int) error {
	sys, tenants, err := buildSingle(nGuests, nObjects, slotBudget, sample, skew, readRatio, ringDepth, ringDeadlineUs, overload)
	if err != nil {
		return err
	}
	mgr := sys.Manager()

	// Chaos: arm a seeded fault plan across the tenants. Injected faults
	// hit the gate, negotiation, and EPTP-list paths; between frames the
	// pump applies async faults, repairs the list, and quarantines any
	// tenant that died — the CHAOS column tallies the hits.
	var inj *elisa.FaultInjector
	if nFaults > 0 {
		names := make([]string, len(tenants))
		for i, tn := range tenants {
			names[i] = tn.g.Name()
		}
		plan, err := elisa.NewFaultPlan(elisa.FaultPlanConfig{
			Seed:    faultSeed,
			N:       nFaults,
			Guests:  names,
			Horizon: simtime.Duration(frames*intervalMs) * simtime.Millisecond,
		})
		if err != nil {
			return err
		}
		inj = sys.ArmFaults(plan)
	}

	rec := sys.Recorder()
	interval := simtime.Duration(intervalMs) * simtime.Millisecond
	prevCalls := make(map[string]uint64) // guest -> calls at frame start
	prevErrs := make(map[string]uint64)
	prevHits := make(map[string]uint64)
	prevMisses := make(map[string]uint64)
	prevFaults := make(map[string]uint64)
	prevBusy := make(map[string]uint64)
	prevRetried := make(map[string]uint64)

	for frame := 1; frame <= frames; frame++ {
		if err := driveFrame(mgr, tenants, interval, errEvery, ringDepth, pollBudget, inj != nil); err != nil {
			return err
		}
		if inj != nil {
			// Pump asynchronous faults up to the furthest guest clock,
			// repair whatever they scribbled, and quarantine the dead.
			var now simtime.Time
			for _, tn := range tenants {
				if t := tn.g.VCPU().Clock().Now(); t > now {
					now = t
				}
			}
			mgr.PumpFaults(now)
			if _, err := mgr.FsckRepair(); err != nil {
				return err
			}
			if _, err := mgr.RecoverDead(); err != nil {
				return err
			}
		}
		if ansi {
			fmt.Print("\033[H\033[2J")
		}
		renderFrame(os.Stdout, sys, tenants, frame, prevCalls, prevErrs, prevHits, prevMisses, prevFaults, prevBusy, prevRetried)
	}

	if inj != nil {
		rs := sys.RecoveryStats()
		fmt.Printf("\nchaos: %d faults fired (%d pending), %d guests quarantined (%d died mid-gate), %d list repairs, %d retries\n",
			len(inj.Fired()), inj.Pending(), rs.Recoveries, rs.MidGateDeaths, rs.Repairs, rs.Retries)
	}

	if nSpans > 0 {
		all := rec.Spans()
		if len(all) > nSpans {
			all = all[len(all)-nSpans:]
		}
		fmt.Printf("\nlast %d sampled spans (of %d seen, %d sampled):\n", len(all), rec.SpansSeen(), rec.SpansSampled())
		for _, sp := range all {
			fmt.Println(" ", sp)
		}
	}
	if prom {
		fmt.Println()
		fmt.Print(sys.Metrics().Prometheus())
	}
	if jsonOut {
		raw, err := sys.Metrics().JSON()
		if err != nil {
			return err
		}
		fmt.Println()
		os.Stdout.Write(raw)
		fmt.Println()
	}
	return nil
}

// deltaU64 is a saturating subtraction for per-frame counter deltas.
func deltaU64(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// renderFrame prints one refresh of the per-tenant table. The delta maps
// carry per-guest counters from the previous frame so rates are
// per-interval, not cumulative.
func renderFrame(out *os.File, sys *elisa.System, tenants []*tenant, frame int,
	prevCalls, prevErrs, prevHits, prevMisses, prevFaults, prevBusy, prevRetried map[string]uint64) {
	rec := sys.Recorder()
	byGuest := make(map[string]struct{ calls, errs uint64 })
	for _, st := range sys.Manager().Stats() {
		acct := byGuest[st.Guest]
		acct.calls += st.Calls
		acct.errs += st.FnErrors
		byGuest[st.Guest] = acct
	}
	slots := make(map[string]elisa.SlotStats)
	for _, ss := range sys.SlotStats() {
		slots[ss.Guest] = ss
	}
	var chaosHits map[string]uint64
	if inj := sys.Injector(); inj != nil {
		chaosHits = inj.FiredByGuest()
	}
	// Ring datapath accounting, aggregated per guest: descriptors drained
	// (both sides) and the largest batch-size p50 across the guest's rings.
	type ringAgg struct {
		drained uint64
		p50     int64
		busied  uint64
		retried uint64
	}
	ringsByGuest := make(map[string]ringAgg)
	for _, rs := range sys.RingStats() {
		agg := ringsByGuest[rs.Guest]
		agg.drained += rs.Flushed + rs.Drained
		if rs.BatchP50 > agg.p50 {
			agg.p50 = rs.BatchP50
		}
		agg.busied += rs.Busied
		agg.retried += rs.Retried
		ringsByGuest[rs.Guest] = agg
	}
	tb := stats.NewTable(fmt.Sprintf("elisa-top frame %d", frame),
		"GUEST", "OBJS", "CALLS", "CALLS/S", "ERRS", "P50[ns]", "P99[ns]", "SLOTS", "REMAP/S", "TLB-MISS%", "RING", "SHED/BUSY", "CHAOS")
	for _, tn := range tenants {
		name := tn.g.Name()
		acct := byGuest[name]
		st := tn.g.Stats()
		ss := slots[name]
		// Clamp at zero: quarantining a crashed guest frees its
		// attachments, so cumulative counters can drop below the
		// previous frame's snapshot.
		dCalls := deltaU64(acct.calls, prevCalls[name])
		dErrs := deltaU64(acct.errs, prevErrs[name])
		dHits := deltaU64(st.TLBHits, prevHits[name])
		dMisses := deltaU64(st.TLBMisses, prevMisses[name])
		dFaults := deltaU64(ss.Faults, prevFaults[name])
		elapsed := tn.g.VCPU().Clock().Elapsed(tn.start)
		h := rec.GuestHistogram(name)
		missPct := 0.0
		if dHits+dMisses > 0 {
			missPct = 100 * float64(dMisses) / float64(dHits+dMisses)
		}
		chaos := "-"
		if chaosHits != nil {
			chaos = fmt.Sprintf("%d", chaosHits[name])
			if tn.g.Dead() {
				chaos += " DEAD"
			}
		}
		ring, busyCol := "-", "-"
		if agg, ok := ringsByGuest[name]; ok {
			ring = fmt.Sprintf("%d(b%d)", agg.drained, agg.p50)
			dBusy := deltaU64(agg.busied, prevBusy[name])
			dRetried := deltaU64(agg.retried, prevRetried[name])
			busyCol = fmt.Sprintf("%d/%d", dBusy, dRetried)
			prevBusy[name], prevRetried[name] = agg.busied, agg.retried
		}
		tb.AddRow(name, len(tn.hs), dCalls, stats.Throughput(int64(dCalls), elapsed),
			dErrs, h.Percentile(0.50), h.Percentile(0.99),
			fmt.Sprintf("%d/%d", ss.Backed, ss.Budget),
			stats.Throughput(int64(dFaults), elapsed), missPct, ring, busyCol, chaos)
		prevCalls[name], prevErrs[name] = acct.calls, acct.errs
		prevHits[name], prevMisses[name] = st.TLBHits, st.TLBMisses
		prevFaults[name] = ss.Faults
	}
	tb.AddNote("latency percentiles are cumulative over the run; rates are per-frame; SLOTS is backed/budget physical EPTP slots, REMAP/S the HCSlotFault re-bind rate; RING is ring descriptors drained with the batch-size p50 in parentheses (-ring); SHED/BUSY is descriptors shed from saturated rings as CompBusy bounces / guest backoff retries per frame (-overload); CHAOS is injected faults landed on the guest (-faults)")
	fmt.Fprint(out, tb.String())
	fmt.Fprintln(out)
}
