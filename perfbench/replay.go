package main

import (
	"fmt"
	"sort"

	"github.com/elisa-go/elisa/internal/cluster"
	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/cpu"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// fleet_replay: trace-driven open-loop replay over a 4-shard cluster.
// The regression specs' three tenants (one per arrival family:
// diurnal, MMPP, Poisson) are replicated once per shard, each replica
// with its own objects, and workload.Generate renders them into one
// trace. Every arrival lands at its trace instant whether or not
// earlier ops finished. The fleet runs over exit-less rings with the
// production overload config armed: 3 classes with shedding, per-tenant
// admission buckets, busy bounce-backs with retries, a DecisionTrace
// and cluster-wide GlobalAdmitOPS buckets. Placement is skewed —
// replica 3 starts on shard 0, leaving shard 3 empty.
//
// fleet_rebalance is the same scenario with the auto-rebalancer armed
// (default RebalanceConfig), checked to migrate at least once. It is
// runnable but not part of BENCHMARK.json: under these bursty tenants
// the rebalancer moves some tenant back to a shard it has left, and
// Cluster.MoveObject fails there ("object already exists") because it
// never removes the source shard's copy, which aborts the replay.

const (
	replayShards     = 4
	replayQueueDepth = 32
)

// replayScale sets the simulated horizon of one pass and how many
// Replay calls it is cut into.
type replayScale struct {
	horizon simtime.Duration
	chunks  int
}

var replaySize = replayScale{horizon: 8 * simtime.Millisecond, chunks: 16}

// replayGlobalOPS caps every batch replica cluster-wide.
const replayGlobalOPS = 6_000_000

// replay holds the generated inputs.
type replay struct {
	seed      int64
	size      replayScale
	width     int  // lane parallelism
	rebalance bool // arm the auto-rebalancer
	specs     []workload.Spec
	pins      map[string]int // object -> shard
}

func newReplay(seed int64, size replayScale, width int, rebalance bool) (*replay, error) {
	base, err := workload.RegressionSpecs()
	if err != nil {
		return nil, err
	}
	in := &replay{seed: seed, size: size, width: width, rebalance: rebalance, pins: make(map[string]int)}
	for r := 0; r < replayShards; r++ {
		shard := r
		if r == replayShards-1 {
			shard = 0 // the skew the rebalancer has to undo
		}
		for _, sp := range base {
			sp.Name = fmt.Sprintf("%s-%d", sp.Name, r)
			objs := make([]string, len(sp.Objects))
			for i, obj := range sp.Objects {
				objs[i] = fmt.Sprintf("%s-%s", sp.Name, obj)
				in.pins[objs[i]] = shard
			}
			sp.Objects = objs
			in.specs = append(in.specs, sp)
		}
	}
	return in, nil
}

// replayRound is one built cluster fleet plus its trace, cut into
// chunk-relative Replay windows.
type replayRound struct {
	in     *replay
	c      *cluster.Cluster
	fl     *cluster.Fleet
	dec    *overload.DecisionTrace
	chunks []*workload.Trace
	fed    map[string]uint64 // trace events per tenant
	events int64
}

func (in *replay) fleetConfig(dec *overload.DecisionTrace) cluster.FleetConfig {
	global := make(map[string]float64)
	for _, sp := range in.specs {
		if sp.Class == 0 {
			global[sp.Name] = replayGlobalOPS
		}
	}
	fc := cluster.FleetConfig{
		Config: fleet.Config{
			Cores: 2, Seed: in.seed, QueueDepth: replayQueueDepth,
			RingDepth: 16, PollBudget: 16,
			Classes: 3, ShedLow: 0.5, ShedHigh: 0.9, ShedAfter: 5 * simtime.Microsecond,
			RingRetry: core.RetryPolicy{
				MaxAttempts: 2,
				BaseBackoff: simtime.Microsecond / 4,
				MaxBackoff:  simtime.Microsecond,
				Seed:        in.seed,
			},
			Overload:    core.OverloadConfig{Enabled: true, BusyFrac: 0.5},
			Decisions:   dec,
			Parallelism: in.width,
		},
		GlobalAdmitOPS: global,
	}
	if in.rebalance {
		fc.Rebalance = &cluster.RebalanceConfig{}
	}
	return fc
}

func (in *replay) setup(tr *tracer) (round, error) {
	rd := &replayRound{in: in, fed: make(map[string]uint64)}
	var err error
	tr.begin("cluster.new")
	rd.c, err = cluster.New(cluster.Config{Shards: replayShards, Seed: in.seed})
	tr.end()
	if err != nil {
		return nil, err
	}
	if err := rd.c.RegisterFunc(workload.RegressionFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		return nil, err
	}
	for _, sp := range in.specs {
		for _, obj := range sp.Objects {
			if err := rd.c.Ring().Pin(obj, in.pins[obj]); err != nil {
				return nil, err
			}
			tr.begin("core.create_object")
			_, err := rd.c.CreateObject(obj, mem.PageSize)
			tr.end()
			if err != nil {
				return nil, err
			}
		}
	}
	rd.dec = overload.NewDecisionTrace(1) // only the exact counts are read
	if rd.fl, err = rd.c.NewFleet(in.fleetConfig(rd.dec)); err != nil {
		return nil, err
	}
	for _, sp := range in.specs {
		ts, err := fleet.SpecFromWorkload(sp, in.seed)
		if err != nil {
			return nil, err
		}
		tr.begin("core.attach") // admission attaches the tenant's working set
		_, err = rd.fl.Admit(ts)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	tr.begin("workload.generate")
	trace, err := workload.Generate(in.specs, in.seed, in.size.horizon)
	tr.end()
	if err != nil {
		return nil, err
	}
	step := in.size.horizon / simtime.Duration(in.size.chunks)
	rd.chunks = make([]*workload.Trace, in.size.chunks)
	for i := range rd.chunks {
		rd.chunks[i] = &workload.Trace{}
	}
	for _, ev := range trace.Events {
		i := int(simtime.Duration(ev.At) / step)
		ev.At -= simtime.Time(simtime.Duration(i) * step)
		rd.chunks[i].Events = append(rd.chunks[i].Events, ev)
		rd.fed[ev.Tenant]++
	}
	rd.events = int64(len(trace.Events))
	return rd, nil
}

// vcpus lists every tenant and manager vCPU across the shards.
func (rd *replayRound) vcpus() []*cpu.VCPU {
	var vs []*cpu.VCPU
	for i := 0; i < replayShards; i++ {
		vs = append(vs, rd.c.Shard(i).Manager().VM().VCPU())
		if s := rd.fl.Scheduler(i); s != nil {
			for _, t := range s.Tenants() {
				vs = append(vs, t.VM().VCPU())
			}
		}
	}
	return vs
}

func framesInUse(c *cluster.Cluster) int {
	n := 0
	for _, sh := range c.Shards() {
		pm := sh.Hypervisor().Phys()
		n += pm.Frames() - pm.FreeFrames()
	}
	return n
}

func (rd *replayRound) run(tr *tracer, m *meter) *outcome {
	in := rd.in
	o := &outcome{attempted: rd.events}
	before := sumStats(rd.vcpus())
	step := in.size.horizon / simtime.Duration(in.size.chunks)
	peak := framesInUse(rd.c)
	var rep *fleet.Report
	var done int64
	for i, ch := range rd.chunks {
		var err error
		m.begin()
		tr.begin("cluster.replay")
		rep, err = rd.fl.Replay(ch, step)
		tr.end()
		if err != nil {
			m.end(0)
			o.fail(o.attempted, "replay chunk %d: %v", i, err)
			return o
		}
		completed := int64(0)
		for _, t := range rep.Tenants {
			completed += int64(t.Completed)
		}
		m.end(completed - done)
		done = completed
		if n := framesInUse(rd.c); n > peak {
			peak = n
		}
	}
	rd.finish(o, rep, before, peak)
	return o
}

// finish derives the simulated metrics, the layer counts, and checks
// each tenant's op accounting.
func (rd *replayRound) finish(o *outcome, rep *fleet.Report, before cpu.Stats, peak int) {
	d := newDigest()
	d.add(int64(rep.Duration))
	var submitted, refused uint64
	maxQueue := 0
	var books []tenantBook
	for _, t := range rep.Tenants {
		o.ops += int64(t.Completed)
		submitted += t.Submitted
		refused += t.Dropped + t.Shed + t.BreakerShed + t.Throttled + t.Busied
		if t.MaxQueue > maxQueue {
			maxQueue = t.MaxQueue
		}
		if t.FnErrors+t.Lost > 0 {
			o.fail(int64(t.FnErrors+t.Lost), "tenant %s: %d function errors, %d lost ops", t.Name, t.FnErrors, t.Lost)
		}
		d.add(int64(t.Submitted), int64(t.Completed), int64(t.Dropped), int64(t.Shed), int64(t.BreakerShed),
			int64(t.Throttled), int64(t.Busied), int64(t.P50), int64(t.P99), int64(t.MaxQueue))
		b := tenantBook{fed: rd.fed[t.Name], rep: t, dec: make(map[overload.Verdict]uint64)}
		for _, v := range overload.Verdicts() {
			b.dec[v] = rd.dec.Count(t.Name, v)
		}
		books = append(books, b)
	}
	for _, p := range checkAccounting(books, replayQueueDepth) {
		o.fail(1, "%s", p)
	}
	st := rd.c.Stats()
	if rd.in.rebalance && st.Rebalances == 0 {
		o.fail(1, "the rebalancer never migrated a tenant off the skewed placement")
	}
	d.add(int64(st.Rebalances))
	if rep.Duration > 0 {
		o.goodputMops = float64(o.ops) / float64(rep.Duration) * 1e3
	}
	o.samples = o.ops
	o.p50, o.p99 = tenantLatency(rep.Tenants)
	o.digest = d.sum()

	after := sumStats(rd.vcpus())
	o.layers = cpuLayers(before, after, o.ops)
	o.layers["mem.frames_in_use_peak"] = float64(peak)
	var descs, drains, faults uint64
	for _, sh := range rd.c.Shards() {
		for _, r := range sh.Manager().RingStats() {
			descs += r.Flushed + r.Drained
			drains += r.Flushes + r.Drains
		}
		for _, s := range sh.Manager().SlotStats() {
			faults += s.Faults
		}
	}
	if drains > 0 {
		o.layers["core.ring_descs_per_drain"] = float64(descs) / float64(drains)
	}
	o.layers["core.slot_faults"] = float64(faults)
	if submitted > 0 {
		o.layers["fleet.refused_frac"] = float64(refused) / float64(submitted)
	}
	o.layers["fleet.max_queue"] = float64(maxQueue)
	for _, c := range rd.dec.Counts() {
		o.layers["overload.decisions."+c.Key.Verdict.String()] += float64(c.Count)
	}
	ls := rd.fl.LaneStats()
	if ls.Windows > 0 {
		o.layers["cluster.lane_parallel_frac"] = float64(ls.Parallel) / float64(ls.Windows)
	}
	o.layers["cluster.forced_serial_windows"] = float64(ls.ForcedSerial)
	o.layers["cluster.rebalances"] = float64(st.Rebalances)
	o.layers["cluster.imbalance"] = st.Imbalance
}

// tenantLatency condenses the per-tenant completion latencies (queueing
// included) the fleet report carries into fleet-wide figures. The report
// holds each tenant's p50 and p99, not the per-op samples, so the
// fleet-wide p50 and p99 are those figures averaged over tenants,
// weighted by completed ops. The worst tenant's p99 would be a true
// p99, but it sits on a 4.6%-wide histogram bucket of whichever tenant
// is worst, and moved 40% across seeds.
func tenantLatency(ts []fleet.TenantReport) (p50, p99 float64) {
	var w float64
	for _, t := range ts {
		p50 += float64(t.Completed) * float64(t.P50)
		p99 += float64(t.Completed) * float64(t.P99)
		w += float64(t.Completed)
	}
	if w == 0 {
		return 0, 0
	}
	return p50 / w, p99 / w
}

// tenantBook is one tenant's accounting as the checks see it: the trace
// events addressed to it, the fleet's counters, and the decision
// trace's per-verdict counts.
type tenantBook struct {
	fed uint64
	rep fleet.TenantReport
	dec map[overload.Verdict]uint64
}

// checkAccounting verifies every tenant's op accounting. Every trace
// event must be submitted; every submission must get exactly one
// admission verdict; every refusal counter must match its verdict
// count; and the admitted ops not yet completed, bounced, failed or
// lost are the ops still queued, which must fit the tenant's queue:
//
//	submitted = completed + throttled + quarantined + shed + dropped
//	          + busied + fnErrors + lost + queued,  0 <= queued <= depth
func checkAccounting(books []tenantBook, queueDepth int) []string {
	var bad []string
	sort.Slice(books, func(i, j int) bool { return books[i].rep.Name < books[j].rep.Name })
	for _, b := range books {
		t := b.rep
		if t.Submitted != b.fed {
			bad = append(bad, fmt.Sprintf("tenant %s: %d submitted, %d trace events", t.Name, t.Submitted, b.fed))
		}
		for _, c := range []struct {
			what string
			got  uint64
			v    overload.Verdict
		}{
			{"throttled", t.Throttled, overload.VerdictThrottle},
			{"quarantined", t.BreakerShed, overload.VerdictQuarantine},
			{"shed", t.Shed, overload.VerdictShed},
			{"dropped", t.Dropped, overload.VerdictDrop},
			{"busied", t.Busied, overload.VerdictBusy},
		} {
			if c.got != b.dec[c.v] {
				bad = append(bad, fmt.Sprintf("tenant %s: %d %s, %d %s verdicts", t.Name, c.got, c.what, b.dec[c.v], c.v))
			}
		}
		queued := int64(b.dec[overload.VerdictAdmit]) - int64(t.Completed+t.Busied+t.FnErrors+t.Lost)
		if queued < 0 || queued > int64(queueDepth) {
			bad = append(bad, fmt.Sprintf("tenant %s: %d admitted leaves %d still queued, outside [0,%d]", t.Name, b.dec[overload.VerdictAdmit], queued, queueDepth))
		}
		out := t.Completed + t.Throttled + t.BreakerShed + t.Shed + t.Dropped + t.Busied + t.FnErrors + t.Lost
		if int64(t.Submitted) != int64(out)+queued {
			bad = append(bad, fmt.Sprintf("tenant %s: %d submitted != %d accounted + %d queued", t.Name, t.Submitted, out, queued))
		}
	}
	return bad
}

func (rd *replayRound) verify(o *outcome) {
	for i, sh := range rd.c.Shards() {
		if err := sh.Manager().Fsck(); err != nil {
			o.fail(1, "shard %d fsck: %v", i, err)
		}
	}
}

// crossCheck replays the same inputs at lane width 1: the simulated
// outputs must match the measured width's exactly.
func (in *replay) crossCheck(digest uint64) *outcome {
	serial := *in
	serial.width = 1
	o := &outcome{}
	rd, err := serial.setup(nil)
	if err != nil {
		o.fail(1, "lane-width-1 setup: %v", err)
		return o
	}
	got := rd.run(nil, nil)
	if got.failed > 0 {
		o.fail(got.failed, "lane width 1: %v", got.problems)
	} else if got.digest != digest {
		o.fail(1, "lane width 1 simulated outputs differ from width %d (digest %x vs %x)", in.width, got.digest, digest)
	}
	return o
}
