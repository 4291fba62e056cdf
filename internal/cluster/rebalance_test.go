package cluster

import (
	"testing"

	"github.com/elisa-go/elisa/internal/core"
	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/mem"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// skewedCluster boots a cluster with every rebalance-scenario object
// pinned on shard 0 — balanced demand over maximally skewed placement —
// and admits the four committed tenants to a fleet. rebalance arms the
// auto-rebalancer; ring selects the exit-less ring datapath.
func skewedCluster(t *testing.T, shards int, rebalance *RebalanceConfig, ring bool, dec *overload.DecisionTrace, global map[string]float64) (*Cluster, *Fleet) {
	t.Helper()
	c, err := New(Config{Shards: shards, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterFunc(workload.RebalanceFn, func(*core.CallContext) (uint64, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	specs, err := workload.RebalanceSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, obj := range sp.Objects {
			if err := c.Ring().Pin(obj, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := c.CreateObject(obj, mem.PageSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	fc := FleetConfig{
		Config:         fleet.Config{Cores: 2, Seed: 42, QueueDepth: 32, Decisions: dec},
		Rebalance:      rebalance,
		GlobalAdmitOPS: global,
	}
	if ring {
		fc.RingDepth = 16
	}
	f, err := c.NewFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		ts, err := fleet.SpecFromWorkload(sp, fc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if shard, err := f.Admit(ts); err != nil {
			t.Fatal(err)
		} else if shard != 0 {
			t.Fatalf("tenant %q placed on shard %d, want the pinned shard 0", ts.Name, shard)
		}
	}
	return c, f
}

// TestRebalanceConvergesOnSkewedTrace is the tentpole acceptance: the
// committed skewed trace, replayed with the rebalancer armed, must drive
// the cluster from imbalance 4.0 down to <= 1.25, with no tenant moving
// more than twice, no oscillation, and not one descriptor stranded or
// administratively failed (the fleet path drains before every detach).
func TestRebalanceConvergesOnSkewedTrace(t *testing.T) {
	dec := overload.NewDecisionTrace(0)
	c, f := skewedCluster(t, 4, &RebalanceConfig{}, true, dec, nil)
	if imb := c.Stats().Imbalance; imb < 2.0 {
		t.Fatalf("initial imbalance %.2f, want the skewed >= 2.0", imb)
	}
	tr, err := workload.RebalanceTrace()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Replay(tr, workload.RebalanceHorizon)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Imbalance > 1.25 {
		t.Errorf("final imbalance %.3f, want <= 1.25", st.Imbalance)
	}
	if st.Rebalances == 0 {
		t.Error("rebalancer armed on a 4x-skewed cluster executed no migrations")
	}
	reb := f.Rebalancer()
	if reb == nil {
		t.Fatal("armed fleet returned a nil Rebalancer")
	}
	for name, n := range reb.TenantMoves() {
		if n > 2 {
			t.Errorf("tenant %q moved %d times — oscillation (want <= 2)", name, n)
		}
	}
	if s := reb.Stats(); s.Moves != st.Rebalances {
		t.Errorf("rebalancer counted %d moves, cluster counted %d", s.Moves, st.Rebalances)
	}
	// Every tenant survived the migrations whole: nothing crashed, lost,
	// failed, or bounced. A stranded or administratively-failed ring
	// descriptor would surface as Lost or FnErrors.
	var completed uint64
	for _, tr := range rep.Tenants {
		if tr.Crashed || tr.Lost != 0 || tr.FnErrors != 0 || tr.Busied != 0 {
			t.Errorf("tenant %q: crashed=%v lost=%d fnErrors=%d busied=%d", tr.Name, tr.Crashed, tr.Lost, tr.FnErrors, tr.Busied)
		}
		if tr.Completed == 0 {
			t.Errorf("tenant %q completed nothing", tr.Name)
		}
		completed += tr.Completed
	}
	if completed == 0 {
		t.Fatal("no work completed")
	}
	// The migrations land in the decision trace as rebalance verdicts.
	moves := uint64(0)
	for _, cnt := range dec.Counts() {
		if cnt.Key.Verdict == overload.VerdictRebalance {
			moves += cnt.Count
		}
	}
	if moves != st.Rebalances {
		t.Errorf("decision trace recorded %d rebalance verdicts, cluster executed %d", moves, st.Rebalances)
	}
}

// TestRebalanceDeterministicAcrossRuns pins same-seed determinism at 1,
// 4, and 16 shards: two armed replays of the committed trace must render
// byte-identical reports and identical decision lists.
func TestRebalanceDeterministicAcrossRuns(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		run := func() (string, []RebalanceDecision, Stats) {
			_, f := skewedCluster(t, shards, &RebalanceConfig{}, true, nil, nil)
			tr, err := workload.RebalanceTrace()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := f.Replay(tr, workload.RebalanceHorizon)
			if err != nil {
				t.Fatal(err)
			}
			return rep.Table().String(), f.Rebalancer().Decisions(), f.c.Stats()
		}
		tab1, dec1, st1 := run()
		tab2, dec2, st2 := run()
		if tab1 != tab2 {
			t.Errorf("%d shards: same-seed reports differ:\n%s\nvs\n%s", shards, tab1, tab2)
		}
		if len(dec1) != len(dec2) {
			t.Fatalf("%d shards: decision counts differ: %d vs %d", shards, len(dec1), len(dec2))
		}
		for i := range dec1 {
			if dec1[i] != dec2[i] {
				t.Errorf("%d shards: decision %d differs: %+v vs %+v", shards, i, dec1[i], dec2[i])
			}
		}
		if st1.Rebalances != st2.Rebalances || st1.Imbalance != st2.Imbalance {
			t.Errorf("%d shards: stats differ: %+v vs %+v", shards, st1, st2)
		}
		if shards == 1 && st1.Rebalances != 0 {
			t.Errorf("1 shard: rebalancer has nowhere to move, executed %d migrations", st1.Rebalances)
		}
	}
}

// TestRebalanceUnarmedIdentical pins the no-rebalancer bit-identity: the
// per-window replay bucketing must render exactly what the static
// pre-bucketing rendered, and an armed fleet whose trigger is never
// reached must match the unarmed fleet byte for byte.
func TestRebalanceUnarmedIdentical(t *testing.T) {
	run := func(rb *RebalanceConfig) string {
		_, f := skewedCluster(t, 4, rb, true, nil, nil)
		tr, err := workload.RebalanceTrace()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.Replay(tr, workload.RebalanceHorizon)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Table().String()
	}
	unarmed := run(nil)
	// Trigger 1000x: armed, but the controller can never fire — placement
	// stays static, so every window must replay identically.
	held := run(&RebalanceConfig{Trigger: 1000})
	if unarmed != held {
		t.Errorf("armed-but-idle fleet diverged from unarmed fleet:\n%s\nvs\n%s", held, unarmed)
	}
}

// TestEvictAdoptCarriesState migrates one tenant by hand between runs
// and checks the merged report reads one continuous tenant: counters
// carried, stub zeroed, placement updated.
func TestEvictAdoptCarriesState(t *testing.T) {
	c, f := skewedCluster(t, 4, nil, false, nil, nil)
	if _, err := f.Run(100 * 1000); err != nil {
		t.Fatal(err)
	}
	before := f.Snapshot()
	var moved fleet.TenantReport
	for _, tr := range before.Tenants {
		if tr.Name == "rb-b" {
			moved = tr
		}
	}
	if moved.Submitted == 0 || moved.Completed == 0 {
		t.Fatalf("tenant rb-b idle before migration: %+v", moved)
	}
	if err := f.migrateTenant("rb-b", 2); err != nil {
		t.Fatal(err)
	}
	if got := f.admissions[f.tenantIdx["rb-b"]].shard; got != 2 {
		t.Fatalf("rb-b on shard %d after migration, want 2", got)
	}
	if got := c.Owner("rb-obj-b"); got != 2 {
		t.Fatalf("rb-obj-b owned by shard %d after migration, want 2", got)
	}
	after := f.Snapshot()
	var adopted fleet.TenantReport
	for _, tr := range after.Tenants {
		if tr.Name == "rb-b" {
			adopted = tr
		}
	}
	if adopted.Submitted != moved.Submitted || adopted.Completed != moved.Completed {
		t.Errorf("carried counters drifted: before %+v, after %+v", moved, adopted)
	}
	// The source scheduler's stub reports zeros under the same name.
	for _, tr := range f.Scheduler(0).Snapshot().Tenants {
		if tr.Name == "rb-b" && (tr.Submitted != 0 || tr.Completed != 0) {
			t.Errorf("source stub still reports work: %+v", tr)
		}
	}
	// The tenant keeps running on its new shard.
	if _, err := f.Run(100 * 1000); err != nil {
		t.Fatal(err)
	}
	final := f.Snapshot()
	for _, tr := range final.Tenants {
		if tr.Name == "rb-b" && tr.Completed <= adopted.Completed {
			t.Errorf("migrated tenant stopped completing: %d -> %d", adopted.Completed, tr.Completed)
		}
	}
}

// TestRebalanceGlobalAdmissionCap layers the cluster-wide token buckets
// over the skewed scenario: every tenant is capped at half its demand
// rate, so the aggregate admitted volume must respect burst + rate x
// horizon no matter where the rebalancer places anyone — and a migrated
// tenant must keep being refused on its new shard (the bucket follows
// the tenant, not the placement).
func TestRebalanceGlobalAdmissionCap(t *testing.T) {
	const capOPS = 800_000.0 // half of the specs' 1.6M demand
	global := map[string]float64{"rb-a": capOPS, "rb-b": capOPS, "rb-c": capOPS, "rb-d": capOPS}
	dec := overload.NewDecisionTrace(0)
	c, f := skewedCluster(t, 4, &RebalanceConfig{}, true, dec, global)
	tr, err := workload.RebalanceTrace()
	if err != nil {
		t.Fatal(err)
	}
	// Split the committed trace in half so the bucket's post-migration
	// behaviour is observable: phase 1 triggers the migrations, phase 2
	// replays onto the rebalanced placement.
	half := workload.RebalanceHorizon / 2
	var phase1, phase2 []workload.Event
	for _, ev := range tr.Events {
		if simtime.Duration(ev.At) < half {
			phase1 = append(phase1, ev)
		} else {
			ev.At -= simtime.Time(half)
			phase2 = append(phase2, ev)
		}
	}
	rep1, err := f.Replay(&workload.Trace{Events: phase1}, half)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Rebalances == 0 {
		t.Fatal("phase 1 executed no migrations; the follows-the-tenant check needs at least one")
	}
	throttledAt := map[string]uint64{}
	for _, trp := range rep1.Tenants {
		throttledAt[trp.Name] = trp.Throttled
	}
	rep2, err := f.Replay(&workload.Trace{Events: phase2}, half)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate cap: admitted (submitted minus globally refused) within
	// burst + rate x horizon, regardless of the migrations in between.
	budget := uint64(16 + capOPS*float64(workload.RebalanceHorizon)/1e9)
	for _, trp := range rep2.Tenants {
		if trp.Throttled == 0 {
			t.Errorf("tenant %q capped at half demand was never throttled", trp.Name)
		}
		if admitted := trp.Submitted - trp.Throttled; admitted > budget {
			t.Errorf("tenant %q admitted %d ops, global budget %d", trp.Name, admitted, budget)
		}
		if trp.Completed == 0 {
			t.Errorf("tenant %q completed nothing under the cap", trp.Name)
		}
	}
	// Every migrated tenant kept being refused after its move: the global
	// bucket is keyed by tenant, not by shard.
	moved := f.Rebalancer().TenantMoves()
	if len(moved) == 0 {
		t.Fatal("rebalancer reports no tenant moves")
	}
	for _, trp := range rep2.Tenants {
		if moved[trp.Name] == 0 {
			continue
		}
		if trp.Throttled <= throttledAt[trp.Name] {
			t.Errorf("migrated tenant %q stopped being globally throttled after its move (%d -> %d)",
				trp.Name, throttledAt[trp.Name], trp.Throttled)
		}
	}
	// The refusals are the global rung's, by name.
	gb := uint64(0)
	for _, d := range dec.Events() {
		if d.Verdict == overload.VerdictThrottle {
			if d.Note != "global-bucket" {
				t.Fatalf("throttle with note %q; the scenario has no per-shard buckets", d.Note)
			}
			gb++
		}
	}
	var totThrottled uint64
	for _, trp := range rep2.Tenants {
		totThrottled += trp.Throttled
	}
	if gb != totThrottled {
		t.Errorf("decision trace logged %d global-bucket throttles, reports count %d", gb, totThrottled)
	}
}
