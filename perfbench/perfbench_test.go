package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/elisa-go/elisa/internal/fleet"
	"github.com/elisa-go/elisa/internal/hv"
	"github.com/elisa-go/elisa/internal/kvs"
	"github.com/elisa-go/elisa/internal/overload"
	"github.com/elisa-go/elisa/internal/simtime"
	"github.com/elisa-go/elisa/internal/workload"
)

// Small scales keep each test round well under a second.
var (
	testKV     = kvSize{keys: 128, chunks: 2, chunkOps: 100}
	testChurn  = churnScale{lifecycles: 150}
	testReplay = replayScale{horizon: 200 * simtime.Microsecond, chunks: 2}
)

// TestMain lets the test binary serve as a round child when run()
// starts one (see measure).
func TestMain(m *testing.M) {
	if os.Getenv(roundEnv) != "" {
		os.Exit(roundMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func put(b *bytes.Buffer, vs ...int64) {
	for _, v := range vs {
		_ = binary.Write(b, binary.LittleEndian, v)
	}
}

// inputBytes serialises everything a workload generated from its seed.
func inputBytes(t *testing.T, s scenario) []byte {
	t.Helper()
	var b bytes.Buffer
	switch in := s.(type) {
	case *kvMix:
		for i, k := range in.keys {
			b.Write(k)
			b.Write(in.preload[i])
		}
		for i, st := range in.streams {
			for _, x := range st {
				put(&b, int64(x))
			}
			m, err := workload.NewMix(in.mixSeeds[i], kvReadRatio)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 64; j++ {
				fmt.Fprint(&b, m.Read())
			}
		}
		for _, vals := range in.putVals {
			for _, v := range vals {
				b.Write(v)
			}
		}
	case *churn:
		for i := range in.objNames {
			fmt.Fprint(&b, in.objNames[i], in.objPages[i], in.objSigs[i])
		}
		for _, p := range in.payloads {
			b.Write(p)
		}
		for i, lc := range in.cycles {
			fmt.Fprint(&b, in.names[i], lc.objs, lc.calls)
		}
	case *replay:
		objs := make([]string, 0, len(in.pins))
		for o := range in.pins {
			objs = append(objs, o)
		}
		sort.Strings(objs)
		for _, o := range objs {
			fmt.Fprint(&b, o, in.pins[o])
		}
		fmt.Fprintf(&b, "%+v", in.specs)
		tr, err := workload.Generate(in.specs, in.seed, in.size.horizon)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.WriteTrace(&b, tr); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no serialiser for %T", s)
	}
	return b.Bytes()
}

func testScenarios(seed int64) map[string]func() (scenario, error) {
	return map[string]func() (scenario, error){
		"kv_mix":          func() (scenario, error) { return newKVMix(seed, testKV) },
		"tenant_churn":    func() (scenario, error) { return newChurn(seed, testChurn) },
		"fleet_replay":    func() (scenario, error) { return newReplay(seed, testReplay, 2, false) },
		"fleet_rebalance": func() (scenario, error) { return newReplay(seed, testReplay, 2, true) },
	}
}

func TestInputsByteIdenticalPerSeed(t *testing.T) {
	for name, mk := range testScenarios(7) {
		a, err := mk()
		if err != nil {
			t.Fatal(name, err)
		}
		b, err := mk()
		if err != nil {
			t.Fatal(name, err)
		}
		if !bytes.Equal(inputBytes(t, a), inputBytes(t, b)) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		other, err := testScenarios(8)[name]()
		if err != nil {
			t.Fatal(name, err)
		}
		if bytes.Equal(inputBytes(t, a), inputBytes(t, other)) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
}

// runRound builds and runs one round, failing the test on any failed
// check.
func runRound(t *testing.T, s scenario) (round, *outcome) {
	t.Helper()
	rd, err := s.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	o := rd.run(nil, nil)
	rd.verify(o)
	return rd, o
}

func TestRoundsAreCleanAndRepeat(t *testing.T) {
	for _, name := range []string{"kv_mix", "tenant_churn", "fleet_replay"} {
		s, err := testScenarios(3)[name]()
		if err != nil {
			t.Fatal(err)
		}
		_, a := runRound(t, s)
		_, b := runRound(t, s)
		if a.failed != 0 || b.failed != 0 {
			t.Fatalf("%s: failures %v %v", name, a.problems, b.problems)
		}
		if a.ops == 0 || a.ops != b.ops || a.digest != b.digest || a.p99 != b.p99 || a.goodputMops != b.goodputMops {
			t.Errorf("%s: rounds differ: ops %d/%d digest %x/%x p99 %v/%v", name, a.ops, b.ops, a.digest, b.digest, a.p99, b.p99)
		}
	}
}

func TestFleetReplayMatchesAcrossLaneWidths(t *testing.T) {
	wide, err := newReplay(5, testReplay, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	_, o := runRound(t, wide)
	if o.failed != 0 {
		t.Fatal(o.problems)
	}
	if x := wide.crossCheck(o.digest); x.failed != 0 {
		t.Fatal(x.problems)
	}
}

// TestFleetRebalanceMovesBackFails pins the program defect that keeps
// fleet_rebalance out of BENCHMARK.json: once the rebalancer sends a
// tenant back to a shard it has left, Cluster.MoveObject refuses
// because the source copy of the object was never removed. When this
// test starts failing, the defect is fixed and fleet_rebalance can join
// the benchmark.
func TestFleetRebalanceMovesBackFails(t *testing.T) {
	s, err := newReplay(1, replaySize, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	_, o := runRound(t, s)
	if o.failed == 0 || !strings.Contains(strings.Join(o.problems, " "), "already exists") {
		t.Fatalf("fleet_rebalance seed 1 ran clean (failed=%d, %v): the MoveObject defect looks fixed", o.failed, o.problems)
	}
}

func TestKVFixtureMatchesBuildCluster(t *testing.T) {
	in, err := newKVMix(11, testKV)
	if err != nil {
		t.Fatal(err)
	}
	built, err := kvs.BuildCluster("elisa", kvVMs, kvs.DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Preload(in.keys, in.preload[0]); err != nil {
		t.Fatal(err)
	}
	rd, err := in.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The probes write their own per-key values, the same size as the
	// value BuildCluster's clients write, so the costs must still agree.
	for _, p := range rd.(*kvRound).probes {
		p.vals = in.putVals[0]
	}
	ours := rd.(*kvRound).cluster
	run := func(c *kvs.Cluster) *kvs.Result {
		choosers := make([]workload.KeyChooser, kvVMs)
		mixes := make([]*workload.Mix, kvVMs)
		for i := range choosers {
			choosers[i] = &kvStream{idx: in.streams[i]}
			if mixes[i], err = workload.NewMix(in.mixSeeds[i], kvReadRatio); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.RunMixed(in.size.chunkOps, in.keys, choosers, mixes, in.putArg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(built), run(ours)
	if a.Ops != b.Ops || a.Latency.Sum() != b.Latency.Sum() || a.AggMops != b.AggMops {
		t.Fatalf("BuildCluster: %d ops %d ns %.6f Mops; benchmark fixture: %d ops %d ns %.6f Mops",
			a.Ops, a.Latency.Sum(), a.AggMops, b.Ops, b.Latency.Sum(), b.AggMops)
	}
}

func TestKVCheckFiresOnCorruptedValue(t *testing.T) {
	in, err := newKVMix(2, testKV)
	if err != nil {
		t.Fatal(err)
	}
	rd, o := runRound(t, in)
	if o.failed != 0 {
		t.Fatal(o.problems)
	}
	// A write the workload did not make: the read-back must catch it.
	kr := rd.(*kvRound)
	if _, err := kr.probes[0].c.Put(in.keys[5], kvValue(999999)); err != nil {
		t.Fatal(err)
	}
	o2 := &outcome{}
	kr.verify(o2)
	if o2.failed != 1 || !strings.Contains(o2.problems[0], "reads back wrong") {
		t.Fatalf("corrupted key not reported: failed=%d %v", o2.failed, o2.problems)
	}
}

func TestKVCheckFiresOnWrongKey(t *testing.T) {
	in, err := newKVMix(2, testKV)
	if err != nil {
		t.Fatal(err)
	}
	rd, o := runRound(t, in)
	if o.failed != 0 {
		t.Fatal(o.problems)
	}
	// Key 5 takes the value key 6 must hold: another key's value, of the
	// same chunk if both were last written in one, must not read back as
	// key 5's.
	kr := rd.(*kvRound)
	if _, err := kr.probes[0].c.Put(in.keys[5], kr.expect[6]); err != nil {
		t.Fatal(err)
	}
	o2 := &outcome{}
	kr.verify(o2)
	if o2.failed != 1 || !strings.Contains(o2.problems[0], "reads back wrong") {
		t.Fatalf("wrong-key value not reported: failed=%d %v", o2.failed, o2.problems)
	}
}

func TestChurnCheckFiresOnLeakedFrames(t *testing.T) {
	in, err := newChurn(2, churnScale{lifecycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := in.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	rd := r.(*churnRound)
	// DestroyVM without CleanupGuest: the guest's ELISA frames leak.
	rd.cleanup = func(*hv.VM) error { return nil }
	o := rd.run(nil, nil)
	if o.failed == 0 || !strings.Contains(o.problems[0], "free frames") {
		t.Fatalf("leak not reported: failed=%d %v", o.failed, o.problems)
	}
}

func TestAccountingCheckFiresOnImbalance(t *testing.T) {
	balanced := func() []tenantBook {
		return []tenantBook{{
			fed: 10,
			rep: fleet.TenantReport{Name: "web-0", Submitted: 10, Completed: 4, Throttled: 3, Dropped: 1, Busied: 1},
			dec: map[overload.Verdict]uint64{
				overload.VerdictAdmit: 6, overload.VerdictThrottle: 3,
				overload.VerdictDrop: 1, overload.VerdictBusy: 1,
			},
		}}
	}
	if bad := checkAccounting(balanced(), 32); len(bad) != 0 {
		t.Fatalf("balanced books reported: %v", bad)
	}
	for name, breakIt := range map[string]func(*tenantBook){
		"lost submission":  func(b *tenantBook) { b.rep.Submitted-- },
		"phantom drop":     func(b *tenantBook) { b.rep.Dropped++ },
		"double complete":  func(b *tenantBook) { b.rep.Completed += 2 },
		"unrecorded shed":  func(b *tenantBook) { b.rep.Shed++; b.rep.Submitted++; b.fed++ },
		"queue over depth": func(b *tenantBook) { b.dec[overload.VerdictAdmit] += 40 },
	} {
		books := balanced()
		breakIt(&books[0])
		if bad := checkAccounting(books, 32); len(bad) == 0 {
			t.Errorf("%s: not reported", name)
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/elisa-go/elisa/internal/ept.(*TLB).Lookup":                       "ept",
		"github.com/elisa-go/elisa/internal/des.(*Queue[go.shape.struct{}]).Enqueue": "des",
		"runtime.mallocgc": "goruntime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "goruntime",
		"main.(*kvProbe).Get":                                  "bench",
		"container/heap.down":                                  "",
		"sort.insertionSortCmpFunc[go.shape.int]":              "",
		"github.com/elisa-go/elisa.(*System).NewFleet":         "other",
		"github.com/elisa-go/elisa/internal/cluster.New.func1": "cluster",
	} {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x += spin(1000)
	}
	pprof.StopCPUProfile()
	self, err := profileSelfTime(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range self {
		total += n
	}
	if total == 0 || self["bench"]*2 < total {
		t.Fatalf("busy loop in package main got %d of %d samples (%v, x=%d)", self["bench"], total, self, x)
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i
	}
	return s
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the emitted
// metrics to the same names and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs)
	same("per_layer", spec.PerLayer, perLayerDefs())
}

func TestCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole measured rounds")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "tenant_churn", "--seed", "4", "--seconds", "1", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]metricValue
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		want := endToEndDefs
		if trace == "1" {
			want = perLayerDefs()
		}
		if res.Correct == nil || !*res.Correct || *res.Attempted < 1 || *res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: result %s", trace, lines[len(lines)-1])
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or wrong unit (%+v)", trace, d.name, m)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
