// Command perfbench is the simulator's end-to-end benchmark: it builds
// whole ELISA scenarios through the public functions of the layers
// under internal/, runs them for a fixed host-time budget, checks every
// simulated output, and prints host-speed and simulated-outcome metrics.
// With --trace 1 it instead reports per-layer metrics: span times
// around every call into a layer, counts from the layers' stats
// readers, host self time per layer from a CPU profile, and the
// tracing overhead. README.md maps each metric to its layer and
// workload.
//
//	perfbench --workload kv_mix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scenario turns a seed into inputs once per process (its constructor)
// and builds independent rounds over those inputs.
type scenario interface {
	// setup builds one round's fixture: machines, objects, preload,
	// attaches and, where the workload has one, its trace.
	setup(tr *tracer) (round, error)
}

// round is one fixture plus the fixed simulated work it runs. Every
// round of a process runs the same inputs, so every round must produce
// the same simulated outputs.
type round interface {
	// run executes the work, timing it in chunks on m, and collects
	// the simulated outputs.
	run(tr *tracer, m *meter) *outcome
	// verify runs the untimed output checks.
	verify(o *outcome)
}

// outcome is what one round produced.
type outcome struct {
	ops       int64 // simulated operations completed
	attempted int64 // operations offered
	failed    int64 // errors and failed output checks
	problems  []string

	goodputMops float64 // completed ops per simulated second, millions
	p50, p99    float64 // simulated per-op latency, ns
	samples     int64   // latency sample count
	digest      uint64  // fingerprint of the simulated outputs

	layers map[string]float64 // counts read from the layers' stats readers
}

// fail counts n failed operations and keeps the first few reasons.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []struct {
	name string
	make func(seed int64) (scenario, error)
}{
	{"kv_mix", func(seed int64) (scenario, error) { return newKVMix(seed, kvMixSize) }},
	{"tenant_churn", func(seed int64) (scenario, error) { return newChurn(seed, churnSize) }},
	{"fleet_replay", func(seed int64) (scenario, error) { return newReplay(seed, replaySize, laneWidth(), false) }},
	{"fleet_rebalance", func(seed int64) (scenario, error) { return newReplay(seed, replaySize, laneWidth(), true) }},
}

// laneWidth is fleet_replay's lane parallelism: min(4, GOMAXPROCS).
func laneWidth() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// roundEnv, when set in the environment, makes the process a round
// child: it runs one round and prints its roundRecord (see measure).
const roundEnv = "PERFBENCH_ROUND"

func main() {
	if os.Getenv(roundEnv) != "" {
		os.Exit(roundMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Round-count limits: at least minRounds rounds run whatever the time
// budget, so setup_s and the host figures are medians of several
// samples; maxRounds bounds a run on a fast host.
const (
	minRounds = 4
	maxRounds = 200
)

// roundTimeout bounds one round's process; a hung round is killed.
const roundTimeout = 60 * time.Second

// profileHz is the CPU-profile sampling rate of traced rounds.
const profileHz = 500

// options are the parsed command line, shared by the parent and its
// round children.
type options struct {
	name    string
	mk      func(int64) (scenario, error)
	seed    int64
	seconds int
	trace   bool
	out     string
}

func parseOptions(args []string, stderr io.Writer) (*options, bool) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv_mix, tenant_churn, fleet_replay or fleet_rebalance")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	out := fs.String("out", "", "directory for the span log and CPU profile of a traced run")
	if err := fs.Parse(args); err != nil {
		return nil, false
	}
	opt := &options{name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	for _, w := range workloads {
		if w.name == *name {
			opt.mk = w.make
		}
	}
	if opt.mk == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload kv_mix|tenant_churn|fleet_replay|fleet_rebalance, --seconds >= 1, --trace 0|1\n")
		return nil, false
	}
	return opt, true
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, ok := parseOptions(args, stderr)
	if !ok {
		return 2
	}
	w, err := opt.mk(opt.seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s inputs: %v\n", opt.name, err)
		return 1
	}
	res, err := measure(opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.name, err)
		return 1
	}
	if cw, ok := w.(crossChecker); ok && !res.failedHard {
		o := cw.crossCheck(res.ref.Digest)
		res.failed += o.failed
		res.problems = append(res.problems, o.problems...)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: FAILED: %s\n", opt.name, opt.seed, p)
	}

	var metrics map[string]metricValue
	if opt.trace {
		metrics = res.layerMetrics()
	} else {
		metrics = res.endToEnd()
	}
	printReport(stdout, opt.name, opt.seed, res, metrics)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// crossChecker is a workload with an extra determinism check run once
// after the measured rounds, against the first round's output digest.
type crossChecker interface {
	crossCheck(digest uint64) *outcome
}

// roundRecord is what a round child reports: its outcome, its host
// figures, and in a traced round the layer self time and span
// durations.
type roundRecord struct {
	Ops, Attempted, Failed int64
	Problems               []string
	GoodputMops, P50, P99  float64
	Samples                int64
	Digest                 uint64
	Layers                 map[string]float64

	SetupS, SetupRaw float64   // set-up seconds, normalized and measured
	Rates, RatesRaw  []float64 // ops per host second per sample, normalized and measured
	CalRates         []float64 // calibration rate per sample
	AllocsPerOp      float64
	PeakRSSMB        float64

	Self  map[string]int64   // profile samples per layer
	Spans map[string][]int64 // span durations, ns
}

// results accumulates a whole run.
type results struct {
	rounds     int
	attempted  int64
	failed     int64
	problems   []string
	failedHard bool // a round could not run at all

	ref *roundRecord // the first round; every later round must match it

	// Host figures of untraced rounds, normalized to the reference host
	// (see calibrate.go), with the measured values and calibration rates
	// beside them for the summary.
	setupS, setupRaw    []float64 // per round
	opsPerHostS, opsRaw []float64 // per sample
	calRates            []float64 // per sample
	allocsPerOp         []float64 // per round
	peakRSSMB           []float64 // per round
	tracedOpsPerSec     []float64 // per sample of traced rounds, normalized

	self  map[string]int64   // profile samples per layer, all traced rounds
	spans map[string][]int64 // span durations, all traced rounds
	last  map[string]float64 // layer counts of the last traced round
}

// measure runs rounds until the time budget is spent (and at least
// minRounds ran). Each round runs in a process of its own, started
// from this executable, so every set-up and every peak RSS figure
// comes from a fresh heap, as in a single run of the scenario; a round
// that reused a heap would get back memory freed by the previous
// fixture, which the Go runtime zeroes again, touching every page. In a
// traced run, rounds alternate untraced and traced, so the two rates
// come from the same host conditions.
func measure(opt *options, stderr io.Writer) (*results, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &results{self: make(map[string]int64), spans: make(map[string][]int64)}
	budget := time.Duration(opt.seconds) * time.Second
	begin := time.Now()
	for r := 0; r < maxRounds && (r < minRounds || time.Since(begin) < budget); r++ {
		traced := opt.trace && r%2 == 1
		rec, err := runChild(exe, opt, traced, stderr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		res.rounds++
		res.attempted += rec.Attempted
		res.failed += rec.Failed
		res.problems = append(res.problems, rec.Problems...)
		if rec.Ops == 0 {
			res.failedHard = true
			break
		}
		if res.ref == nil {
			res.ref = rec
		} else if rec.Digest != res.ref.Digest {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("round %d simulated outputs differ from round 0 (digest %x vs %x)", r, rec.Digest, res.ref.Digest))
		}
		if traced {
			res.last = rec.Layers
			res.tracedOpsPerSec = append(res.tracedOpsPerSec, rec.Rates...)
			for k, v := range rec.Self {
				res.self[k] += v
			}
			for k, v := range rec.Spans {
				res.spans[k] = append(res.spans[k], v...)
			}
			continue
		}
		res.setupS = append(res.setupS, rec.SetupS)
		res.setupRaw = append(res.setupRaw, rec.SetupRaw)
		res.opsPerHostS = append(res.opsPerHostS, rec.Rates...)
		res.opsRaw = append(res.opsRaw, rec.RatesRaw...)
		res.calRates = append(res.calRates, rec.CalRates...)
		res.allocsPerOp = append(res.allocsPerOp, rec.AllocsPerOp)
		res.peakRSSMB = append(res.peakRSSMB, rec.PeakRSSMB)
	}
	return res, nil
}

// runChild runs one round in a child process and decodes its record.
// The child's standard error passes through.
func runChild(exe string, opt *options, traced bool, stderr io.Writer) (*roundRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", opt.name, "--seed", strconv.FormatInt(opt.seed, 10),
		"--trace", trace, "--out", opt.out)
	cmd.Env = append(os.Environ(), roundEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	rec := &roundRecord{}
	if err := json.Unmarshal(out.Bytes(), rec); err != nil {
		return nil, fmt.Errorf("round record: %w", err)
	}
	return rec, nil
}

// roundMain is a round child's main: build the inputs, run one round
// (traced with --trace 1), and print its roundRecord as JSON.
func roundMain(args []string, stdout, stderr io.Writer) int {
	opt, ok := parseOptions(args, stderr)
	if !ok {
		return 2
	}
	w, err := opt.mk(opt.seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s inputs: %v\n", opt.name, err)
		return 1
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	rec, prof, err := measureRound(w, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s round: %v\n", opt.name, err)
		return 1
	}
	if tr != nil && opt.out != "" {
		if err := writeTrace(opt.out, fmt.Sprintf("%s-seed%d", opt.name, opt.seed), tr, prof); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
		}
	}
	if err := json.NewEncoder(stdout).Encode(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// measureRound builds one fixture, runs it, checks it, and records the
// host figures; with a tracer it also takes a CPU profile, returned
// beside the record.
func measureRound(w scenario, tr *tracer) (*roundRecord, []byte, error) {
	var prof bytes.Buffer
	if tr != nil {
		// A finer sampling rate than pprof's default 100 Hz; set first,
		// StartCPUProfile then keeps it (and notes so on stderr).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
	}
	calBefore := calibrate()
	t0 := time.Now()
	rd, err := w.setup(tr)
	setup := time.Since(t0)
	if err != nil {
		if tr != nil {
			pprof.StopCPUProfile()
		}
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	m := newMeter()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	o := rd.run(tr, m)
	runtime.ReadMemStats(&m1)
	m.finish()
	calAfter := calBefore // no timed sample: the run failed at once
	if len(m.calRate) > 0 {
		calAfter = m.calRate[0]
	}
	rec := &roundRecord{
		SetupS:   setup.Seconds() * (calBefore + calAfter) / 2 / calRefHz,
		SetupRaw: setup.Seconds(),
		Rates:    m.norm, RatesRaw: m.raw, CalRates: m.calRate,
	}
	if tr != nil {
		pprof.StopCPUProfile()
		if rec.Self, err = profileSelfTime(prof.Bytes()); err != nil {
			return nil, nil, err
		}
		rec.Spans = tr.durations()
	}
	rd.verify(o)
	if o.ops > 0 {
		rec.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(o.ops)
	}
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, nil, err
	}
	rec.Ops, rec.Attempted, rec.Failed, rec.Problems = o.ops, o.attempted, o.failed, o.problems
	rec.GoodputMops, rec.P50, rec.P99, rec.Samples = o.goodputMops, o.p50, o.p99, o.samples
	rec.Digest, rec.Layers = o.digest, o.layers
	return rec, prof.Bytes(), nil
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run, in report order.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"sim_ops_per_host_s", "1/s"},
	{"host_allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"sim_goodput_mops", "Mops/s"},
	{"sim_p99_ns", "ns"},
}

func (res *results) endToEnd() map[string]metricValue {
	v := map[string]float64{
		"setup_s":            median(res.setupS),
		"sim_ops_per_host_s": median(res.opsPerHostS),
		"host_allocs_per_op": median(res.allocsPerOp),
		"peak_rss_mb":        median(res.peakRSSMB),
	}
	if o := res.ref; o != nil {
		v["sim_goodput_mops"] = o.GoodputMops
		v["sim_p99_ns"] = o.P99
	}
	return collect(endToEndDefs, v)
}

// Per-layer metric groups. spanDefs are median host seconds per call of
// the named span; selfLayers get "<layer>.self_frac" from the profile;
// counterDefs come from the layers' stats readers over one round.
var (
	spanDefs = []string{
		"hv.new", "cluster.new", "hv.create_vm", "hv.destroy_vm",
		"core.attach", "core.detach", "core.cleanup", "core.call",
		"kvs.run", "cluster.replay", "workload.generate",
	}
	selfLayers = []string{
		"mem", "ept", "cpu", "hv", "shm", "core", "kvs", "des", "fleet",
		"overload", "cluster", "workload", "goruntime", "bench", "other",
	}
	counterDefs = []metricDef{
		{"ept.tlb_hit_ratio", "ratio"},
		{"mem.frames_in_use_peak", "count"},
		{"cpu.vmfuncs_per_op", "1/op"},
		{"cpu.exits_per_op", "1/op"},
		{"cpu.hypercalls_per_op", "1/op"},
		{"core.ring_descs_per_drain", "count"},
		{"core.slot_faults", "count"},
		{"fleet.refused_frac", "fraction"},
		{"fleet.max_queue", "count"},
		{"overload.decisions.admit", "count"},
		{"overload.decisions.throttle", "count"},
		{"overload.decisions.quarantine", "count"},
		{"overload.decisions.shed", "count"},
		{"overload.decisions.drop", "count"},
		{"overload.decisions.busy", "count"},
		{"overload.decisions.rebalance", "count"},
		{"cluster.lane_parallel_frac", "fraction"},
		{"cluster.forced_serial_windows", "count"},
		{"cluster.rebalances", "count"},
		{"cluster.imbalance", "ratio"},
	}
	traceDefs = []metricDef{
		{"trace.untraced_ops_per_host_s", "1/s"},
		{"trace.traced_ops_per_host_s", "1/s"},
		{"trace.overhead_ops_per_host_s", "1/s"},
		{"trace.overhead_frac", "fraction"},
	}
)

// perLayerDefs lists every per-layer metric in report order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, s := range spanDefs {
		defs = append(defs, metricDef{s + "_s", "s"})
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_frac", "fraction"})
	}
	defs = append(defs, counterDefs...)
	return append(defs, traceDefs...)
}

func (res *results) layerMetrics() map[string]metricValue {
	v := make(map[string]float64)
	for _, s := range spanDefs {
		v[s+"_s"] = medianNS(res.spans[s]) / 1e9
	}
	var total int64
	for _, n := range res.self {
		total += n
	}
	for _, l := range selfLayers {
		if total > 0 {
			v[l+".self_frac"] = float64(res.self[l]) / float64(total)
		}
	}
	for _, d := range counterDefs {
		v[d.name] = res.last[d.name]
	}
	untraced := median(res.opsPerHostS)
	traced := median(res.tracedOpsPerSec)
	v["trace.untraced_ops_per_host_s"] = untraced
	v["trace.traced_ops_per_host_s"] = traced
	v["trace.overhead_ops_per_host_s"] = traced - untraced
	if untraced > 0 {
		v["trace.overhead_frac"] = (untraced - traced) / untraced
	}
	return collect(perLayerDefs(), v)
}

// collect builds the metric map for defs; absent or non-finite values
// read 0 (JSON has no NaN).
func collect(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x := v[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	return out
}

// writeTrace saves a traced round's span log and CPU profile.
func writeTrace(dir, stem string, tr *tracer, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(dir, stem+".spans.json")); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), profile, 0o644)
}

// printReport writes the human-readable summary that precedes the JSON
// line.
func printReport(w io.Writer, name string, seed int64, res *results, metrics map[string]metricValue) {
	fmt.Fprintf(w, "perfbench %s seed %d: %d rounds, %d ops attempted, %d failed (failed_frac %.3g)\n",
		name, seed, res.rounds, res.attempted, res.failed, float64(res.failed)/math.Max(1, float64(res.attempted)))
	if o := res.ref; o != nil {
		fmt.Fprintf(w, "  simulated: p50 %.0f ns, p99 %.0f ns over %d samples; goodput %.4g Mops/s; digest %016x\n",
			o.P50, o.P99, o.Samples, o.GoodputMops, o.Digest)
	}
	if len(res.opsRaw) > 0 {
		fmt.Fprintf(w, "  host as measured: %.6g ops/s, set-up %.4g s; calibration %.0f steps/s (reference %d)\n",
			median(res.opsRaw), median(res.setupRaw), median(res.calRates), calRefHz)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if len(res.problems) > 0 {
		fmt.Fprintf(w, "  problems: %s\n", strings.Join(res.problems, "; "))
	}
}
