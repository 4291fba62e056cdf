package main

import "time"

// Host-speed calibration. The benchmark often runs on shared machines
// whose speed drifts by tens of percent over seconds, which would swamp
// the differences it exists to measure. So every timed sample is
// bracketed by a short run of a fixed pure-Go calibration kernel, and
// host-time figures are scaled to a reference host that runs calRefHz
// calibration steps per second:
//
//	normalized rate = measured rate × calRefHz / calibration rate
//	normalized time = measured time × calibration rate / calRefHz
//
// On a host running the kernel at calRefHz the normalized figures are
// the measured ones. The kernel is shaped like the simulator's host
// profile (struct-keyed map lookups and updates, short copies) and
// allocates nothing, so it does not disturb host_allocs_per_op.

const (
	calRefHz  = 8000                  // calibration steps per second of the reference host
	calSlice  = 10 * time.Millisecond // one calibration measurement
	sampleLen = 80 * time.Millisecond // timed work per normalized sample
)

// calKey mirrors the simulator's hottest host structure, a TLB entry
// keyed by (context, frame).
type calKey struct{ a, b uint64 }

var (
	calMap  = make(map[calKey]uint64, 512)
	calBuf  [512]byte
	calSink uint64
)

// calibrationStep is one fixed unit of calibration work.
func calibrationStep() {
	clear(calMap)
	var s uint64
	for i := uint64(0); i < 2048; i++ {
		k := calKey{i & 7, (i * 2654435761) & 511}
		calMap[k] += i
		s += calMap[calKey{k.a, (k.b * 7) & 511}]
		copy(calBuf[i&255:], calBuf[:192])
	}
	calSink += s + uint64(calBuf[s&511])
}

// calibrate runs calibration steps for about calSlice and returns
// steps per second.
func calibrate() float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < calSlice {
		calibrationStep()
		n++
	}
	return float64(n) / time.Since(t0).Seconds()
}

// meter times a pass's work in chunks (begin/end) and groups chunks
// into samples of at least sampleLen, calibrating between samples. Work
// outside begin/end — output checks, bookkeeping — is not timed. A nil
// *meter times nothing.
type meter struct {
	lastCal float64 // the calibration closing the previous sample
	t0      time.Time

	ops   int64         // ops of the open sample
	spent time.Duration // timed work of the open sample

	raw     []float64 // measured ops/s per sample
	norm    []float64 // normalized ops/s per sample
	calRate []float64 // calibration rate per sample (mean of its brackets)
}

// newMeter calibrates once, opening the first sample.
func newMeter() *meter { return &meter{lastCal: calibrate()} }

func (m *meter) begin() {
	if m != nil {
		m.t0 = time.Now()
	}
}

// end closes a chunk that completed ops operations.
func (m *meter) end(ops int64) {
	if m == nil {
		return
	}
	d := time.Since(m.t0)
	m.spent += d
	m.ops += ops
	if m.spent >= sampleLen {
		m.closeSample()
	}
}

// finish closes the last, possibly short, sample.
func (m *meter) finish() {
	if m != nil && m.spent > 0 {
		m.closeSample()
	}
}

func (m *meter) closeSample() {
	cal := calibrate()
	mean := (m.lastCal + cal) / 2
	rate := float64(m.ops) / m.spent.Seconds()
	m.raw = append(m.raw, rate)
	m.norm = append(m.norm, rate*calRefHz/mean)
	m.calRate = append(m.calRate, mean)
	m.lastCal = cal
	m.ops, m.spent = 0, 0
}
