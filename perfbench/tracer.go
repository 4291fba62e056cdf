package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// tracer records host-time spans around the calls the benchmark makes
// into the simulator's layers. Spans nest: a span's self time is its
// duration minus the time its child spans cover. Everything stays in
// memory until write; a nil *tracer records nothing, so untraced rounds
// pay one nil check per span.
type tracer struct {
	epoch time.Time
	names map[string]*spanStats
	open  []openSpan
	log   []spanRecord // the first maxLoggedSpans spans, for the trace file
}

// spanStats aggregates every span of one name.
type spanStats struct {
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	durs    []int64 // the first maxSpanSamples durations, for the median
}

type openSpan struct {
	name     string
	start    time.Time
	children time.Duration
	id       int // index into log, or -1 once the log is full
}

// spanRecord is one logged span: offsets are nanoseconds since the
// tracer's epoch, Parent is the index of the enclosing span (-1 at top).
type spanRecord struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

const (
	maxLoggedSpans = 1 << 14
	maxSpanSamples = 1 << 16
)

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), names: make(map[string]*spanStats)}
}

// begin opens a span; every begin is closed by exactly one end, in LIFO
// order.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	id := -1
	if len(t.log) < maxLoggedSpans {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].id
		}
		id = len(t.log)
		t.log = append(t.log, spanRecord{Name: name, StartNS: int64(now.Sub(t.epoch)), Parent: parent})
	}
	t.open = append(t.open, openSpan{name: name, start: now, id: id})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	sp := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := now.Sub(sp.start)
	if sp.id >= 0 {
		t.log[sp.id].EndNS = int64(now.Sub(t.epoch))
	}
	if n := len(t.open); n > 0 {
		t.open[n-1].children += d
	}
	st := t.names[sp.name]
	if st == nil {
		st = &spanStats{}
		t.names[sp.name] = st
	}
	st.Count++
	st.TotalNS += int64(d)
	st.SelfNS += int64(d - sp.children)
	if len(st.durs) < maxSpanSamples {
		st.durs = append(st.durs, int64(d))
	}
}

// durations returns the recorded durations of every span name, in ns.
func (t *tracer) durations() map[string][]int64 {
	out := make(map[string][]int64, len(t.names))
	for n, st := range t.names {
		out[n] = st.durs
	}
	return out
}

// medianNS is the median of span durations in ns, 0 for none.
func medianNS(durs []int64) float64 {
	d := make([]float64, len(durs))
	for i, v := range durs {
		d[i] = float64(v)
	}
	return median(d)
}

// write saves the span summary and the span log as JSON.
func (t *tracer) write(path string) error {
	names := make([]string, 0, len(t.names))
	for n := range t.names {
		names = append(names, n)
	}
	sort.Strings(names)
	type summary struct {
		Name string `json:"name"`
		spanStats
		MedianNS int64 `json:"median_ns"`
	}
	out := struct {
		Spans []summary    `json:"spans"`
		Log   []spanRecord `json:"log"`
	}{Log: t.log}
	for _, n := range names {
		out.Spans = append(out.Spans, summary{Name: n, spanStats: *t.names[n], MedianNS: int64(medianNS(t.names[n].durs))})
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
