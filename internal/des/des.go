// Package des is a minimal discrete-event simulator: a typed event heap
// and an ordered arrival source over one global virtual clock. The
// memcached experiment uses it to reproduce the paper's latency-vs
// -throughput curves, which are queueing phenomena (open-loop arrivals
// meeting a finite-rate server) rather than straight-line cost
// accounting; the fleet scheduler runs its cores, pumps and trace
// replays on it.
package des

import (
	"fmt"

	"github.com/elisa-go/elisa/internal/simtime"
)

// event is a scheduled callback, stored by value in Sim's heap.
type event struct {
	at  simtime.Time
	seq uint64 // tie-break for determinism: FIFO among equal instants
	fn  func(now simtime.Time)
}

// before is the heap order: by instant, then by scheduling order.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Sim is one simulation run. The zero value is not usable; use New.
//
// Events come from two places. At and After schedule callbacks on a
// binary heap ordered by (instant, scheduling order). Feed installs an
// ordered arrival source: a list of due instants served by one callback,
// which costs no heap entry per row. A source row goes ahead of any heap
// event at the same instant, as if every row had been scheduled, in
// order, before anything else.
type Sim struct {
	now    simtime.Time
	events []event // binary min-heap by event.before
	seq    uint64
	fired  uint64

	due  []simtime.Time // the arrival source's instants, nondecreasing
	next int            // first source row not yet fired
	fire func(i int, now simtime.Time)
}

// New returns an empty simulation at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() simtime.Time { return s.now }

// Fired reports how many events have executed.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending reports how many events, source rows included, are scheduled.
func (s *Sim) Pending() int { return len(s.events) + len(s.due) - s.next }

// At schedules fn at absolute time t (>= now).
func (s *Sim) At(t simtime.Time, fn func(now simtime.Time)) error {
	if fn == nil {
		return fmt.Errorf("des: nil event callback")
	}
	if t < s.now {
		return fmt.Errorf("des: scheduling in the past (%d < %d)", t, s.now)
	}
	s.events = append(s.events, event{at: t, seq: s.seq, fn: fn})
	s.seq++
	s.up(len(s.events) - 1)
	return nil
}

// After schedules fn d from now.
func (s *Sim) After(d simtime.Duration, fn func(now simtime.Time)) error {
	if d < 0 {
		return fmt.Errorf("des: negative delay %d", d)
	}
	return s.At(s.now.Add(d), fn)
}

// Feed installs the arrival source: row i fires fire(i, now) at due[i].
// due must be nondecreasing and not before Now. Rows fire in index
// order, each ahead of any heap event at the same instant. Feed replaces
// whatever rows of an earlier source have not fired.
func (s *Sim) Feed(due []simtime.Time, fire func(i int, now simtime.Time)) error {
	if fire == nil {
		return fmt.Errorf("des: nil arrival callback")
	}
	last := s.now
	for i, t := range due {
		if t < last {
			return fmt.Errorf("des: arrival %d at %d before %d (rows must be nondecreasing from now)", i, t, last)
		}
		last = t
	}
	s.due, s.next, s.fire = due, 0, fire
	return nil
}

// rowNext reports whether the next event is a source row: one is left,
// and it is due no later than the heap's earliest event.
func (s *Sim) rowNext() bool {
	return s.next < len(s.due) && (len(s.events) == 0 || s.due[s.next] <= s.events[0].at)
}

// peek returns the instant of the next event, source or heap.
func (s *Sim) peek() (simtime.Time, bool) {
	if s.rowNext() {
		return s.due[s.next], true
	}
	if len(s.events) > 0 {
		return s.events[0].at, true
	}
	return 0, false
}

// Step fires the next event. It reports false when no events remain.
func (s *Sim) Step() bool {
	if s.rowNext() {
		i := s.next
		s.next++
		s.now = s.due[i]
		s.fired++
		s.fire(i, s.now)
		return true
	}
	if len(s.events) == 0 {
		return false
	}
	e := s.events[0]
	n := len(s.events) - 1
	s.events[0] = s.events[n]
	s.events[n] = event{} // drop the callback reference
	s.events = s.events[:n]
	s.down(0)
	s.now = e.at
	s.fired++
	e.fn(s.now)
	return true
}

// RunUntil fires events until the clock would pass deadline or the event
// queue drains. Events scheduled exactly at the deadline still fire.
func (s *Sim) RunUntil(deadline simtime.Time) {
	for {
		at, ok := s.peek()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run drains the event queue completely (use with self-limiting models).
func (s *Sim) Run() {
	for s.Step() {
	}
}

// up and down restore the heap order after an append at i and after the
// root is replaced, respectively.
func (s *Sim) up(i int) {
	h := s.events
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *Sim) down(i int) {
	h := s.events
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Queue is a FIFO single-server queue with deterministic service: the
// building block for the memcached server model. Jobs are opaque payloads;
// the server function returns each job's service time.
type Queue[T any] struct {
	sim     *Sim
	service func(job T, now simtime.Time) simtime.Duration
	done    func(job T, enq, start, end simtime.Time)
	waiting []T
	enqAt   []simtime.Time
	busy    bool
	maxLen  int
}

// NewQueue creates a single-server queue. service computes a job's holding
// time; done (optional) observes completion with full timestamps.
func NewQueue[T any](sim *Sim, service func(job T, now simtime.Time) simtime.Duration, done func(job T, enq, start, end simtime.Time)) (*Queue[T], error) {
	if sim == nil || service == nil {
		return nil, fmt.Errorf("des: queue needs a sim and a service function")
	}
	return &Queue[T]{sim: sim, service: service, done: done}, nil
}

// Len returns the number of jobs waiting (not counting one in service).
func (q *Queue[T]) Len() int { return len(q.waiting) }

// MaxLen returns the high-water mark of the wait queue.
func (q *Queue[T]) MaxLen() int { return q.maxLen }

// Enqueue adds a job at the current time.
func (q *Queue[T]) Enqueue(job T) {
	q.waiting = append(q.waiting, job)
	q.enqAt = append(q.enqAt, q.sim.Now())
	if len(q.waiting) > q.maxLen {
		q.maxLen = len(q.waiting)
	}
	if !q.busy {
		q.startNext()
	}
}

func (q *Queue[T]) startNext() {
	if len(q.waiting) == 0 {
		q.busy = false
		return
	}
	job := q.waiting[0]
	enq := q.enqAt[0]
	q.waiting = q.waiting[1:]
	q.enqAt = q.enqAt[1:]
	q.busy = true
	start := q.sim.Now()
	d := q.service(job, start)
	if d < 0 {
		d = 0
	}
	err := q.sim.After(d, func(now simtime.Time) {
		if q.done != nil {
			q.done(job, enq, start, now)
		}
		q.startNext()
	})
	if err != nil {
		// After only fails on negative delay, which we clamped.
		panic(err)
	}
}
