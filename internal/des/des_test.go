package des

import (
	"strconv"
	"strings"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	_ = s.At(30, func(simtime.Time) { order = append(order, 3) })
	_ = s.At(10, func(simtime.Time) { order = append(order, 1) })
	_ = s.At(20, func(simtime.Time) { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 || s.Fired() != 3 {
		t.Fatalf("now=%d fired=%d", s.Now(), s.Fired())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		_ = s.At(100, func(simtime.Time) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	s := New()
	if err := s.At(5, nil); err == nil {
		t.Error("nil callback accepted")
	}
	_ = s.At(50, func(simtime.Time) {})
	s.Run()
	if err := s.At(10, func(simtime.Time) {}); err == nil {
		t.Error("past scheduling accepted")
	}
	if err := s.After(-1, func(simtime.Time) {}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestEventsCanSchedule(t *testing.T) {
	s := New()
	count := 0
	var tick func(simtime.Time)
	tick = func(simtime.Time) {
		count++
		if count < 10 {
			_ = s.After(5, tick)
		}
	}
	_ = s.After(0, tick)
	s.Run()
	if count != 10 || s.Now() != 45 {
		t.Fatalf("count=%d now=%d", count, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []simtime.Time
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		at := at
		_ = s.At(at, func(now simtime.Time) { fired = append(fired, now) })
	}
	s.RunUntil(25)
	if len(fired) != 2 || s.Now() != 25 {
		t.Fatalf("fired=%v now=%d", fired, s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// Deadline-inclusive.
	s.RunUntil(30)
	if len(fired) != 3 {
		t.Fatalf("deadline event not fired: %v", fired)
	}
}

func TestQueueFIFOAndService(t *testing.T) {
	s := New()
	type rec struct{ enq, start, end simtime.Time }
	var recs []rec
	q, err := NewQueue[int](s,
		func(job int, _ simtime.Time) simtime.Duration { return 100 },
		func(job int, enq, start, end simtime.Time) {
			recs = append(recs, rec{enq, start, end})
		})
	if err != nil {
		t.Fatal(err)
	}
	// Three jobs arrive at t=0: they serialise.
	q.Enqueue(1)
	q.Enqueue(2)
	q.Enqueue(3)
	if q.Len() != 2 { // one in service
		t.Fatalf("waiting = %d", q.Len())
	}
	s.Run()
	if len(recs) != 3 {
		t.Fatalf("completions = %d", len(recs))
	}
	wantEnd := []simtime.Time{100, 200, 300}
	for i, r := range recs {
		if r.end != wantEnd[i] {
			t.Fatalf("job %d end=%d want %d", i, r.end, wantEnd[i])
		}
		if r.enq != 0 {
			t.Fatalf("job %d enq=%d", i, r.enq)
		}
	}
	if q.MaxLen() != 2 {
		t.Fatalf("maxlen = %d", q.MaxLen())
	}
}

func TestQueueIdleRestart(t *testing.T) {
	s := New()
	ends := []simtime.Time{}
	q, _ := NewQueue[int](s,
		func(int, simtime.Time) simtime.Duration { return 10 },
		func(_ int, _, _, end simtime.Time) { ends = append(ends, end) })
	q.Enqueue(1)
	s.Run()
	// Queue drained; a later arrival restarts service.
	_ = s.After(100, func(simtime.Time) { q.Enqueue(2) })
	s.Run()
	if len(ends) != 2 || ends[1] != 120 {
		t.Fatalf("ends = %v", ends)
	}
}

func TestQueueValidation(t *testing.T) {
	if _, err := NewQueue[int](nil, nil, nil); err == nil {
		t.Fatal("nil sim/service accepted")
	}
}

// An M/D/1-style sanity check: with utilisation near 1 the queue builds;
// well below 1 it stays near-empty. This is the mechanism behind the
// paper's hockey-stick latency curves.
func TestQueueingBehaviour(t *testing.T) {
	run := func(gap simtime.Duration) simtime.Time {
		s := New()
		var lastEnd simtime.Time
		q, _ := NewQueue[int](s,
			func(int, simtime.Time) simtime.Duration { return 100 },
			func(_ int, _, _, end simtime.Time) { lastEnd = end })
		for i := 0; i < 100; i++ {
			at := simtime.Time(int64(i) * int64(gap))
			_ = s.At(at, func(simtime.Time) { q.Enqueue(1) })
		}
		s.Run()
		return lastEnd
	}
	// Overloaded (gap 50 < service 100): completion time dominated by
	// service serialisation: ~100*100.
	if end := run(50); end < 9_900 {
		t.Fatalf("overloaded queue finished too fast: %d", end)
	}
	// Underloaded (gap 200): finishes right after the last arrival.
	if end := run(200); end > 99*200+150 {
		t.Fatalf("underloaded queue lagged: %d", end)
	}
}

// A source row and a heap event at the same instant fire row first,
// whichever was installed first; rows keep their index order, and heap
// events their scheduling order, among equal instants.
func TestFeedRowsGoFirstAtAnInstant(t *testing.T) {
	s := New()
	var order []string
	ev := func(name string) func(simtime.Time) {
		return func(simtime.Time) { order = append(order, name) }
	}
	_ = s.At(10, ev("h10a"))
	_ = s.At(5, ev("h5"))
	if err := s.Feed([]simtime.Time{5, 10, 10, 20}, func(i int, now simtime.Time) {
		order = append(order, "r"+strconv.Itoa(i)+"@"+strconv.Itoa(int(now)))
		if i == 1 {
			_ = s.At(10, ev("h10b")) // same instant, scheduled later: after every earlier event
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = s.At(10, ev("h10c"))
	if s.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", s.Pending())
	}
	s.Run()
	want := "r0@5 h5 r1@10 r2@10 h10a h10c h10b r3@20"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %s\nwant    %s", got, want)
	}
	if s.Fired() != 8 || s.Now() != 20 {
		t.Fatalf("fired=%d now=%d", s.Fired(), s.Now())
	}
}

// RunUntil stops at the deadline for source rows and heap events alike,
// firing both kinds exactly at it.
func TestFeedRunUntilDeadline(t *testing.T) {
	s := New()
	var fired []string
	_ = s.At(30, func(now simtime.Time) { fired = append(fired, "h30") })
	_ = s.At(31, func(now simtime.Time) { fired = append(fired, "h31") })
	_ = s.Feed([]simtime.Time{10, 30, 32}, func(i int, now simtime.Time) {
		fired = append(fired, "r"+strconv.Itoa(i))
	})
	s.RunUntil(30)
	if got := strings.Join(fired, " "); got != "r0 r1 h30" || s.Now() != 30 {
		t.Fatalf("fired %q now %d, want \"r0 r1 h30\" at 30", got, s.Now())
	}
	s.RunUntil(31)
	if got := strings.Join(fired, " "); got != "r0 r1 h30 h31" || s.Pending() != 1 {
		t.Fatalf("fired %q pending %d", got, s.Pending())
	}
	s.RunUntil(100)
	if len(fired) != 5 || s.Now() != 100 {
		t.Fatalf("fired %v now %d", fired, s.Now())
	}
}

func TestFeedValidation(t *testing.T) {
	s := New()
	if err := s.Feed([]simtime.Time{1}, nil); err == nil {
		t.Error("nil arrival callback accepted")
	}
	if err := s.Feed([]simtime.Time{5, 4}, func(int, simtime.Time) {}); err == nil {
		t.Error("decreasing rows accepted")
	}
	s.RunUntil(10)
	if err := s.Feed([]simtime.Time{9}, func(int, simtime.Time) {}); err == nil {
		t.Error("row in the past accepted")
	}
}

// TestZeroAllocDESStep pins scheduling and firing on a warmed Sim at
// zero allocations: events are heap values, not pointers.
func TestZeroAllocDESStep(t *testing.T) {
	s := New()
	fn := func(simtime.Time) {}
	for i := 0; i < 64; i++ {
		_ = s.After(simtime.Duration(i%7), fn)
	}
	if n := testing.AllocsPerRun(1000, func() {
		_ = s.After(3, fn)
		s.Step()
	}); n != 0 {
		t.Errorf("At+Step: %v allocs/op, want 0", n)
	}
}
