package overload

import (
	"math/rand"
	"testing"

	"github.com/elisa-go/elisa/internal/simtime"
)

func at(us int64) simtime.Time { return simtime.Time(us) * simtime.Time(simtime.Microsecond) }

func TestOverloadTokenBucketRefill(t *testing.T) {
	// 1M ops/s = one token per microsecond; burst 2.
	b := NewTokenBucket(1_000_000, 2)
	if !b.Allow(at(0)) || !b.Allow(at(0)) {
		t.Fatal("burst of 2 must admit two ops at t=0")
	}
	if b.Allow(at(0)) {
		t.Fatal("empty bucket admitted a third op")
	}
	if !b.Allow(at(1)) {
		t.Fatal("1µs refill at 1M ops/s must admit one op")
	}
	if b.Allow(at(1)) {
		t.Fatal("bucket admitted beyond its refill")
	}
	// A long idle stretch refills at most to the burst.
	if !b.Allow(at(1000)) || !b.Allow(at(1000)) {
		t.Fatal("refilled bucket must admit a full burst")
	}
	if b.Allow(at(1000)) {
		t.Fatal("bucket refilled beyond its burst")
	}
	var nb *TokenBucket
	if !nb.Allow(at(0)) {
		t.Fatal("nil bucket must admit everything")
	}
}

func TestOverloadShedderClassLadder(t *testing.T) {
	s := NewShedder(ShedConfig{Low: 0.5, High: 0.9, Classes: 3})
	admit := func(now simtime.Time, occupancy float64, class int) bool {
		ok, _ := s.Admit(now, occupancy, class)
		return ok
	}
	// Below the low watermark nothing is shed.
	for class := 0; class < 3; class++ {
		if !admit(at(0), 0.3, class) {
			t.Fatalf("class %d shed below the low watermark", class)
		}
	}
	// Mid-ramp (level 0.5 -> threshold 1): only class 0 is shed.
	if ok, thresh := s.Admit(at(1), 0.7, 0); ok || thresh != 1 {
		t.Fatalf("class 0 at occupancy 0.7: admitted=%v threshold=%d, want shed at threshold 1", ok, thresh)
	}
	if !admit(at(1), 0.7, 1) || !admit(at(1), 0.7, 2) {
		t.Fatal("classes 1/2 shed at occupancy 0.7")
	}
	// At/above the high watermark everything below the top class sheds.
	if ok, thresh := s.Admit(at(2), 1.0, 0); ok || thresh != 2 {
		t.Fatalf("class 0 at full occupancy: admitted=%v threshold=%d, want shed at threshold 2", ok, thresh)
	}
	if admit(at(2), 1.0, 1) {
		t.Fatal("mid class admitted at full occupancy")
	}
	if !admit(at(2), 1.0, 2) {
		t.Fatal("top class must never be shed")
	}
	if s.Shed() != 3 {
		t.Fatalf("shed count = %d, want 3", s.Shed())
	}
	// Dropping below the low watermark clears saturation.
	if !admit(at(3), 0.1, 0) {
		t.Fatal("class 0 shed after occupancy recovered")
	}
}

func TestOverloadShedderSustainedDelay(t *testing.T) {
	s := NewShedder(ShedConfig{Low: 0.5, High: 0.9, Classes: 2, After: 10 * simtime.Microsecond})
	admit := func(now simtime.Time, occupancy float64, class int) bool {
		ok, _ := s.Admit(now, occupancy, class)
		return ok
	}
	// Saturated, but not yet for long enough: admit.
	if !admit(at(0), 1.0, 0) || !admit(at(5), 1.0, 0) {
		t.Fatal("shed before the sustained-saturation delay elapsed")
	}
	if admit(at(10), 1.0, 0) {
		t.Fatal("class 0 admitted after sustained saturation")
	}
	// A dip below Low resets the delay clock.
	if !admit(at(11), 0.2, 0) {
		t.Fatal("shed after occupancy dipped")
	}
	if !admit(at(12), 1.0, 0) {
		t.Fatal("the sustained-saturation clock must restart after a dip")
	}
}

func TestOverloadBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Window: 100 * simtime.Microsecond,
		Cooldown: 50 * simtime.Microsecond})
	if b.State(at(0)) != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	b.RecordFault(at(0))
	b.RecordFault(at(1))
	if b.State(at(1)) != BreakerClosed {
		t.Fatal("tripped below threshold")
	}
	b.RecordFault(at(2))
	if b.State(at(2)) != BreakerOpen {
		t.Fatal("three faults in the window must trip the breaker")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	// Cooldown expiry: open -> half-open; a quiet probe closes it.
	if b.State(at(2+49)) != BreakerOpen {
		t.Fatal("breaker reopened before its cooldown")
	}
	if b.State(at(2+50)) != BreakerHalfOpen {
		t.Fatal("breaker must probe after its cooldown")
	}
	b.RecordSuccess(at(2 + 51))
	if b.State(at(2+51)) != BreakerClosed {
		t.Fatal("quiet half-open probe must close the breaker")
	}
	// A fault during a half-open probe re-trips with a doubled cooldown.
	b.RecordFault(at(200))
	b.RecordFault(at(201))
	b.RecordFault(at(202))
	if b.State(at(202)) != BreakerOpen {
		t.Fatal("second fault storm must re-trip")
	}
	if b.Cooldown() != 100*simtime.Microsecond {
		t.Fatalf("cooldown = %v, want doubled once to 100µs", b.Cooldown())
	}
	_ = b.State(at(202 + 100)) // doubled cooldown elapsed: half-open
	b.RecordFault(at(202 + 101))
	if b.State(at(202+101)) != BreakerOpen {
		t.Fatal("a fault during the half-open probe must re-trip immediately")
	}
	if b.Cooldown() != 200*simtime.Microsecond {
		t.Fatalf("cooldown = %v, want doubled twice to 200µs", b.Cooldown())
	}
}

func TestOverloadBreakerWindowSlides(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 2, Window: 10 * simtime.Microsecond})
	b.RecordFault(at(0))
	b.RecordFault(at(20)) // the first fault has aged out of the window
	if b.State(at(20)) != BreakerClosed {
		t.Fatal("faults outside the window must not count toward the threshold")
	}
	b.RecordFault(at(25))
	if b.State(at(25)) != BreakerOpen {
		t.Fatal("two faults inside the window must trip")
	}
}

func TestOverloadBackoffDeterministicAndBounded(t *testing.T) {
	base, max := 2*simtime.Microsecond, 16*simtime.Microsecond
	a := rand.New(rand.NewSource(7))
	bng := rand.New(rand.NewSource(7))
	for attempt := 0; attempt < 8; attempt++ {
		da := Backoff(a, base, max, attempt)
		db := Backoff(bng, base, max, attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
		floor := base << uint(attempt)
		if floor > max {
			floor = max
		}
		if da < floor || da > max+max/4 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, da, floor, max+max/4)
		}
	}
	// No RNG: pure exponential, capped.
	if d := Backoff(nil, base, max, 0); d != base {
		t.Fatalf("attempt 0 without jitter = %v, want %v", d, base)
	}
	if d := Backoff(nil, base, max, 20); d != max {
		t.Fatalf("huge attempt without jitter = %v, want the %v cap", d, max)
	}
}
