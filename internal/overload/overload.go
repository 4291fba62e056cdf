// Package overload provides the deterministic overload-control
// primitives the fleet scheduler and the ring datapath share: token-
// bucket admission control, a watermark load shedder with priority
// classes, a fault circuit breaker, and jittered exponential backoff.
//
// Everything here is driven by simulated time and seeded RNG — no wall
// clocks, no global randomness — so two runs with the same seed make
// identical admission, shedding, and quarantine decisions, and the
// fleet's byte-identical-report property survives saturation.
package overload

import (
	"math/rand"

	"github.com/elisa-go/elisa/internal/simtime"
)

// TokenBucket is per-tenant admission control: tokens refill at a fixed
// rate of virtual time and each admitted operation spends one. It is the
// first gate on the arrival path — work refused here costs the machine
// nothing, unlike work shed after it has queued.
type TokenBucket struct {
	rate   float64 // tokens per simulated second
	burst  float64
	tokens float64
	last   simtime.Time
}

// NewTokenBucket builds a bucket admitting ratePerSec operations per
// simulated second with the given burst capacity (minimum 1). The bucket
// starts full.
func NewTokenBucket(ratePerSec float64, burst int) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: ratePerSec, burst: float64(burst), tokens: float64(burst)}
}

// Allow refills the bucket by the virtual time elapsed since the last
// call and takes one token, reporting whether the operation is admitted.
// A nil bucket admits everything.
func (b *TokenBucket) Allow(now simtime.Time) bool {
	if b == nil {
		return true
	}
	if el := now.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// ShedConfig shapes a Shedder.
type ShedConfig struct {
	// Low and High are queue-occupancy watermarks (fractions of total
	// queue capacity). Below Low nothing is shed; the shed threshold
	// climbs linearly from no classes at Low to every class but the top
	// one at High (defaults 0.5 and 0.9).
	Low, High float64
	// After is how long occupancy must stay at or above Low before
	// shedding engages — transient bursts ride out on the queues; only
	// sustained saturation sheds (default 0, shed immediately).
	After simtime.Duration
	// Classes is the number of priority classes (default 1). The top
	// class, Classes-1, is never shed.
	Classes int
}

// Shedder is the watermark load-shed controller: fed the fleet's queue
// occupancy on every arrival, it drops lowest-class work first once
// saturation has been sustained past the configured delay.
type Shedder struct {
	cfg       ShedConfig
	saturated bool
	satSince  simtime.Time
	shed      uint64
}

// NewShedder builds a shedder, applying config defaults.
func NewShedder(cfg ShedConfig) *Shedder {
	if cfg.Low <= 0 {
		cfg.Low = 0.5
	}
	if cfg.High <= cfg.Low {
		cfg.High = cfg.Low + 0.4
	}
	if cfg.Classes < 1 {
		cfg.Classes = 1
	}
	return &Shedder{cfg: cfg}
}

// Admit decides one arrival: occupancy is the current fraction of total
// queue capacity in use, class the arrival's priority class (0 =
// lowest). It returns false when the arrival should be shed, along with
// the threshold class in force: every class below it is being shed (0
// while shedding is not engaged).
func (s *Shedder) Admit(now simtime.Time, occupancy float64, class int) (ok bool, thresh int) {
	if occupancy < s.cfg.Low {
		s.saturated = false
		return true, 0
	}
	if !s.saturated {
		s.saturated = true
		s.satSince = now
	}
	if now.Sub(s.satSince) < s.cfg.After {
		return true, 0
	}
	level := (occupancy - s.cfg.Low) / (s.cfg.High - s.cfg.Low)
	if level > 1 {
		level = 1
	}
	// The threshold class climbs from 0 (shed nothing) at Low to
	// Classes-1 (shed everything below the top class) at High.
	thresh = int(level * float64(s.cfg.Classes))
	if thresh > s.cfg.Classes-1 {
		thresh = s.cfg.Classes - 1
	}
	if class < thresh {
		s.shed++
		return false, thresh
	}
	return true, thresh
}

// Shed returns how many arrivals this shedder has refused.
func (s *Shedder) Shed() uint64 { return s.shed }

// BreakerState enumerates circuit-breaker states.
type BreakerState int

// The circuit-breaker states: Closed passes traffic, Open quarantines
// the tenant until its cooldown expires, HalfOpen probes whether the
// fault storm has passed.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for reports and traces.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig shapes a Breaker.
type BreakerConfig struct {
	// Threshold is how many faults within Window trip the breaker
	// (default 3).
	Threshold int
	// Window is the sliding fault-counting window (default 1ms).
	Window simtime.Duration
	// Cooldown is how long the breaker stays open after tripping; each
	// re-trip doubles it, up to MaxCooldown (defaults 100µs and 16x).
	Cooldown    simtime.Duration
	MaxCooldown simtime.Duration
}

// Breaker is a per-tenant circuit breaker over fault/recovery events: a
// tenant tripping repeated fault cycles is quarantined (Open) for a
// cooldown that doubles on every re-trip, instead of being allowed to
// churn the manager's repair path. A quiet probe in HalfOpen closes it.
type Breaker struct {
	cfg      BreakerConfig
	state    BreakerState
	recent   []simtime.Time // fault stamps within the sliding window
	openedAt simtime.Time
	cool     simtime.Duration
	trips    uint64
}

// NewBreaker builds a closed breaker, applying config defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold < 1 {
		cfg.Threshold = 3
	}
	if cfg.Window <= 0 {
		cfg.Window = simtime.Millisecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 100 * simtime.Microsecond
	}
	if cfg.MaxCooldown < cfg.Cooldown {
		cfg.MaxCooldown = 16 * cfg.Cooldown
	}
	return &Breaker{cfg: cfg, cool: cfg.Cooldown}
}

// State returns the breaker's state at now, advancing Open to HalfOpen
// once the cooldown has elapsed.
func (b *Breaker) State(now simtime.Time) BreakerState {
	if b.state == BreakerOpen && now.Sub(b.openedAt) >= b.cool {
		b.state = BreakerHalfOpen
	}
	return b.state
}

// RecordFault feeds one fault event. Reaching the threshold within the
// window — or any fault during a HalfOpen probe — trips the breaker.
func (b *Breaker) RecordFault(now simtime.Time) {
	if b.State(now) == BreakerHalfOpen {
		b.trip(now)
		return
	}
	if b.state == BreakerOpen {
		return // already quarantined; the cooldown owns the clock
	}
	keep := b.recent[:0]
	for _, t := range b.recent {
		if now.Sub(t) < b.cfg.Window {
			keep = append(keep, t)
		}
	}
	b.recent = append(keep, now)
	if len(b.recent) >= b.cfg.Threshold {
		b.trip(now)
	}
}

func (b *Breaker) trip(now simtime.Time) {
	if b.trips > 0 {
		b.cool *= 2
		if b.cool > b.cfg.MaxCooldown {
			b.cool = b.cfg.MaxCooldown
		}
	}
	b.trips++
	b.state = BreakerOpen
	b.openedAt = now
	b.recent = b.recent[:0]
}

// RecordSuccess feeds one quiet probe: a HalfOpen breaker closes. It is
// a no-op in any other state.
func (b *Breaker) RecordSuccess(now simtime.Time) {
	if b.State(now) == BreakerHalfOpen {
		b.state = BreakerClosed
	}
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 { return b.trips }

// Cooldown returns the breaker's current (possibly doubled) cooldown.
func (b *Breaker) Cooldown() simtime.Duration { return b.cool }

// Backoff returns the jittered exponential backoff for a 0-based retry
// attempt: base doubling per attempt, capped at max, plus up to 25%
// deterministic jitter from rng (nil rng = no jitter). The caller
// charges the result to its guest clock — backing off costs the guest
// its own time, never the manager's.
func Backoff(rng *rand.Rand, base, max simtime.Duration, attempt int) simtime.Duration {
	if base <= 0 {
		base = 2 * simtime.Microsecond
	}
	if max < base {
		max = 32 * base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if rng != nil {
		d += simtime.Duration(rng.Int63n(int64(d)/4 + 1))
	}
	return d
}
