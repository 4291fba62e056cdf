package main

import (
	"encoding/json"
	"fmt"
	"io"

	elisa "github.com/elisa-go/elisa"
	"github.com/elisa-go/elisa/internal/simtime"
)

// snapshotSchema versions the -once -json output so scrapers can reject
// a format they don't read. Schema 2 added shard_count and the per-shard
// shards array (-shards > 1; empty on unsharded runs).
const snapshotSchema = 2

// tenantSnapshot is one tenant's row in the one-shot snapshot. Every
// field is derived from the simulated machine, so same-flag runs emit
// byte-identical snapshots.
type tenantSnapshot struct {
	Name      string `json:"name"`
	Objects   int    `json:"objects"`
	Calls     uint64 `json:"calls"`
	FnErrors  uint64 `json:"fn_errors"`
	P50Ns     int64  `json:"p50_ns"`
	P99Ns     int64  `json:"p99_ns"`
	SlotsUsed int    `json:"slots_backed"`
	SlotBudg  int    `json:"slot_budget"`
	Remaps    uint64 `json:"slot_remaps"`
	TLBHits   uint64 `json:"tlb_hits"`
	TLBMisses uint64 `json:"tlb_misses"`
	// Ring datapath counters (zero with -ring 0).
	RingDrained uint64 `json:"ring_drained"`
	RingBusied  uint64 `json:"ring_busied"`
	RingRetried uint64 `json:"ring_retried"`
}

// topSnapshot is the whole `elisa-top -once -json` document.
type topSnapshot struct {
	Schema     int              `json:"schema"`
	IntervalNS int64            `json:"interval_ns"`
	RingDepth  int              `json:"ring_depth"`
	Overload   bool             `json:"overload"`
	ShardCount int              `json:"shard_count"`
	Tenants    []tenantSnapshot `json:"tenants"`
	Shards     []shardSnapshot  `json:"shards,omitempty"`
}

// runOnce drives the elisa-top workload for exactly one simulated
// interval and writes the machine-readable snapshot to w — the
// `-once -json` mode. The workload, seeds, and counters are all
// simulated, so the output is bit-identical run to run.
func runOnce(w io.Writer, nGuests, nObjects, slotBudget, intervalMs, sample int, skew, readRatio float64,
	errEvery, ringDepth, ringDeadlineUs, pollBudget int, overload bool, shards int) error {
	if nGuests <= 0 || nObjects <= 0 {
		return fmt.Errorf("need at least one guest and one object")
	}
	if shards > 1 {
		if ringDepth > 0 || overload {
			return fmt.Errorf("-shards is the per-call cluster mode; -ring and -overload are single-shard flags")
		}
		return runOnceShards(w, nGuests, nObjects, shards, slotBudget, intervalMs, sample, skew, readRatio, errEvery)
	}
	sys, tenants, err := buildSingle(nGuests, nObjects, slotBudget, sample, skew, readRatio, ringDepth, ringDeadlineUs, overload)
	if err != nil {
		return err
	}
	interval := simtime.Duration(intervalMs) * simtime.Millisecond
	if err := driveFrame(sys.Manager(), tenants, interval, errEvery, ringDepth, pollBudget, false); err != nil {
		return err
	}

	snap := buildSnapshot(sys, tenants, interval, ringDepth, overload)
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// buildSnapshot assembles the one-shot document from the live system.
func buildSnapshot(sys *elisa.System, tenants []*tenant, interval simtime.Duration, ringDepth int, overload bool) *topSnapshot {
	rec := sys.Recorder()
	byGuest := make(map[string]struct{ calls, errs uint64 })
	for _, st := range sys.Manager().Stats() {
		acct := byGuest[st.Guest]
		acct.calls += st.Calls
		acct.errs += st.FnErrors
		byGuest[st.Guest] = acct
	}
	slots := make(map[string]elisa.SlotStats)
	for _, ss := range sys.SlotStats() {
		slots[ss.Guest] = ss
	}
	type ringAgg struct{ drained, busied, retried uint64 }
	ringsByGuest := make(map[string]ringAgg)
	for _, rs := range sys.RingStats() {
		agg := ringsByGuest[rs.Guest]
		agg.drained += rs.Flushed + rs.Drained
		agg.busied += rs.Busied
		agg.retried += rs.Retried
		ringsByGuest[rs.Guest] = agg
	}
	snap := &topSnapshot{Schema: snapshotSchema, IntervalNS: int64(interval), RingDepth: ringDepth, Overload: overload, ShardCount: 1}
	for _, tn := range tenants {
		name := tn.g.Name()
		acct := byGuest[name]
		ss := slots[name]
		st := tn.g.Stats()
		h := rec.GuestHistogram(name)
		agg := ringsByGuest[name]
		snap.Tenants = append(snap.Tenants, tenantSnapshot{
			Name:      name,
			Objects:   len(tn.hs),
			Calls:     acct.calls,
			FnErrors:  acct.errs,
			P50Ns:     h.Percentile(0.50),
			P99Ns:     h.Percentile(0.99),
			SlotsUsed: ss.Backed,
			SlotBudg:  ss.Budget,
			Remaps:    ss.Faults,
			TLBHits:   st.TLBHits,
			TLBMisses: st.TLBMisses,

			RingDrained: agg.drained,
			RingBusied:  agg.busied,
			RingRetried: agg.retried,
		})
	}
	return snap
}
