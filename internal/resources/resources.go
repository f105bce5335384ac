// Package resources is the daemon's resource-governance layer: a global
// memory budget that admission checks projected request footprints
// against, per-request cost estimators for the three heavy request
// kinds, and the chunked worker pool the engines run on.
//
// The discipline mirrors the paper's own accounting: just as the wall
// analysis normalizes specialization gains per unit of scarce silicon,
// the serving layer prices every admitted request in bytes of projected
// peak footprint and refuses work the host cannot hold. Exhaustion then
// degrades predictably — a 429 with Retry-After, or a stale cached
// answer — instead of an OOM kill that takes every in-flight request
// down with it.
package resources

import (
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultBudgetBytes is the projected-footprint ceiling used when no
// explicit budget is configured and the Go runtime has no memory limit
// (GOMEMLIMIT) to derive one from.
const DefaultBudgetBytes int64 = 2 << 30

// Per-unit footprint estimates, in bytes. These price the dominant
// allocations on each path and are deliberately round and pessimistic:
// the budget is an admission gate, not an allocator, and over-estimating
// by 2x merely lowers effective concurrency while under-estimating
// reinstates the OOM the layer exists to prevent.
const (
	// sweepPointBytes covers one unique design point end to end: the
	// simulated aladdin.Result, its engine memo entry, the response row,
	// and its share of the marshaled JSON body.
	sweepPointBytes = 768
	// sweepWorkerBytes covers one worker's in-flight chunk: its
	// chunk-local results and its share of the pooled walk scratch.
	sweepWorkerBytes = 4096
	// replicateBytes covers one Monte Carlo replicate: its substream
	// PRNG state and the per-replicate ratio retained for the quantile
	// reduction.
	replicateBytes = 64
	// corpusEntryBytes covers one published-accelerator corpus entry
	// jittered per replicate batch.
	corpusEntryBytes = 256
	// evaluationBytes covers one search evaluation: the candidate
	// design, its memoized result, and its share of the frontier.
	evaluationBytes = 768
)

// DefaultBudget derives the budget from the runtime's memory limit when
// one is set (half of it, leaving the other half for steady-state heap,
// caches, and the runtime itself), else DefaultBudgetBytes.
func DefaultBudget() int64 {
	lim := debug.SetMemoryLimit(-1)
	if lim <= 0 || lim == math.MaxInt64 {
		return DefaultBudgetBytes
	}
	return lim / 2
}

// SweepCost estimates the peak footprint of a sweep over points unique
// designs evaluated on a pool of the given number of workers.
func SweepCost(points, workers int) int64 {
	return int64(points)*sweepPointBytes + int64(workers)*sweepWorkerBytes
}

// MonteCarloCost estimates the peak footprint of an uncertainty run of
// replicates Monte Carlo replicates over a corpus of corpusSize
// published accelerators.
func MonteCarloCost(replicates, corpusSize int) int64 {
	return int64(replicates)*replicateBytes + int64(corpusSize)*corpusEntryBytes
}

// SearchCost estimates the peak footprint of a guided search evaluating
// up to population x generations candidate designs.
func SearchCost(population, generations int) int64 {
	return int64(population) * int64(generations) * evaluationBytes
}

// Budget is a global projected-footprint ledger. Admission reserves a
// request's estimated cost before running it and releases it after; a
// reservation that would push the in-flight total past the limit is
// refused. A nil *Budget admits everything.
type Budget struct {
	limit    int64
	inflight atomic.Int64
	sheds    atomic.Int64
}

// NewBudget returns a budget with the given byte limit. A zero limit
// selects DefaultBudget; a negative limit disables the gate (every
// reservation succeeds, but in-flight cost is still tracked).
func NewBudget(limit int64) *Budget {
	if limit == 0 {
		limit = DefaultBudget()
	}
	return &Budget{limit: limit}
}

// TryReserve attempts to reserve cost bytes. On success it returns an
// idempotent release func and true; on refusal it counts the shed and
// returns (nil, false). Non-positive costs are admitted for free.
func (b *Budget) TryReserve(cost int64) (release func(), ok bool) {
	if b == nil || cost <= 0 {
		return func() {}, true
	}
	for {
		cur := b.inflight.Load()
		if b.limit >= 0 && cur+cost > b.limit {
			b.sheds.Add(1)
			return nil, false
		}
		if b.inflight.CompareAndSwap(cur, cur+cost) {
			break
		}
	}
	var once sync.Once
	return func() { once.Do(func() { b.inflight.Add(-cost) }) }, true
}

// Limit reports the byte ceiling (negative: unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return -1
	}
	return b.limit
}

// InFlight reports the currently reserved bytes.
func (b *Budget) InFlight() int64 {
	if b == nil {
		return 0
	}
	return b.inflight.Load()
}

// Sheds reports how many reservations were refused.
func (b *Budget) Sheds() int64 {
	if b == nil {
		return 0
	}
	return b.sheds.Load()
}
