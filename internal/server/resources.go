// Memory-budgeted admission: every heavy request declares an estimated
// peak working-set cost before any engine work starts, and the server
// admits it only if the global byte budget has room. Refusals reuse the
// overload-shedding contract — a warm cache can still answer stale
// (degraded serving), otherwise the client gets 429 + Retry-After — so
// a burst of huge grids degrades to "try again shortly" instead of an
// OOM kill that loses every in-flight job. Mirrors the paper's framing:
// the scarce resource is physical (bytes here, transistors there), and
// gains must come from discipline per unit of it, not from pretending
// the budget is unbounded.
package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"accelwall/internal/chipdb"
	"accelwall/internal/resilience"
)

// uncertaintyCorpusChips memoizes the synthetic corpus size that every
// Monte Carlo run resamples (chipdb.Synthetic is seed-independent in
// length), so admission can price a run without building its corpus.
var uncertaintyCorpusChips = sync.OnceValue(func() int {
	return chipdb.Synthetic(1).Len()
})

// reserveMemory admits a request against the global memory budget. On
// refusal it first offers the request to the degraded stale-serving path
// (serveStale, may be nil), then sheds with 429 + Retry-After; either
// way the response has been written and the caller must return. On
// success the caller owns release (idempotent) and must call it when the
// request's compute is done.
func (s *Server) reserveMemory(w http.ResponseWriter, r *http.Request, cost int64, serveStale func() bool) (release func(), ok bool) {
	release, ok = s.budget.TryReserve(cost)
	if ok {
		return release, true
	}
	if serveStale != nil && serveStale() {
		return nil, false
	}
	route := routeOf(r.Context())
	s.metrics.Shed(route, http.StatusTooManyRequests)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests,
		"memory budget exhausted: request needs ~%d bytes, %d of %d in flight; retry after 1s",
		cost, s.budget.InFlight(), s.budget.Limit())
	return nil, false
}

// resourcesSnapshot renders the /v1/metrics "resources" section: the
// live memory-admission ledger and, when durable jobs are enabled, the
// checkpoint store's disk-durability state.
func (s *Server) resourcesSnapshot() map[string]any {
	out := map[string]any{
		"mem_budget_bytes":   s.budget.Limit(),
		"mem_inflight_bytes": s.budget.InFlight(),
		"mem_sheds":          s.budget.Sheds(),
	}
	if s.jobs != nil {
		out["disk_degraded"] = s.jobs.store.Degraded()
		out["disk_stashed"] = s.jobs.store.Stashed()
		out["disk_mem_snapshots"] = s.jobs.store.MemSaves()
	}
	return out
}

// healInterval is the cadence of the degraded-disk flush loop, and
// healRetry the bounded-retry schedule of each tick's flush.
const healInterval = time.Second

var healRetry = resilience.Policy{Attempts: 3, Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: 2}

// healLoop retries the checkpoint store's in-memory snapshots against
// the disk while the store is degraded, on a steady cadence with a
// bounded-retry policy per tick. It exits when ctx ends; a store that
// heals through a job's own successful write just makes every tick a
// no-op.
func (s *Server) healLoop(ctx context.Context) {
	defer s.loops.Done()
	tick := time.NewTicker(healInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if !s.jobs.store.Degraded() {
			continue
		}
		err := healRetry.Do(ctx, "checkpoint.flush", func(context.Context) error {
			return s.jobs.store.Flush()
		})
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			s.logf("checkpoint: disk still unavailable, snapshots staying in memory: %v", err)
		default:
			s.logf("checkpoint: disk durability restored, stashed snapshots flushed")
		}
	}
}
