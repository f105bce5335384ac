// Disk-full degraded durability: the /v1/metrics "resources" section and
// the loop that flushes the checkpoint store's in-memory snapshots back
// to disk once space returns.
package server

import (
	"context"
	"time"

	"accelwall/internal/resilience"
)

// resourcesSnapshot renders the /v1/metrics "resources" section: the
// checkpoint store's disk-durability state when durable jobs are enabled,
// else an empty section.
func (s *Server) resourcesSnapshot() map[string]any {
	out := map[string]any{}
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
