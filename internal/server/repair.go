// Anti-entropy repair: the periodic loop that converges every durable
// job back to owner + 1 standby copy after any failure sequence. The
// push path (replicateJob) is best-effort; repair is the guarantee.
//
// Each tick does two sweeps:
//
//  1. Local jobs: any job whose last replica push failed, or whose ring
//     successor moved since the push (death, resurrection, adoption),
//     is re-pushed from its durable state.
//  2. Stored replicas: copies the ring no longer assigns here are
//     garbage-collected; copies whose owner died are adopted when the
//     ring assigns them here, or forwarded to the ring's new owner when
//     it does not — so a replica stranded on the "wrong" survivor
//     (pushed while the true successor was presumed dead) still
//     reaches the peer that must adopt it.
package server

import (
	"context"
	"encoding/json"
	"strings"
	"time"
)

// repairLoop runs the anti-entropy sweeps at Options.RepairInterval
// until ctx ends. Started only with both cluster mode and JobsDir.
func (s *Server) repairLoop(ctx context.Context) {
	defer s.loops.Done()
	// Never race the startup recovery scan: adopting or GCing replicas
	// while recover() is mid-listing would double-track jobs.
	select {
	case <-s.jobs.recovered:
	case <-ctx.Done():
		return
	}
	t := time.NewTicker(s.opts.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		s.repairOnce()
	}
}

// repairOnce is one full anti-entropy sweep; tests call it directly to
// step repair deterministically.
func (s *Server) repairOnce() {
	s.cluster.Metrics.RepairRuns.Add(1)
	s.repairLocalJobs()
	s.repairReplicas()
}

// repairLocalJobs re-replicates every local job whose standby copy is
// missing, stale, or misplaced under the current failure view.
func (s *Server) repairLocalJobs() {
	for _, j := range s.jobs.list() {
		target, ok := s.cluster.ReplicaFor(j.id)
		if !ok {
			continue // nobody alive to hold a copy; next tick retries
		}
		j.mu.Lock()
		peer, pushed, active := j.replPeer, j.replOK, j.replActive
		j.mu.Unlock()
		if active {
			continue // a push is in flight; judge its outcome next tick
		}
		if pushed && peer == target {
			continue // converged: live replica on the current successor
		}
		s.cluster.Metrics.RepairPushes.Add(1)
		s.repushJob(j)
	}
}

// repushJob queues a fresh replica frame built from the job's durable
// state: manifest and result from the live job, the resume snapshot from
// the job log's newest record (only meaningful for non-terminal jobs).
func (s *Server) repushJob(j *job) {
	var snap []byte
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state == jobPending || state == jobRunning {
		if rec, err := s.jobs.store.ReadLast(logName(j.id)); err == nil {
			if _, payload, err := decodeRecord(rec); err == nil && len(payload) > 0 {
				snap = payload
			}
		}
	}
	s.replicateJob(j, snap)
}

// repairReplicas walks the replica store and GCs, adopts, or forwards
// each copy according to the current ring and failure view.
func (s *Server) repairReplicas() {
	names, err := s.jobs.replicas.List()
	if err != nil {
		s.logf("cluster: repair: replica scan failed: %v", err)
		return
	}
	for _, name := range names {
		id, ok := strings.CutSuffix(name, ".replica")
		if !ok || !validJobID(id) {
			continue
		}
		if s.jobs.tracked(id) {
			// We own this job now (adoption or a resurrection race);
			// holding our own standby copy protects nothing.
			s.jobs.replicas.Remove(name) //nolint:errcheck
			s.cluster.Metrics.RepairGCs.Add(1)
			continue
		}
		payload, err := s.jobs.replicas.ReadLast(name)
		if err != nil {
			continue
		}
		var rep jobReplica
		if err := json.Unmarshal(payload, &rep); err != nil || !s.cluster.Member(rep.Owner) {
			s.jobs.replicas.Remove(name) //nolint:errcheck // unreadable or foreign: GC
			s.cluster.Metrics.RepairGCs.Add(1)
			continue
		}
		if s.cluster.PeerAlive(rep.Owner) {
			// Owner is fine; keep the copy only if the ring still
			// assigns it here.
			if tgt, ok := s.cluster.ReplicaTargetFor(id, rep.Owner); !ok || tgt != s.cluster.Self() {
				s.jobs.replicas.Remove(name) //nolint:errcheck
				s.cluster.Metrics.RepairGCs.Add(1)
			}
			continue
		}
		// Owner is dead: adopt if the ring assigns the job here ...
		if s.maybeAdoptReplica(id, rep) {
			continue
		}
		// ... otherwise forward the stranded copy to the ring's owner,
		// whose replicate receiver adopts it on arrival. One attempt
		// per tick: the loop itself is the retry.
		target := s.cluster.OwnerOf(id)
		if target == "" || target == s.cluster.Self() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), replicaPushTimeout)
		err = s.postReplica(ctx, target, payload)
		cancel()
		if err != nil {
			s.logf("cluster: repair: forwarding %s to %s failed: %v", id, target, err)
			continue
		}
		s.cluster.Metrics.RepairPushes.Add(1)
		s.jobs.replicas.Remove(name) //nolint:errcheck // forwarded; the new owner holds it
	}
}
