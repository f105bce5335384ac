// Cluster mode: scatter–gather distribution of the heavy endpoints and
// durable-job replication/adoption over a static peer membership.
//
// Any peer can coordinate: the peer that receives /v1/sweep,
// /v1/uncertainty, or /v1/search splits the work into slices (unique-
// design index ranges for grids, SplitMix64 replicate ranges for Monte
// Carlo, design batches for search generations), scatters them over
// POST /v1/internal/slice placed by the consistent-hash ring, and merges
// the gathered results through the exact assembly path a single node
// uses — so the response bytes are identical at any shard count. Every
// distribution failure falls back to local compute: the cluster layer
// can only make requests faster, never wrong or failed.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"accelwall/internal/aladdin"
	"accelwall/internal/cluster"
	"accelwall/internal/core"
	"accelwall/internal/dfg"
	"accelwall/internal/faultinject"
	"accelwall/internal/montecarlo"
	"accelwall/internal/resilience"
	"accelwall/internal/sweep"
)

// Minimum slice widths: below these a range is not worth a network
// round-trip and the coordinator computes locally.
const (
	minSweepSlice       = 16 // unique designs
	minReplicateSlice   = 50 // Monte Carlo replicates
	minSearchSlice      = 8  // search batch designs
	maxInternalSliceMiB = 8  // request-body bound for /v1/internal/slice
)

// clusterEnabled reports whether this server runs with peers.
func (s *Server) clusterEnabled() bool { return s.cluster != nil }

// splitRange divides [0, n) into at most shards contiguous ranges of at
// least minWidth (the last range takes the remainder). A single range
// means "don't scatter".
func splitRange(n, shards, minWidth int) [][2]int {
	if n <= 0 || shards < 1 {
		return nil
	}
	if w := (n + shards - 1) / shards; w < minWidth {
		shards = n / minWidth // floor: never produce slices under minWidth
	}
	if shards < 1 {
		shards = 1
	}
	out := make([][2]int, 0, shards)
	for i := 0; i < shards; i++ {
		lo, hi := i*n/shards, (i+1)*n/shards
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// executeSlice runs one slice on this peer's own engines — the shared
// local half of both roles: the peer side of /v1/internal/slice and the
// coordinator's own share of a scatter.
func (s *Server) executeSlice(ctx context.Context, req *cluster.SliceRequest) (*cluster.SliceResponse, error) {
	switch req.Kind {
	case cluster.KindSweep:
		if req.Grid == nil {
			return nil, fmt.Errorf("sweep slice carries no grid")
		}
		eng, err := s.engine(req.Workload, req.Size)
		if err != nil {
			return nil, err
		}
		results, err := eng.EvaluateRange(ctx, *req.Grid, req.Lo, req.Hi, s.opts.Workers)
		if err != nil {
			return nil, err
		}
		return &cluster.SliceResponse{Kind: req.Kind, Lo: req.Lo, Hi: req.Hi, Results: results}, nil
	case cluster.KindUncertainty:
		if req.MC == nil {
			return nil, fmt.Errorf("uncertainty slice carries no config")
		}
		if req.MC.Replicates > maxServedReplicates {
			return nil, fmt.Errorf("replicates %d exceeds served limit %d", req.MC.Replicates, maxServedReplicates)
		}
		cfg := *req.MC
		cfg.Workers = s.opts.Workers
		// Reject a bad config before paying for the corpus build.
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		e, err := montecarlo.New(cfg.CorpusSeed)
		if err != nil {
			return nil, err
		}
		payload, err := e.RunSlice(ctx, cfg, req.Lo, req.Hi)
		if err != nil {
			return nil, err
		}
		return &cluster.SliceResponse{Kind: req.Kind, Lo: req.Lo, Hi: req.Hi, Payload: payload}, nil
	case cluster.KindSearch:
		if len(req.Designs) == 0 {
			return nil, fmt.Errorf("search slice carries no designs")
		}
		eng, err := s.engine(req.Workload, req.Size)
		if err != nil {
			return nil, err
		}
		results, err := eng.EvaluateBatchContext(ctx, req.Designs, s.opts.Workers)
		if err != nil {
			return nil, err
		}
		return &cluster.SliceResponse{Kind: req.Kind, Lo: req.Lo, Hi: req.Hi, Results: results}, nil
	}
	return nil, fmt.Errorf("unknown slice kind %d", req.Kind)
}

// handleInternalSlice is the peer side of scatter–gather: decode the
// binary frame, run the slice on local engines, encode the results. It
// runs under the same admission queue as the public heavy endpoints, so
// an overloaded peer sheds slices with 429/503 — exactly the signal the
// coordinator's work-stealing reacts to.
func (s *Server) handleInternalSlice(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled() {
		writeError(w, http.StatusNotFound, "cluster mode is disabled: start the server with -peers")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxInternalSliceMiB<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading slice frame: %v", err)
		return
	}
	req, err := cluster.DecodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := faultinject.Hit(cluster.SiteSlice); err != nil {
		// The chaos seam: behave like a shedding peer so coordinator
		// stealing is exercised deterministically in tests.
		writeError(w, http.StatusServiceUnavailable, "injected shed: %v", err)
		return
	}
	s.metrics.ClusterSlicesServed.Add(1)
	resp, err := s.executeSlice(r.Context(), req)
	if err != nil {
		if s.cancelled(w, r, err) {
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(cluster.EncodeResponse(resp)) //nolint:errcheck // client gone
}

// distributeSweep scatters the grid's unique-design list across the
// alive membership and primes the engine's memo table with the gathered
// results, leaving RunContext a fully warm assembly. Returns nil when
// there is nothing to scatter; any failure is returned for the caller to
// log and fall back to local compute.
func (s *Server) distributeSweep(ctx context.Context, eng *sweep.Engine, workload string, size int, grid sweep.Params) error {
	uniques, err := eng.UniqueDesigns(grid)
	if err != nil {
		return err
	}
	if len(eng.MissingFrom(uniques)) == 0 {
		return nil // fully warm: nothing worth scattering
	}
	ranges := splitRange(len(uniques), len(s.cluster.Alive()), minSweepSlice)
	if len(ranges) <= 1 {
		return nil // one slice: the local compute path is strictly better
	}
	reqs := make([]*cluster.SliceRequest, len(ranges))
	for i, rg := range ranges {
		g := grid
		reqs[i] = &cluster.SliceRequest{
			Kind: cluster.KindSweep, Lo: rg[0], Hi: rg[1],
			Workload: workload, Size: size, Grid: &g,
		}
	}
	resps, err := s.cluster.Scatter(ctx, engineKey(workload, size), reqs, s.executeSlice)
	if err != nil {
		return err
	}
	for i, resp := range resps {
		if resp.Lo != ranges[i][0] || resp.Hi != ranges[i][1] || len(resp.Results) != resp.Hi-resp.Lo {
			return fmt.Errorf("slice %d answered range [%d, %d) with %d results, want [%d, %d)",
				i, resp.Lo, resp.Hi, len(resp.Results), ranges[i][0], ranges[i][1])
		}
		if err := eng.Prime(uniques[resp.Lo:resp.Hi], resp.Results); err != nil {
			return err
		}
	}
	return nil
}

// distributeUncertainty scatters the replicate range of a Monte Carlo
// run and merges the slices into a result bit-identical to a local run.
func (s *Server) distributeUncertainty(ctx context.Context, cfg montecarlo.Config) (core.UncertaintyJSON, bool, error) {
	ranges := splitRange(cfg.Replicates, len(s.cluster.Alive()), minReplicateSlice)
	if len(ranges) <= 1 {
		return core.UncertaintyJSON{}, false, nil
	}
	reqs := make([]*cluster.SliceRequest, len(ranges))
	for i, rg := range ranges {
		mc := cfg
		mc.Workers = 0
		reqs[i] = &cluster.SliceRequest{Kind: cluster.KindUncertainty, Lo: rg[0], Hi: rg[1], MC: &mc}
	}
	key := fmt.Sprintf("mc:%d:%d:%d", cfg.Seed, cfg.CorpusSeed, cfg.Replicates)
	resps, err := s.cluster.Scatter(ctx, key, reqs, s.executeSlice)
	if err != nil {
		return core.UncertaintyJSON{}, true, err
	}
	payloads := make([][]byte, len(resps))
	for i, resp := range resps {
		payloads[i] = resp.Payload
	}
	// cfg passed the request check, so the engine build below is never
	// spent on a config MergeSlices would reject.
	e, err := montecarlo.New(cfg.CorpusSeed)
	if err != nil {
		return core.UncertaintyJSON{}, true, err
	}
	res, err := e.MergeSlices(cfg, payloads)
	if err != nil {
		return core.UncertaintyJSON{}, true, err
	}
	return core.NewUncertaintyJSON(res), true, nil
}

// distEvaluator wraps the local sweep engine as a search.Evaluator whose
// batch evaluation scatters across the cluster. All selection logic (and
// the final in-order assembly, via the local engine's memo table) stays
// on the coordinator, so the search trajectory is bit-identical to a
// single-node run; only the simulations travel.
type distEvaluator struct {
	s        *Server
	eng      *sweep.Engine
	workload string
	size     int
}

func (d *distEvaluator) Name() string                              { return d.eng.Name() }
func (d *distEvaluator) Stats() dfg.Stats                          { return d.eng.Stats() }
func (d *distEvaluator) Normalize(a aladdin.Design) aladdin.Design { return d.eng.Normalize(a) }

func (d *distEvaluator) EvaluateBatchContext(ctx context.Context, designs []aladdin.Design, workers int) ([]aladdin.Result, error) {
	missing := d.eng.MissingFrom(designs)
	ranges := splitRange(len(missing), len(d.s.cluster.Alive()), minSearchSlice)
	if len(ranges) > 1 {
		reqs := make([]*cluster.SliceRequest, len(ranges))
		for i, rg := range ranges {
			reqs[i] = &cluster.SliceRequest{
				Kind: cluster.KindSearch, Lo: rg[0], Hi: rg[1],
				Workload: d.workload, Size: d.size, Designs: missing[rg[0]:rg[1]],
			}
		}
		resps, err := d.s.cluster.Scatter(ctx, engineKey(d.workload, d.size), reqs, d.s.executeSlice)
		if err != nil {
			// Fall through: the local batch evaluation below computes
			// whatever the scatter failed to deliver.
			d.s.logf("cluster: search batch scatter failed, computing locally: %v", err)
		} else {
			for i, resp := range resps {
				if len(resp.Results) != ranges[i][1]-ranges[i][0] {
					return nil, fmt.Errorf("search slice %d returned %d results, want %d",
						i, len(resp.Results), ranges[i][1]-ranges[i][0])
				}
				if err := d.eng.Prime(missing[ranges[i][0]:ranges[i][1]], resp.Results); err != nil {
					return nil, err
				}
			}
		}
	}
	return d.eng.EvaluateBatchContext(ctx, designs, workers)
}

// --- durable-job replication and adoption -------------------------------

// jobReplica is the JSON body of POST /v1/internal/jobs/replicate: one
// job's full durable state, pushed by its owner to its ring successor on
// every transition and snapshot. Snapshot travels base64 (encoding/json
// []byte convention).
type jobReplica struct {
	Owner    string          `json:"owner"`
	Manifest json.RawMessage `json:"manifest"`
	Snapshot []byte          `json:"snapshot,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// validJobID rejects ids that could escape the replica store's directory
// or collide with store suffixes.
func validJobID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

// replicaPushTimeout bounds one push attempt; replicaPushBudget bounds
// the whole retried push. Both are short of the probe-death window on
// purpose: a hung successor (e.g. SIGSTOP) fails the push before the
// failure detector moves the target, and the repair loop converges the
// replica once the ring settles.
const (
	replicaPushTimeout = 5 * time.Second
	replicaPushBudget  = 30 * time.Second
)

// replRetry is the bounded-retry schedule of one replica push.
var replRetry = resilience.Policy{Attempts: 3, Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: 1}

// replicateJob queues the job's current durable state for push to its
// ring successor. Pushes are asynchronous and never fail the job — the
// single-node durability story is unchanged — but unlike the
// fire-and-forget original they are retried with deterministic backoff,
// their outcome is tracked per job (so the anti-entropy repair loop can
// re-push after a failure or a successor change), and exhausted retries
// count in cluster.Metrics.ReplicaPushFails. A single worker goroutine
// per job drains the newest queued frame, so rapid snapshots coalesce
// and an old frame can never overwrite a newer one on the receiver.
func (s *Server) replicateJob(j *job, snapshot []byte) {
	if !s.clusterEnabled() || s.jobs == nil {
		return
	}
	peer, ok := s.cluster.ReplicaFor(j.id)
	if !ok {
		// Nobody alive to hold a copy; the repair loop re-replicates
		// when a peer comes back.
		j.mu.Lock()
		j.replOK = false
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	state, errMsg, result := j.state, j.errMsg, j.result
	j.mu.Unlock()
	manifest, err := j.manifest(state, errMsg)
	if err != nil {
		s.logf("cluster: jobs: %s: replica manifest marshal failed: %v", j.id, err)
		return
	}
	body, err := json.Marshal(jobReplica{Owner: s.cluster.Self(), Manifest: manifest, Snapshot: snapshot, Result: result})
	if err != nil {
		return
	}
	j.mu.Lock()
	j.replBody, j.replWant = body, peer
	if j.replActive {
		j.mu.Unlock()
		return
	}
	j.replActive = true
	j.mu.Unlock()
	s.jobs.pushes.Add(1)
	go s.replicaWorker(j)
}

// replicaWorker drains a job's queued replica frames latest-wins.
func (s *Server) replicaWorker(j *job) {
	defer s.jobs.pushes.Done()
	for {
		j.mu.Lock()
		body, peer := j.replBody, j.replWant
		j.replBody = nil
		if body == nil {
			j.replActive = false
			j.mu.Unlock()
			return
		}
		j.mu.Unlock()
		err := s.pushReplicaFrame(j.id, peer, body)
		j.mu.Lock()
		j.replPeer, j.replOK = peer, err == nil
		j.mu.Unlock()
		if err != nil {
			s.cluster.Metrics.ReplicaPushFails.Add(1)
			s.logf("cluster: jobs: %s: replication to %s failed: %v", j.id, peer, err)
		}
	}
}

// pushReplicaFrame delivers one replica frame with bounded retries, until
// a drain has waited out the queued pushes and cancels jobs.pushCtx.
func (s *Server) pushReplicaFrame(id, peer string, body []byte) error {
	ctx, cancel := context.WithTimeout(s.jobs.pushCtx, replicaPushBudget)
	defer cancel()
	return replRetry.Do(ctx, id, func(ctx context.Context) error {
		op := faultinject.Transport(cluster.SiteTransportReplicate, s.cluster.Self()+"->"+peer)
		if op.Delay > 0 {
			time.Sleep(op.Delay)
		}
		if op.Drop {
			return fmt.Errorf("%w: replica %s -> %s", faultinject.ErrPartitioned, id, peer)
		}
		if op.Duplicate {
			s.postReplica(ctx, peer, body) //nolint:errcheck // duplicate delivery
		}
		return s.postReplica(ctx, peer, body)
	})
}

// postReplica is the raw HTTP replica push. A 4xx answer is permanent:
// the peer understood the frame and rejected it, so retrying the same
// bytes cannot help.
func (s *Server) postReplica(ctx context.Context, peer string, body []byte) error {
	ctx, cancel := context.WithTimeout(ctx, replicaPushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		peer+"/v1/internal/jobs/replicate", bytes.NewReader(body))
	if err != nil {
		return resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return resilience.Permanent(fmt.Errorf("peer %s rejected replica: %d", peer, resp.StatusCode))
	default:
		return fmt.Errorf("peer %s answered %d", peer, resp.StatusCode)
	}
}

// handleJobReplicate is the receiving side: persist the pushed replica
// in the replica store, dormant until its owner dies. A replica whose
// owner is already dead (the repair loop forwarding a stranded copy to
// the ring's new owner) is adopted immediately.
func (s *Server) handleJobReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled() || s.jobs == nil || s.jobs.replicas == nil {
		writeError(w, http.StatusNotFound, "job replication is disabled")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxInternalSliceMiB<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading replica: %v", err)
		return
	}
	var rep jobReplica
	if err := json.Unmarshal(body, &rep); err != nil {
		writeError(w, http.StatusBadRequest, "malformed replica: %v", err)
		return
	}
	var m jobManifest
	if err := json.Unmarshal(rep.Manifest, &m); err != nil || !validJobID(m.ID) {
		writeError(w, http.StatusBadRequest, "malformed replica manifest")
		return
	}
	if !s.cluster.Member(rep.Owner) {
		writeError(w, http.StatusBadRequest, "replica owner %q is not a cluster member", rep.Owner)
		return
	}
	if s.jobs.tracked(m.ID) {
		// Already ours (typically: the owner died, we adopted, and a
		// stranded copy is being forwarded). Acknowledge so the sender
		// drops its copy; persisting would only create GC work.
		writeJSON(w, http.StatusOK, map[string]string{"status": "already-tracked"})
		return
	}
	if err := s.jobs.replicas.Write(m.ID+".replica", body); err != nil {
		writeError(w, http.StatusInternalServerError, "persisting replica: %v", err)
		return
	}
	s.maybeAdoptReplica(m.ID, rep)
	writeJSON(w, http.StatusOK, map[string]string{"status": "replicated"})
}

// maybeAdoptReplica adopts a stored replica when its owner is dead and
// the ring assigns the job to this peer; reports whether it adopted.
// The shared endgame of the OnDeath hook, the replicate receiver, and
// the repair loop — and the satellite fix for adopted jobs: adoption
// immediately pushes the job's state onward to the adopter's own ring
// successor, so the adopted job is never left with zero standby copies.
func (s *Server) maybeAdoptReplica(id string, rep jobReplica) bool {
	if s.cluster.PeerAlive(rep.Owner) || s.cluster.OwnerOf(id) != s.cluster.Self() {
		return false
	}
	// The failure view lags: an owner that restarted or only lost its
	// probes answers for the job it runs, which adopting would run twice.
	if _, running := s.fetchJob(context.Background(), rep.Owner, id); running {
		return false
	}
	j := s.jobs.adopt(id, rep)
	if j == nil {
		return false
	}
	s.jobs.replicas.Remove(id + ".replica") //nolint:errcheck // adopted; replica no longer needed
	s.metrics.ClusterJobsAdopted.Add(1)
	s.cluster.Metrics.Adopted.Add(1)
	s.logf("cluster: jobs: adopted %s from dead peer %s", id, rep.Owner)
	s.replicateJob(j, rep.Snapshot)
	return true
}

// handleInternalJobGet is the proxy target for cross-peer job lookups:
// strictly local, so two peers can never proxy in a cycle.
func (s *Server) handleInternalJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "async jobs are disabled")
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.json(true))
}

// remoteJob asks every other alive peer for the job and returns the
// first hit's view; ok is false when nobody tracks it.
func (s *Server) remoteJob(ctx context.Context, id string) (body []byte, ok bool) {
	if !s.clusterEnabled() || !validJobID(id) {
		return nil, false
	}
	for _, peer := range s.cluster.Alive() {
		if peer == s.cluster.Self() {
			continue
		}
		if body, ok := s.fetchJob(ctx, peer, id); ok {
			return body, true
		}
	}
	return nil, false
}

// fetchJob is one peer's strictly local view of the job.
func (s *Server) fetchJob(ctx context.Context, peer, id string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/internal/jobs/"+id, nil)
	if err != nil {
		return nil, false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxInternalSliceMiB<<20))
	return body, err == nil && resp.StatusCode == http.StatusOK
}

// adoptFrom is the OnDeath hook: scan the replica store for jobs owned
// by the dead peer that the ring now assigns to this survivor, and adopt
// them — terminal jobs re-listed with their result, interrupted ones
// re-run from their last replicated snapshot.
func (s *Server) adoptFrom(dead string) {
	if s.jobs == nil || s.jobs.replicas == nil {
		return
	}
	names, err := s.jobs.replicas.List()
	if err != nil {
		s.logf("cluster: jobs: replica scan failed: %v", err)
		return
	}
	for _, name := range names {
		id, ok := strings.CutSuffix(name, ".replica")
		if !ok {
			continue
		}
		payload, err := s.jobs.replicas.ReadLast(name)
		if err != nil {
			continue
		}
		var rep jobReplica
		if err := json.Unmarshal(payload, &rep); err != nil || rep.Owner != dead {
			continue
		}
		// Only the ring's new owner among the survivors adopts; the other
		// replicas stay dormant until the repair loop forwards or GCs
		// them.
		s.maybeAdoptReplica(id, rep)
	}
}
