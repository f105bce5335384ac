package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"accelwall/internal/checkpoint"
	"accelwall/internal/core"
	"accelwall/internal/montecarlo"
)

// maxServedReplicates bounds a single /v1/uncertainty request: Monte Carlo
// cost is linear in replicates and each run holds a worker pool for its
// duration, so the daemon refuses open-ended work the CLI would accept.
const maxServedReplicates = 10000

// uncertaintyRequest is the POST /v1/uncertainty body (and the uncertainty
// job body). Every field is optional; zero values select the montecarlo
// defaults (200 replicates, seed 1, 90% bands, 10x gain target, 2% CMOS
// jitter).
type uncertaintyRequest struct {
	Replicates int     `json:"replicates,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	CorpusSeed int64   `json:"corpus_seed,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	GainTarget float64 `json:"gain_target,omitempty"`
	CMOSJitter float64 `json:"cmos_jitter,omitempty"`
	Workers    int     `json:"workers,omitempty"`
}

// config maps the wire body onto the engine configuration.
func (r *uncertaintyRequest) config() montecarlo.Config {
	return montecarlo.Config{
		Replicates: r.Replicates,
		Seed:       r.Seed,
		CorpusSeed: r.CorpusSeed,
		Confidence: r.Confidence,
		GainTarget: r.GainTarget,
		CMOSJitter: r.CMOSJitter,
		Workers:    r.Workers,
	}
}

func (r *uncertaintyRequest) resolve() error {
	if err := r.validate(); err != nil {
		return err
	}
	if r.Replicates > maxServedReplicates {
		return fmt.Errorf("replicates %d exceeds served limit %d", r.Replicates, maxServedReplicates)
	}
	return r.config().Validate()
}

// check: the replicate limit is a constant, so resolve holds it.
func (r *uncertaintyRequest) check(*Server, bool) error { return r.resolve() }

// serve computes Monte Carlo confidence bands over the full
// accelerator-wall pipeline. Results are memoized on the normalized
// configuration (worker count excluded — it never changes output), so
// repeated dashboards hit the cache instead of re-running replicates.
func (r *uncertaintyRequest) serve(s *Server, w http.ResponseWriter, req *http.Request) {
	key := r.config().Normalized()
	workers := s.poolWidth(r.Workers)
	out, err := s.uncertainty.get(req.Context(), key, func(runCtx context.Context) (core.UncertaintyJSON, error) {
		// Cluster mode: scatter the replicate range; the merged result is
		// bit-identical to a local run, so a scatter failure just falls
		// back to computing every replicate here.
		if s.clusterEnabled() {
			if res, distributed, derr := s.distributeUncertainty(runCtx, key); distributed {
				if derr == nil {
					return res, nil
				}
				if runCtx.Err() != nil {
					return core.UncertaintyJSON{}, derr
				}
				s.logf("cluster: uncertainty scatter failed, computing locally: %v", derr)
			}
		}
		return localUncertaintyRun(key, workers)(runCtx)
	})
	if err != nil {
		if s.cancelled(w, req, err) {
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// localUncertaintyRun is the plain single-node Monte Carlo load for the
// uncertainty memo: the normalized key on this process's own pool, on an
// engine built per memo miss.
func localUncertaintyRun(key montecarlo.Config, workers int) func(context.Context) (core.UncertaintyJSON, error) {
	return func(ctx context.Context) (core.UncertaintyJSON, error) {
		run := key
		run.Workers = workers
		res, err := montecarlo.RunCheckpointed(ctx, run, nil)
		if err != nil {
			return core.UncertaintyJSON{}, err
		}
		return core.NewUncertaintyJSON(res), nil
	}
}

func (r *uncertaintyRequest) runJob(ctx context.Context, s *Server, ck *checkpoint.Options) (json.RawMessage, int, error) {
	cfg := r.config()
	cfg.Workers = s.poolWidth(r.Workers)
	res, err := montecarlo.RunCheckpointed(ctx, cfg, ck)
	if err != nil {
		return nil, 0, err
	}
	payload, err := json.Marshal(core.NewUncertaintyJSON(res))
	return payload, res.Resumed, err
}

func (r *uncertaintyRequest) progress(snapshot []byte) (int, int, error) {
	return montecarlo.SnapshotProgress(snapshot)
}

// units is the run's replicate count, known from the body alone.
func (r *uncertaintyRequest) units() (int, int) {
	n := r.config().Normalized().Replicates
	return n, n
}
