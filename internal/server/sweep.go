package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"accelwall/internal/checkpoint"
	"accelwall/internal/core"
	"accelwall/internal/sweep"
)

// gridJSON describes a sweep grid intensionally.
type gridJSON struct {
	Nodes           []float64 `json:"nodes"`
	Partitions      []int     `json:"partitions"`
	Simplifications []int     `json:"simplifications"`
	Fusion          []bool    `json:"fusion"`
}

func (g gridJSON) params() sweep.Params {
	return sweep.Params{
		Nodes:           g.Nodes,
		Partitions:      g.Partitions,
		Simplifications: g.Simplifications,
		Fusion:          g.Fusion,
	}
}

// sweepRequest is the body of POST /v1/sweep (and the sweep job body).
// Exactly one of Designs (evaluate these points) or Grid (sweep this
// grid) must be set; the string presets "reduced" and "full" select the
// Table III grids. Jobs take grids only.
type sweepRequest struct {
	Workload      string            `json:"workload"`
	Size          int               `json:"size"`
	Objective     string            `json:"objective"`
	Designs       []core.DesignJSON `json:"designs"`
	Grid          *gridJSON         `json:"grid"`
	Preset        string            `json:"preset"` // "" | reduced | full
	Workers       int               `json:"workers"`
	IncludePoints bool              `json:"include_points"`

	// Resolved by resolve: the parsed objective and the grid (nil for a
	// design list).
	objective sweep.Objective
	grid      *sweep.Params
}

// gridParams resolves the request's grid/preset fields onto sweep
// parameters: (nil, nil) when neither is set.
func (r *sweepRequest) gridParams() (*sweep.Params, error) {
	switch {
	case r.Grid != nil && r.Preset != "":
		return nil, errors.New("grid and preset are mutually exclusive")
	case r.Grid != nil:
		p := r.Grid.params()
		return &p, nil
	case r.Preset == "reduced":
		p := sweep.Reduced()
		return &p, nil
	case r.Preset == "full":
		p := sweep.Default()
		return &p, nil
	case r.Preset != "":
		return nil, fmt.Errorf("unknown preset %q (want reduced or full)", r.Preset)
	}
	return nil, nil
}

// gridPoints is the grid's design-point count.
func gridPoints(p sweep.Params) int {
	return len(p.Nodes) * len(p.Partitions) * len(p.Simplifications) * len(p.Fusion)
}

// resolve validates the body's fields and derives the objective and grid.
func (r *sweepRequest) resolve() error {
	if r.Workload == "" {
		return errors.New("missing workload")
	}
	if err := r.validate(); err != nil {
		return err
	}
	var err error
	if r.objective, err = core.ParseObjective(r.Objective); err != nil {
		return err
	}
	r.grid, err = r.gridParams()
	return err
}

func (r *sweepRequest) check(s *Server, job bool) error {
	if err := r.resolve(); err != nil {
		return err
	}
	switch {
	case job && len(r.Designs) > 0:
		return errors.New("sweep jobs take a grid or preset; evaluate design lists with POST /v1/sweep")
	case r.grid == nil && len(r.Designs) == 0:
		return errors.New("provide designs, a grid, or a preset")
	case r.grid != nil && len(r.Designs) > 0:
		return errors.New("designs and grid/preset are mutually exclusive")
	case len(r.Designs) > s.opts.MaxGridPoints:
		return fmt.Errorf("design list has %d points, limit %d", len(r.Designs), s.opts.MaxGridPoints)
	}
	if r.grid != nil {
		if err := r.grid.Validate(); err != nil {
			return err
		}
		if n := gridPoints(*r.grid); n > s.opts.MaxGridPoints {
			return fmt.Errorf("grid has %d points, limit %d", n, s.opts.MaxGridPoints)
		}
	}
	for i, d := range r.Designs {
		if err := d.Design().Validate(); err != nil {
			return badField(fmt.Sprintf("designs[%d]", i), "%v", err)
		}
	}
	return jobWorkload(job, r.Workload)
}

// respKey is the response-cache key of a grid sweep.
func (r *sweepRequest) respKey() respKey {
	return respKey{
		engine:    engineKey(r.Workload, r.Size),
		objective: core.ObjectiveName(r.objective),
		points:    r.IncludePoints,
		grid:      gridFingerprint(*r.grid),
	}
}

// run evaluates the request on eng: the grid (durable through ck) or the
// design list.
func (r *sweepRequest) run(ctx context.Context, eng *sweep.Engine, workers int, ck *checkpoint.Options) ([]sweep.Point, int, error) {
	if r.grid != nil {
		return eng.RunCheckpointed(ctx, *r.grid, workers, ck)
	}
	points := make([]sweep.Point, 0, len(r.Designs))
	for _, dj := range r.Designs {
		d := dj.Design()
		res, err := eng.EvaluateContext(ctx, d)
		if err != nil {
			return nil, 0, err
		}
		points = append(points, sweep.Point{Design: d, Result: res})
	}
	return points, 0, nil
}

// sweepResponse is the /v1/sweep payload.
type sweepResponse struct {
	Workload  string                   `json:"workload"`
	Objective string                   `json:"objective"`
	Evaluated int                      `json:"evaluated"`
	Cached    int                      `json:"cached_points"`
	Points    []core.SweepPointJSON    `json:"points,omitempty"`
	Best      *core.SweepPointJSON     `json:"best,omitempty"`
	Frontier  []core.FrontierPointJSON `json:"frontier,omitempty"`
}

// response renders evaluated points; cached is the engine's memo size
// (a job reports 0).
func (r *sweepRequest) response(points []sweep.Point, cached int) sweepResponse {
	resp := sweepResponse{Workload: r.Workload, Objective: core.ObjectiveName(r.objective), Evaluated: len(points), Cached: cached}
	if best, err := sweep.Best(points, r.objective); err == nil {
		bj := core.NewSweepPointJSON(best)
		resp.Best = &bj
	}
	resp.Frontier = core.NewFrontierJSON(sweep.DesignFrontier(points))
	if r.IncludePoints || r.grid == nil {
		resp.Points = make([]core.SweepPointJSON, 0, len(points))
		for _, p := range points {
			resp.Points = append(resp.Points, core.NewSweepPointJSON(p))
		}
	}
	return resp
}

// serve evaluates single design points or a grid on the workload's
// cached engine. Concurrent identical requests share one compilation (the
// engine cache deduplicates) and one memo table (the engine itself).
func (r *sweepRequest) serve(s *Server, w http.ResponseWriter, req *http.Request) {
	eng, err := s.engine(r.Workload, r.Size)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Grid sweeps are deterministic in everything but pool width, so the
	// warm path serves the marshaled body straight from the response cache
	// — after the engine lookup, which keeps the engine-cache telemetry
	// (and residency) identical whether or not the body was cached.
	var rkey respKey
	if r.grid != nil {
		rkey = r.respKey()
		if body, ok := s.responses.peek(rkey); ok {
			s.metrics.SweepRespHits.Add(1)
			writeJSONBytes(w, http.StatusOK, body)
			return
		}
		s.metrics.SweepRespMisses.Add(1)
		// Cluster mode: scatter the grid's cold design points across the
		// membership, priming the engine's memo table; the assembly below
		// is then a fully warm walk, byte-identical to a single-node run.
		// A scatter failure only logs — the local path computes the same
		// bytes.
		if s.clusterEnabled() {
			if derr := s.distributeSweep(req.Context(), eng, r.Workload, r.Size, *r.grid); derr != nil && req.Context().Err() == nil {
				s.logf("cluster: sweep scatter failed, computing locally: %v", derr)
			}
		}
	}
	points, _, err := r.run(req.Context(), eng, s.poolWidth(r.Workers), nil)
	if err != nil {
		if s.cancelled(w, req, err) {
			return
		}
		// check validated every design and the grid: a failure is ours.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp := r.response(points, eng.CachedPoints())
	if r.grid != nil {
		if body, err := marshalJSONBody(resp); err == nil {
			if len(body) <= maxCachedRespBytes {
				s.responses.put(rkey, body)
			}
			writeJSONBytes(w, http.StatusOK, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *sweepRequest) runJob(ctx context.Context, s *Server, ck *checkpoint.Options) (json.RawMessage, int, error) {
	eng, err := s.jobEngine(r.Workload, r.Size)
	if err != nil {
		return nil, 0, err
	}
	points, resumed, err := r.run(ctx, eng, s.poolWidth(r.Workers), ck)
	if err != nil {
		return nil, 0, err
	}
	payload, err := json.Marshal(r.response(points, 0))
	return payload, resumed, err
}

func (r *sweepRequest) progress(snapshot []byte) (int, int, error) {
	return sweep.SnapshotProgress(snapshot)
}

// units: a sweep's unique-design count is known only once its engine
// compiles (the first snapshot reports it); a finished sweep counts the
// points it evaluated.
func (r *sweepRequest) units() (int, int) {
	if r.grid == nil {
		return 0, len(r.Designs)
	}
	return 0, gridPoints(*r.grid)
}
