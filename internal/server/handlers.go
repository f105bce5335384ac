package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"

	"accelwall/internal/casestudy"
	"accelwall/internal/cmos"
	"accelwall/internal/core"
	"accelwall/internal/csr"
	"accelwall/internal/gains"
	"accelwall/internal/montecarlo"
	"accelwall/internal/projection"
	"accelwall/internal/resources"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// cancelled maps a compute-path error onto the cancellation statuses,
// recording the per-route cancel metric; it reports false for ordinary
// errors so the caller falls through to its own status.
func (s *Server) cancelled(w http.ResponseWriter, r *http.Request, err error) bool {
	switch {
	case errors.Is(err, context.Canceled):
		s.metrics.Cancel(routeOf(r.Context()))
		writeError(w, statusClientClosedRequest, "request cancelled before the computation finished")
		return true
	case errors.Is(err, context.DeadlineExceeded):
		// The timeout handler has already written its 503 envelope; this
		// write is discarded, but the metric records why the work stopped.
		s.metrics.Cancel(routeOf(r.Context()))
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded during computation")
		return true
	}
	return false
}

// handleHealthz is the liveness probe: cheap, unthrottled, no model state.
// It answers "is the process up", nothing more — orchestrators restart on
// its failure, so it must never depend on recoverable state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: "should this process receive
// traffic". It goes 503 while persisted jobs are still being recovered
// (the job list would be partial) and again once a drain has begun, so
// load balancers stop routing before the listener disappears.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: shutting down")
		return
	}
	if s.jobs != nil && !s.jobs.ready() {
		writeError(w, http.StatusServiceUnavailable, "recovering persisted jobs")
		return
	}
	// Degraded-disk durability stays 200: the process serves and computes
	// correctly, it merely runs without crash-durability until the disk
	// heals, and restarting it (what a failing readyz invites) would LOSE
	// the in-memory snapshots a healthy restart preserves.
	if s.jobs != nil && s.jobs.store.Degraded() {
		writeJSON(w, http.StatusOK, map[string]string{
			"status":   "ready",
			"degraded": "disk",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the operational counters, plus a per-resident-
// engine block: each cached engine's schedule-reuse counters and memoized
// design-point count, keyed by "workload@size".
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	engines := make(map[string]any)
	s.engines.each(func(key string, eng *sweep.Engine) {
		walks, hits := eng.ScheduleCacheStats()
		engines[key] = map[string]any{
			"schedule_walks": walks,
			"schedule_hits":  hits,
			"cached_points":  eng.CachedPoints(),
		}
	})
	snap["engines"] = engines
	snap["resources"] = s.resourcesSnapshot()
	if s.cluster != nil {
		cl := s.cluster.Metrics.Snapshot(s.cluster)
		cl["slices_served"] = s.metrics.ClusterSlicesServed.Value()
		snap["cluster"] = cl
	}
	if s.tenants != nil {
		snap["tenants"] = map[string]any{
			"rejected":   s.metrics.TenantRejected.Value(),
			"per_tenant": s.tenants.snapshot(),
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCMOS serves the node-scaling model: every modeled node, or one
// (possibly interpolated) node via ?node=7.5.
func (s *Server) handleCMOS(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query().Get("node"); q != "" {
		nm, err := strconv.ParseFloat(q, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad node %q: %v", q, err)
			return
		}
		n, err := cmos.Lookup(nm)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, core.NewCMOSNodeJSON(n))
		return
	}
	nodes := cmos.Nodes()
	out := make([]core.CMOSNodeJSON, 0, len(nodes))
	for _, nm := range nodes {
		n, err := cmos.Lookup(nm)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		out = append(out, core.NewCMOSNodeJSON(n))
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": out})
}

// chipJSON is the wire form of a gains.Config.
type chipJSON struct {
	NodeNM  float64 `json:"node_nm"`
	DieMM2  float64 `json:"die_mm2"`
	TDPW    float64 `json:"tdp_w"`
	FreqGHz float64 `json:"freq_ghz"`
}

func (c chipJSON) config() gains.Config {
	return gains.Config{NodeNM: c.NodeNM, DieMM2: c.DieMM2, TDPW: c.TDPW, FreqGHz: c.FreqGHz}
}

// csrRequest is the body of POST /v1/csr: a series of chip observations to
// decompose against a baseline under the CMOS potential model (Equation 1
// in ratio form).
type csrRequest struct {
	Target        string `json:"target"` // performance | efficiency
	Model         string `json:"model"`  // cmos (default) | device
	Published     bool   `json:"published"`
	Seed          int64  `json:"seed"`
	BaselineIndex int    `json:"baseline_index"`
	Observations  []struct {
		Name string   `json:"name"`
		Gain float64  `json:"gain"`
		Year float64  `json:"year"`
		Chip chipJSON `json:"chip"`
	} `json:"observations"`
}

// handleCSR decomposes arbitrary chip observations into reported gain,
// physical (CMOS-driven) gain, and specialization return.
func (s *Server) handleCSR(w http.ResponseWriter, r *http.Request) {
	var req csrRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	target, err := core.ParseTarget(req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, "no observations")
		return
	}
	var model csr.Physical
	switch req.Model {
	case "", "cmos":
		study, err := s.study(req.Published, req.Seed)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "fitting study: %v", err)
			return
		}
		model = study.Gains
	case "device":
		model = casestudy.DevicePotential{}
	default:
		writeError(w, http.StatusBadRequest, "unknown model %q (want cmos or device)", req.Model)
		return
	}
	obs := make([]csr.Observation, 0, len(req.Observations))
	for _, o := range req.Observations {
		obs = append(obs, csr.Observation{Name: o.Name, Gain: o.Gain, Year: o.Year, Chip: o.Chip.config()})
	}
	rows, err := csr.Analyze(model, target, obs, req.BaselineIndex)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"target": core.TargetName(target),
		"rows":   core.NewCSRRows(rows),
	})
}

// handleProjection serves the accelerator-wall projections of Figures 15
// and 16, optionally filtered by ?target=.
func (s *Server) handleProjection(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("target")
	var runs []func() ([]projection.Projection, error)
	switch q {
	case "":
		runs = []func() ([]projection.Projection, error){projection.Fig15, projection.Fig16}
	default:
		target, err := core.ParseTarget(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if target == gains.TargetEfficiency {
			runs = []func() ([]projection.Projection, error){projection.Fig16}
		} else {
			runs = []func() ([]projection.Projection, error){projection.Fig15}
		}
	}
	var out []core.ProjectionJSON
	for _, run := range runs {
		projs, err := run()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		for _, p := range projs {
			out = append(out, core.NewProjectionJSON(p))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"projections": out})
}

// handleCaseStudy serves one Section IV case-study summary.
func (s *Server) handleCaseStudy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cs, err := core.CaseStudy(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, cs)
}

// handleExperiments lists every experiment id the daemon can run.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Kind  string `json:"kind"`
	}
	var out []row
	for _, e := range core.Experiments() {
		out = append(out, row{ID: e.ID, Title: e.Title, Kind: "paper"})
	}
	for _, e := range core.Extensions() {
		out = append(out, row{ID: e.ID, Title: e.Title, Kind: "extension"})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// handleExperiment runs one experiment against the daemon's default study
// and returns its machine-readable payload.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	study, err := s.study(s.opts.Published, s.opts.Seed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "fitting study: %v", err)
		return
	}
	out, err := study.ExperimentJSON(id)
	if err != nil {
		status := http.StatusInternalServerError
		if _, lookupErr := core.ExperimentByID(id); lookupErr != nil {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleWorkloads lists the kernels /v1/sweep accepts, across the three
// registries.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Domain string `json:"domain,omitempty"`
		Full   string `json:"full_name,omitempty"`
	}
	var out []row
	for _, spec := range workloads.TableIV() {
		out = append(out, row{Name: spec.Abbrev, Kind: "table4", Domain: spec.Domain, Full: spec.Name})
	}
	for _, spec := range workloads.All()[len(workloads.TableIV()):] {
		out = append(out, row{Name: spec.Abbrev, Kind: "dnn", Domain: spec.Domain, Full: spec.Name})
	}
	for _, v := range workloads.Variants() {
		out = append(out, row{Name: v.Base + "/" + v.Name, Kind: "variant", Full: v.Effect})
	}
	for _, k := range workloads.DomainKernels() {
		out = append(out, row{Name: k.Name, Kind: "domain", Domain: k.Domain})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

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

// sweepRequest is the body of POST /v1/sweep. Exactly one of Designs
// (evaluate these points) or Grid (sweep this grid) must be set; the
// string presets "reduced" and "full" select the Table III grids.
type sweepRequest struct {
	Workload      string            `json:"workload"`
	Size          int               `json:"size"`
	Objective     string            `json:"objective"`
	Designs       []core.DesignJSON `json:"designs"`
	Grid          *gridJSON         `json:"grid"`
	Preset        string            `json:"preset"` // "" | reduced | full
	Workers       int               `json:"workers"`
	IncludePoints bool              `json:"include_points"`
}

// gridParams resolves the request's grid/preset fields onto sweep
// parameters: (nil, nil) when neither is set. Shared by the synchronous
// handler and the job runner so both reject the same bodies.
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

// handleSweep evaluates single design points or a grid on the workload's
// cached engine. Concurrent identical requests share one compilation (the
// engine cache deduplicates) and one memo table (the engine itself).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, "missing workload")
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	objective, err := core.ParseObjective(req.Objective)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	grid, err := req.gridParams()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if grid == nil && len(req.Designs) == 0 {
		writeError(w, http.StatusBadRequest, "provide designs, a grid, or a preset")
		return
	}
	if grid != nil && len(req.Designs) > 0 {
		writeError(w, http.StatusBadRequest, "designs and grid/preset are mutually exclusive")
		return
	}
	if grid != nil {
		if err := grid.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if n := len(grid.Nodes) * len(grid.Partitions) * len(grid.Simplifications) * len(grid.Fusion); n > s.opts.MaxGridPoints {
			writeError(w, http.StatusBadRequest, "grid has %d points, limit %d", n, s.opts.MaxGridPoints)
			return
		}
	}
	if len(req.Designs) > s.opts.MaxGridPoints {
		writeError(w, http.StatusBadRequest, "design list has %d points, limit %d", len(req.Designs), s.opts.MaxGridPoints)
		return
	}

	workers := req.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Memory-budgeted admission: price the sweep's peak working set
	// (memo table growth plus per-worker scratch) before compiling
	// anything. A refusal still serves stale from the response cache
	// when the identical grid sits there complete.
	costPoints := len(req.Designs)
	if grid != nil {
		costPoints = len(grid.Nodes) * len(grid.Partitions) * len(grid.Simplifications) * len(grid.Fusion)
	}
	release, ok := s.reserveMemory(w, r, resources.SweepCost(costPoints, workers),
		func() bool { return s.degradedSweepReq(w, &req) })
	if !ok {
		return
	}
	defer release()

	eng, err := s.engine(req.Workload, req.Size)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Grid sweeps are deterministic in everything but pool width, so the
	// warm path serves the marshaled body straight from the response cache
	// — after the engine lookup, which keeps the engine-cache telemetry
	// (and residency) identical whether or not the body was cached.
	cacheable := grid != nil
	var rkey respKey
	if cacheable {
		rkey = respKey{
			engine:    engineKey(req.Workload, req.Size),
			objective: core.ObjectiveName(objective),
			points:    req.IncludePoints,
			grid:      gridFingerprint(*grid),
		}
		if body, ok := s.responses.peek(rkey); ok {
			s.metrics.SweepRespHits.Add(1)
			writeJSONBytes(w, http.StatusOK, body)
			return
		}
		s.metrics.SweepRespMisses.Add(1)
	}

	// Cluster mode: scatter the grid's cold design points across the
	// membership, priming the engine's memo table; the assembly below is
	// then a fully warm walk, byte-identical to a single-node run. A
	// scatter failure only logs — the local path computes the same bytes.
	if s.clusterEnabled() && grid != nil {
		if derr := s.distributeSweep(r.Context(), eng, req.Workload, req.Size, *grid); derr != nil && r.Context().Err() == nil {
			s.logf("cluster: sweep scatter failed, computing locally: %v", derr)
		}
	}

	resp := sweepResponse{Workload: req.Workload, Objective: core.ObjectiveName(objective)}
	var points []sweep.Point
	if grid != nil {
		points, err = eng.RunContext(r.Context(), *grid, workers)
	} else {
		points = make([]sweep.Point, 0, len(req.Designs))
		for _, dj := range req.Designs {
			d := dj.Design()
			res, evalErr := eng.EvaluateContext(r.Context(), d)
			if evalErr != nil {
				err = evalErr
				break
			}
			points = append(points, sweep.Point{Design: d, Result: res})
		}
	}
	if err != nil {
		if s.cancelled(w, r, err) {
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp.Evaluated = len(points)
	resp.Cached = eng.CachedPoints()
	if best, err := sweep.Best(points, objective); err == nil {
		bj := core.NewSweepPointJSON(best)
		resp.Best = &bj
	}
	resp.Frontier = core.NewFrontierJSON(sweep.DesignFrontier(points))
	if req.IncludePoints || grid == nil {
		resp.Points = make([]core.SweepPointJSON, 0, len(points))
		for _, p := range points {
			resp.Points = append(resp.Points, core.NewSweepPointJSON(p))
		}
	}
	if cacheable {
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

// maxServedReplicates bounds a single /v1/uncertainty request: Monte Carlo
// cost is linear in replicates and each run holds a worker pool for its
// duration, so the daemon refuses open-ended work the CLI would accept.
const maxServedReplicates = 10000

// uncertaintyRequest is the POST /v1/uncertainty body. Every field is
// optional; zero values select the montecarlo defaults (200 replicates,
// seed 1, 90% bands, 10x gain target, 2% CMOS jitter).
type uncertaintyRequest struct {
	Replicates int     `json:"replicates,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	CorpusSeed int64   `json:"corpus_seed,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	GainTarget float64 `json:"gain_target,omitempty"`
	CMOSJitter float64 `json:"cmos_jitter,omitempty"`
	Workers    int     `json:"workers,omitempty"`
}

// config maps the wire body onto the engine configuration. Shared by the
// synchronous handler and the job runner.
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

// handleUncertainty serves Monte Carlo confidence bands over the full
// accelerator-wall pipeline. Results are memoized on the normalized
// configuration (worker count excluded — it never changes output), so
// repeated dashboards hit the cache instead of re-running replicates.
func (s *Server) handleUncertainty(w http.ResponseWriter, r *http.Request) {
	var req uncertaintyRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Replicates > maxServedReplicates {
		writeError(w, http.StatusBadRequest, "replicates %d exceeds served limit %d", req.Replicates, maxServedReplicates)
		return
	}
	cfg := req.config()
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}
	// Monte Carlo peak memory is one resampled corpus per worker plus the
	// replicate output table; the corpus size is fixed by the synthetic
	// generator, so admission prices it without building one.
	reps := cfg.Replicates
	if reps <= 0 {
		reps = montecarlo.DefaultReplicates
	}
	release, ok := s.reserveMemory(w, r, resources.MonteCarloCost(reps, uncertaintyCorpusChips()),
		func() bool { return s.degradedUncertaintyReq(w, &req) })
	if !ok {
		return
	}
	defer release()
	key := cfg.Normalized()
	out, err := s.uncertainty.get(r.Context(), key, func(runCtx context.Context) (core.UncertaintyJSON, error) {
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
		if s.cancelled(w, r, err) {
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}
