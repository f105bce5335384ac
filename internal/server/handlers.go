package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"accelwall/internal/casestudy"
	"accelwall/internal/cmos"
	"accelwall/internal/core"
	"accelwall/internal/csr"
	"accelwall/internal/gains"
	"accelwall/internal/projection"
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
