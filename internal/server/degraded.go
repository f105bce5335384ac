// Degraded-mode stale serving: when the admission controller would shed
// a heavy request, an answer already sitting complete in the process's
// caches is served instead — byte-identical to the fresh response, marked
// stale with a Warning header — so overload degrades repeat read traffic
// to "slightly old" rather than "unavailable". Only finished cache
// entries qualify: the degraded path never compiles an engine, never
// starts a run, and never joins an in-flight one, so it costs one map
// lookup and cannot deepen the overload it is routing around.
package server

import (
	"net/http"

	"accelwall/internal/core"
)

// degradedWarning is the RFC 7234 Warning value attached to every
// degraded response, alongside the x-header clients key off.
const degradedWarning = `110 accelwalld "stale response served from cache under overload"`

// serveDegraded tries to answer a request the admission queue is about to
// shed from the warm caches. It reports whether the response was written;
// on false nothing has been written and the caller sheds as usual. The
// request body is strictly decoded exactly as the real handler would, so
// a body that would not reach the cache lookup in the handler cannot
// reach it here either.
func (s *Server) serveDegraded(w http.ResponseWriter, r *http.Request) bool {
	switch routeOf(r.Context()) {
	case "POST /v1/sweep":
		return s.degradedSweep(w, r)
	case "POST /v1/uncertainty":
		return s.degradedUncertainty(w, r)
	case "POST /v1/search":
		return s.degradedSearch(w, r)
	}
	return false
}

// markDegraded stamps the stale-serving headers and counts the rescue.
// Call before the status line is written.
func (s *Server) markDegraded(w http.ResponseWriter) {
	w.Header().Set("Warning", degradedWarning)
	w.Header().Set("X-Accelwall-Degraded", "stale")
	s.metrics.Degraded.Add(1)
}

// degradedSweep serves a grid sweep from the marshaled response cache.
// Design-list sweeps are never response-cached, so they always shed.
func (s *Server) degradedSweep(w http.ResponseWriter, r *http.Request) bool {
	var req sweepRequest
	if err := decodeJSON(w, r, &req); err != nil || req.Workload == "" || req.validate() != nil {
		return false
	}
	return s.degradedSweepReq(w, &req)
}

// degradedSweepReq is the post-decode half of degradedSweep, shared with
// the memory-budget gate (which runs after the handler has already
// consumed the body).
func (s *Server) degradedSweepReq(w http.ResponseWriter, req *sweepRequest) bool {
	objective, err := core.ParseObjective(req.Objective)
	if err != nil {
		return false
	}
	grid, err := req.gridParams()
	if err != nil || grid == nil {
		return false
	}
	body, ok := s.responses.peek(respKey{
		engine:    engineKey(req.Workload, req.Size),
		objective: core.ObjectiveName(objective),
		points:    req.IncludePoints,
		grid:      gridFingerprint(*grid),
	})
	if !ok {
		return false
	}
	s.markDegraded(w)
	writeJSONBytes(w, http.StatusOK, body)
	return true
}

// degradedUncertainty serves Monte Carlo bands from a completed
// uncertainty-cache entry.
func (s *Server) degradedUncertainty(w http.ResponseWriter, r *http.Request) bool {
	var req uncertaintyRequest
	if err := decodeJSON(w, r, &req); err != nil || req.validate() != nil {
		return false
	}
	return s.degradedUncertaintyReq(w, &req)
}

// degradedUncertaintyReq is the post-decode half of degradedUncertainty.
func (s *Server) degradedUncertaintyReq(w http.ResponseWriter, req *uncertaintyRequest) bool {
	cfg := req.config()
	if cfg.Validate() != nil {
		return false
	}
	out, ok := s.uncertainty.peek(cfg.Normalized())
	if !ok {
		return false
	}
	s.markDegraded(w)
	writeJSON(w, http.StatusOK, out)
	return true
}

// degradedSearch serves a Pareto frontier from a completed search-cache
// entry.
func (s *Server) degradedSearch(w http.ResponseWriter, r *http.Request) bool {
	var req searchRequest
	if err := decodeJSON(w, r, &req); err != nil || req.Workload == "" || req.validate() != nil {
		return false
	}
	return s.degradedSearchReq(w, &req)
}

// degradedSearchReq is the post-decode half of degradedSearch.
func (s *Server) degradedSearchReq(w http.ResponseWriter, req *searchRequest) bool {
	cfg, err := req.config()
	if err != nil {
		return false
	}
	out, ok := s.searches.peek(searchKey(engineKey(req.Workload, req.Size), cfg))
	if !ok {
		return false
	}
	s.markDegraded(w)
	writeJSON(w, http.StatusOK, out)
	return true
}
