// The kind table: grid sweeps, Monte Carlo bands and Pareto searches each
// reach the server through three front ends — a synchronous endpoint, a
// durable job and a cluster slice. Every front end dispatches through one
// record per kind, the request body itself implementing kindSpec, so
// validation, caching and the job lifecycle are written once per kind
// instead of once per front end.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"accelwall/internal/checkpoint"
)

// kindSpec is one heavy computation's request body.
type kindSpec interface {
	// resolve validates the body's own fields and derives what the
	// methods below read. A restored job body is resolved again, since
	// only the wire fields are persisted.
	resolve() error
	// check resolves the decoded body and holds it to the server's
	// limits. A job additionally rejects what only the synchronous
	// endpoint serves.
	check(s *Server, job bool) error
	// serve computes a checked request on the server's shared engines and
	// writes the response.
	serve(s *Server, w http.ResponseWriter, r *http.Request)
	// runJob computes a job's result on a job-private engine, snapshotting
	// through ck and resuming from ck.Resume; it reports how many work
	// units were restored rather than computed.
	runJob(ctx context.Context, s *Server, ck *checkpoint.Options) (result json.RawMessage, resumed int, err error)
	// progress decodes a snapshot's work-unit counters.
	progress(snapshot []byte) (done, total int, err error)
	// units is the job's total work before its first snapshot (0 while
	// unknown) and the work its finished result covers.
	units() (before, finished int)
}

// spec resolves the job's kind onto its body: the one place a kind name
// is looked up, for jobs and synchronous routes alike. A missing body of
// the named kind is an empty (all-defaults) one; a body of another kind
// is an error.
func (r *jobRequest) spec() (kindSpec, error) {
	var spec kindSpec
	switch r.Kind {
	case "uncertainty":
		if r.Uncertainty == nil {
			r.Uncertainty = &uncertaintyRequest{}
		}
		spec = r.Uncertainty
	case "sweep":
		if r.Sweep == nil {
			r.Sweep = &sweepRequest{}
		}
		spec = r.Sweep
	case "search":
		if r.Search == nil {
			r.Search = &searchRequest{}
		}
		spec = r.Search
	default:
		return nil, fmt.Errorf("unknown kind %q (want uncertainty, sweep, or search)", r.Kind)
	}
	bodies := 0
	for _, set := range [...]bool{r.Uncertainty != nil, r.Sweep != nil, r.Search != nil} {
		if set {
			bodies++
		}
	}
	if bodies > 1 {
		return nil, fmt.Errorf("%s job carries another kind's body", r.Kind)
	}
	return spec, nil
}

// handleKind is the synchronous endpoint of one kind: decode, check, then
// compute on the shared engines.
func (s *Server) handleKind(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec, _ := (&jobRequest{Kind: kind}).spec() // routes name known kinds
		if err := decodeJSON(w, r, spec); err != nil {
			writeBodyError(w, err)
			return
		}
		if err := spec.check(s, false); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		spec.serve(s, w, r)
	}
}

// poolWidth is a request's worker count, else the server's; 0 lets the
// engine pick GOMAXPROCS.
func (s *Server) poolWidth(requested int) int {
	if requested > 0 {
		return requested
	}
	return s.opts.Workers
}
