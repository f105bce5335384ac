// Server-sent-event job progress: GET /v1/jobs/{id}/events streams the
// job's state as it changes instead of making clients poll GET
// /v1/jobs/{id}. Each update is one SSE frame
//
//	event: progress
//	data: {"id":...,"state":...,"progress_done":...}
//
// emitted whenever (state, done, total) changes, with comment
// heartbeats to keep idle proxies from dropping the connection. The
// stream ends itself with a final frame once the job reaches a terminal
// state. The route bypasses the request timeout (a stream outlives it by
// design) and serves only locally tracked jobs — in a cluster, follow
// the job to the peer that owns it.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

const (
	ssePollInterval = 100 * time.Millisecond
	sseHeartbeat    = 15 * time.Second
)

// handleJobEvents is GET /v1/jobs/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "async jobs are disabled: start the server with a jobs directory (-jobs)")
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	emit := func(state jobJSON) bool {
		payload, err := json.Marshal(state)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", payload); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	var last jobJSON
	first := true
	poll := time.NewTicker(ssePollInterval)
	defer poll.Stop()
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		// Progress frames omit the result payload (which can be large);
		// the terminal frame tells the client to fetch GET /v1/jobs/{id}.
		cur := j.json(false)
		changed := first || cur.State != last.State ||
			cur.ProgressDone != last.ProgressDone || cur.ProgressTotal != last.ProgressTotal
		if changed {
			if !emit(cur) {
				return
			}
			last, first = cur, false
		}
		if cur.State == jobDone || cur.State == jobFailed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-poll.C:
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
	}
}
