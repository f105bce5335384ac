package server

import (
	"expvar"
	"sort"
	"strconv"
	"sync"
	"time"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// request-latency histogram; requests slower than the last bound land in
// the +Inf bucket.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Metrics holds the server's operational counters. All fields are expvar
// vars, so every update is lock-free and safe under concurrent request
// handling; Snapshot renders them as one JSON-ready tree for /v1/metrics.
type Metrics struct {
	Requests  expvar.Int // completed requests, any status
	Errors4xx expvar.Int
	Errors5xx expvar.Int
	InFlight  expvar.Int // currently executing requests (gauge)
	Panics    expvar.Int // handler panics recovered

	// Compile/cache telemetry for the process-lifetime state.
	Compiles      expvar.Int // workload graphs compiled (engine-cache loads)
	EngineHits    expvar.Int
	EngineMisses  expvar.Int
	EngineEvicted expvar.Int
	StudyFits     expvar.Int // corpus regressions fitted (study-cache loads)
	StudyHits     expvar.Int

	UncertaintyRuns expvar.Int // Monte Carlo runs executed (uncertainty-cache loads)
	UncertaintyHits expvar.Int

	SearchRuns expvar.Int // design-space searches executed (search-cache loads)
	SearchHits expvar.Int

	// Marshaled grid-sweep response cache telemetry.
	SweepRespHits   expvar.Int
	SweepRespMisses expvar.Int

	// Durable async-job telemetry.
	JobsSubmitted expvar.Int // jobs accepted by POST /v1/jobs
	JobsCompleted expvar.Int // jobs reaching the done state
	JobsFailed    expvar.Int // jobs reaching the failed state
	JobsResumed   expvar.Int // jobs re-queued from a durable snapshot at startup
	JobSnapshots  expvar.Int // progress snapshots persisted by job runs

	// Cluster telemetry (the cluster package tracks its own coordinator-
	// side counters; these are the peer side).
	ClusterSlicesServed expvar.Int // internal slices executed for coordinators
	ClusterJobsAdopted  expvar.Int // durable jobs adopted from dead peers

	// Tenant quota telemetry; per-tenant counters live on the limiter.
	TenantRejected expvar.Int // requests refused by any tenant quota

	// Overload-protection telemetry: requests shed by the admission queue
	// (429 deadline-aware, 503 saturation) and requests whose client went
	// away before completion (queue abandonment or mid-compute cancel).
	Shed429 expvar.Int
	Shed503 expvar.Int
	Cancels expvar.Int

	LatencySumMS expvar.Float
	latency      []expvar.Int // len(latencyBucketsMS)+1; last is +Inf

	mu             sync.Mutex
	perRoute       map[string]*expvar.Int
	perRouteShed   map[string]*expvar.Int
	perRouteCancel map[string]*expvar.Int
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		latency:        make([]expvar.Int, len(latencyBucketsMS)+1),
		perRoute:       make(map[string]*expvar.Int),
		perRouteShed:   make(map[string]*expvar.Int),
		perRouteCancel: make(map[string]*expvar.Int),
	}
}

// counter returns (creating on demand) the per-route counter in m.
func (m *Metrics) counter(set map[string]*expvar.Int, route string) *expvar.Int {
	m.mu.Lock()
	c, ok := set[route]
	if !ok {
		c = new(expvar.Int)
		set[route] = c
	}
	m.mu.Unlock()
	return c
}

// Shed records one load-shed request on a route: status 429 (deadline-
// aware shed) or 503 (queue saturation).
func (m *Metrics) Shed(route string, status int) {
	if status == 429 {
		m.Shed429.Add(1)
	} else {
		m.Shed503.Add(1)
	}
	m.counter(m.perRouteShed, route).Add(1)
}

// Cancel records one cancelled request on a route — the client abandoned
// it while queued, or the engine returned the request context's error.
func (m *Metrics) Cancel(route string) {
	m.Cancels.Add(1)
	m.counter(m.perRouteCancel, route).Add(1)
}

// Observe records one completed request: its route, status class, and
// latency.
func (m *Metrics) Observe(route string, status int, d time.Duration) {
	m.Requests.Add(1)
	switch {
	case status >= 500:
		m.Errors5xx.Add(1)
	case status >= 400:
		m.Errors4xx.Add(1)
	}
	ms := float64(d) / float64(time.Millisecond)
	m.LatencySumMS.Add(ms)
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	m.latency[i].Add(1)

	m.counter(m.perRoute, route).Add(1)
}

// Snapshot renders the counters as a JSON-encodable tree.
func (m *Metrics) Snapshot() map[string]any {
	buckets := make(map[string]int64, len(m.latency))
	for i, b := range latencyBucketsMS {
		buckets[bucketLabel(b)] = m.latency[i].Value()
	}
	buckets["inf"] = m.latency[len(latencyBucketsMS)].Value()

	dump := func(set map[string]*expvar.Int) map[string]int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		out := make(map[string]int64, len(set))
		for r, c := range set {
			out[r] = c.Value()
		}
		return out
	}
	routes := dump(m.perRoute)

	return map[string]any{
		"overload": map[string]any{
			"shed_429":            m.Shed429.Value(),
			"shed_503":            m.Shed503.Value(),
			"cancelled":           m.Cancels.Value(),
			"per_route_shed":      dump(m.perRouteShed),
			"per_route_cancelled": dump(m.perRouteCancel),
		},
		"requests":   m.Requests.Value(),
		"errors_4xx": m.Errors4xx.Value(),
		"errors_5xx": m.Errors5xx.Value(),
		"in_flight":  m.InFlight.Value(),
		"panics":     m.Panics.Value(),
		"engine_cache": map[string]int64{
			"hits":     m.EngineHits.Value(),
			"misses":   m.EngineMisses.Value(),
			"evicted":  m.EngineEvicted.Value(),
			"compiles": m.Compiles.Value(),
		},
		"study_cache": map[string]int64{
			"hits": m.StudyHits.Value(),
			"fits": m.StudyFits.Value(),
		},
		"uncertainty_cache": map[string]int64{
			"hits": m.UncertaintyHits.Value(),
			"runs": m.UncertaintyRuns.Value(),
		},
		"search_cache": map[string]int64{
			"hits": m.SearchHits.Value(),
			"runs": m.SearchRuns.Value(),
		},
		"sweep_response_cache": map[string]int64{
			"hits":   m.SweepRespHits.Value(),
			"misses": m.SweepRespMisses.Value(),
		},
		"jobs": map[string]int64{
			"submitted": m.JobsSubmitted.Value(),
			"completed": m.JobsCompleted.Value(),
			"failed":    m.JobsFailed.Value(),
			"resumed":   m.JobsResumed.Value(),
			"snapshots": m.JobSnapshots.Value(),
		},
		"latency_ms": map[string]any{
			"sum":     m.LatencySumMS.Value(),
			"buckets": buckets,
		},
		"per_route": routes,
	}
}

// bucketLabel formats a histogram bound as a stable map key ("le_25").
func bucketLabel(b float64) string {
	return "le_" + strconv.FormatFloat(b, 'f', -1, 64)
}

// publishOnce exposes the first-created server's metrics in the global
// expvar registry (GET /debug/vars when the caller mounts it) under the
// key "accelwalld". Later servers — the test suite constructs many — keep
// private metrics only, since expvar forbids re-publishing a name.
var publishOnce sync.Once

func (m *Metrics) publish() {
	publishOnce.Do(func() {
		expvar.Publish("accelwalld", expvar.Func(func() any { return m.Snapshot() }))
	})
}
