// Package server is the HTTP/JSON serving layer over the accelerator-wall
// model stack: the accelwalld daemon. Where the accelwall CLI re-fits the
// datasheet corpus and re-compiles workload graphs on every invocation,
// the server holds that state for the life of the process. Compiled sweep
// engines (each carrying its memoized simulations), fitted studies, Monte
// Carlo runs, search frontiers and marshaled sweep bodies all live in one
// kind of bounded LRU memo (memo.go) with singleflight loads, so
// concurrent identical requests compile a workload exactly once.
//
// Endpoint groups (see docs/API.md for the wire formats):
//
//	GET  /healthz                  liveness (process up)
//	GET  /readyz                   readiness (503 during job recovery and drain)
//	GET  /v1/metrics               request/latency/cache counters (expvar-backed)
//	GET  /v1/cmos[?node=N]         CMOS node-scaling model
//	POST /v1/csr                   CSR decomposition of chip observations
//	GET  /v1/projection[?target=]  accelerator-wall projections (Fig. 15/16)
//	GET  /v1/casestudy/{name}      bitcoin | videodec | gpu | fpgacnn
//	POST /v1/sweep                 design-point / grid evaluation
//	POST /v1/uncertainty           Monte Carlo confidence bands on the wall
//	POST /v1/search                guided design-space search (Pareto frontier)
//	GET  /v1/workloads             kernels /v1/sweep accepts
//	GET  /v1/experiments           experiment registry
//	GET  /v1/experiments/{id}      one experiment, machine-readable
//	POST /v1/jobs                  submit a durable async job (uncertainty | sweep | search)
//	GET  /v1/jobs                  list jobs, including those recovered after a crash
//	GET  /v1/jobs/{id}             job state, progress, and result
//
// Every /v1 endpoint (except /v1/metrics) flows through panic recovery,
// access logging, per-route metrics, a hard request timeout, and a
// bounded admission queue with deadline-aware load shedding: requests
// whose expected queue wait exceeds their deadline are rejected with 429
// + Retry-After, arrivals past the queue bound get 503, and cancellation
// (client disconnect or deadline expiry) propagates from the request
// context into the sweep and Monte Carlo worker pools, which stop within
// one chunk of work.
package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelwall/internal/cluster"
	"accelwall/internal/core"
	"accelwall/internal/montecarlo"
	"accelwall/internal/sweep"
)

// Options configures a Server. The zero value is usable: seed-1 corpus,
// GOMAXPROCS sweep pools, 60 s request timeout, 32-engine cache.
type Options struct {
	// Seed selects the synthetic datasheet corpus of the default study;
	// Published substitutes the paper's regression constants instead.
	Seed      int64
	Published bool

	// Workers sizes each sweep's simulation pool (<= 0: GOMAXPROCS).
	Workers int

	// FullGrid switches the default study's design-space experiments to
	// the full Table III grid.
	FullGrid bool

	// RequestTimeout bounds each /v1 request end to end (<= 0: 60 s;
	// the field is respected verbatim once Normalize has run).
	RequestTimeout time.Duration

	// MaxInflight bounds concurrently executing /v1 requests; excess
	// requests queue until a slot frees, their deadline becomes
	// unservable (shed with 429 + Retry-After), the queue saturates
	// (503), or the client gives up (<= 0: 2 × GOMAXPROCS).
	MaxInflight int

	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxInflight; arrivals past it are shed with 503 + Retry-After
	// (<= 0: 4 × MaxInflight).
	MaxQueue int

	// EngineCacheSize bounds resident compiled workload engines
	// (<= 0: 32).
	EngineCacheSize int

	// MaxGridPoints rejects sweep requests whose grid enumerates more
	// points (<= 0: 65536 — the full Table III grid is 3,640).
	MaxGridPoints int

	// ShutdownTimeout bounds the graceful drain on Serve cancellation
	// (<= 0: 15 s).
	ShutdownTimeout time.Duration

	// JobsDir enables the durable async-job API (POST /v1/jobs): each
	// job's state, progress snapshots and result are persisted here as
	// one append-only log (directory 0700, files 0600), and jobs found on
	// startup are re-listed and resumed from their last snapshot. Empty
	// disables the jobs endpoints. New fails if the directory cannot be
	// created, is not writable, or holds jobs in the old three-file
	// layout (ErrLegacyJobLayout).
	JobsDir string

	// MaxJobs bounds tracked jobs — queued, running, and finished
	// together. A submission at the bound evicts the oldest finished job
	// (and its log) or, if every job is still live, is rejected with
	// 429 (<= 0: 64).
	MaxJobs int

	// ClusterPeers is the full static cluster membership: every peer's
	// base URL including this one's. Fewer than two entries disables
	// cluster mode. With peers, the heavy endpoints scatter their work
	// across the membership and durable jobs replicate to ring successors.
	ClusterPeers []string

	// ClusterSelf is this peer's own entry in ClusterPeers (required when
	// peers are configured).
	ClusterSelf string

	// ProbeInterval is the peer health-probe cadence (<= 0: 500ms).
	ProbeInterval time.Duration

	// RepairInterval is the anti-entropy repair cadence: each tick
	// re-replicates local jobs whose ring successor changed or whose
	// last push failed, and garbage-collects replicas the ring no
	// longer assigns here (<= 0: 5s). Only runs with both cluster mode
	// and JobsDir enabled.
	RepairInterval time.Duration

	// APIKeys enables per-tenant authentication and rate limiting on the
	// heavy endpoints (sweep, uncertainty, search, job submission). Empty
	// leaves them open.
	APIKeys []APIKey

	// MaxBodyBytes bounds every request body; larger bodies get a named
	// 413 (<= 0: 8 MiB).
	MaxBodyBytes int64

	// Logger receives access logs and panics; nil silences logging.
	Logger *log.Logger
}

// normalize fills defaulted fields in place.
func (o *Options) normalize() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInflight
	}
	if o.EngineCacheSize <= 0 {
		o.EngineCacheSize = 32
	}
	if o.MaxGridPoints <= 0 {
		o.MaxGridPoints = 65536
	}
	if o.ShutdownTimeout <= 0 {
		o.ShutdownTimeout = 15 * time.Second
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 64
	}
	if o.RepairInterval <= 0 {
		o.RepairInterval = 5 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = defaultMaxBodyBytes
	}
}

// Server is the accelwalld HTTP server: routing plus the process-lifetime
// model state.
type Server struct {
	opts        Options
	metrics     *Metrics
	engines     *memo[string, *sweep.Engine] // keyed by engineKey
	responses   *memo[respKey, []byte]       // marshaled grid-sweep bodies
	studies     *memo[studyKey, *core.Study]
	uncertainty *memo[montecarlo.Config, core.UncertaintyJSON] // keyed by normalized config
	searches    *memo[string, core.SearchJSON]                 // keyed by searchKey
	adm         *admission
	jobs        *jobManager      // nil unless Options.JobsDir is set
	cluster     *cluster.Cluster // nil unless Options.ClusterPeers has >= 2 entries
	tenants     *tenantLimiter   // nil unless Options.APIKeys is set
	draining    atomic.Bool      // set once a graceful drain begins; gates /readyz
	handler     http.Handler

	// The repair loop runs on a server-lifetime context; stop ends it.
	cancel context.CancelFunc
	loops  sync.WaitGroup
}

// New builds a server; no model state is fitted until the first request
// needs it. With Options.JobsDir set, the jobs directory is created and
// write-probed here — an unusable path refuses to start the server
// instead of failing the first snapshot minutes into a job.
func New(opts Options) (*Server, error) {
	opts.normalize()
	s := &Server{
		opts:    opts,
		metrics: NewMetrics(),
		adm:     newAdmission(opts.MaxInflight, opts.MaxQueue),
	}
	m := s.metrics
	s.engines = newMemo[string, *sweep.Engine](opts.EngineCacheSize, &m.EngineHits, &m.EngineMisses, &m.EngineEvicted)
	s.responses = newMemo[respKey, []byte](memoBound, nil, nil, nil)
	s.studies = newMemo[studyKey, *core.Study](memoBound, &m.StudyHits, &m.StudyFits, nil)
	s.uncertainty = newMemo[montecarlo.Config, core.UncertaintyJSON](memoBound, &m.UncertaintyHits, &m.UncertaintyRuns, nil)
	s.searches = newMemo[string, core.SearchJSON](memoBound, &m.SearchHits, &m.SearchRuns, nil)
	if len(opts.APIKeys) > 0 {
		s.tenants = newTenantLimiter(opts.APIKeys)
	}
	// The cluster layer comes before the job manager so jobs can derive
	// their peer-unique id prefix and open the replica store.
	cl, err := cluster.New(cluster.Options{
		Self:          opts.ClusterSelf,
		Peers:         opts.ClusterPeers,
		ProbeInterval: opts.ProbeInterval,
		SliceTimeout:  opts.RequestTimeout,
		OnDeath:       s.adoptFrom,
		Logger:        opts.Logger,
	})
	if err != nil {
		return nil, err
	}
	s.cluster = cl
	if opts.JobsDir != "" {
		if err := newJobManager(s, opts.JobsDir, opts.MaxJobs); err != nil {
			return nil, err
		}
	}
	s.handler = s.routes()
	s.metrics.publish()
	if s.cluster != nil {
		s.cluster.Start()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if s.cluster != nil && s.jobs != nil {
		s.loops.Add(1)
		go s.repairLoop(ctx)
	}
	return s, nil
}

// stop, shared by Close and Serve, halts and waits out the repair loop,
// stops the prober, then interrupts running jobs. Idempotent.
func (s *Server) stop() {
	s.cancel()
	s.loops.Wait()
	if s.cluster != nil {
		s.cluster.Stop()
	}
	if s.jobs != nil {
		s.jobs.cancel()
	}
}

// Close stops the server's background work and waits out its job
// goroutines. Serve performs this itself during a graceful drain; Close
// is for embedders and tests that use Handler directly.
func (s *Server) Close() {
	s.stop()
	if s.jobs != nil {
		s.jobs.drain(context.Background()) //nolint:errcheck // unbounded: cannot expire
	}
}

// routes assembles the handler tree: observability endpoints bypass the
// admission/timeout policy, everything else runs under it.
func (s *Server) routes() http.Handler {
	// The throttled API mux.
	api := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		api.Handle(pattern, s.instrument(pattern, s.limit(pattern, h)))
	}
	// The heavy compute endpoints additionally pass per-tenant auth and
	// quota when API keys are configured; everything else stays open.
	heavy := func(pattern string, h http.HandlerFunc) {
		api.Handle(pattern, s.instrument(pattern, s.auth(s.limit(pattern, h))))
	}
	route("GET /v1/cmos", s.handleCMOS)
	route("POST /v1/csr", s.handleCSR)
	route("GET /v1/projection", s.handleProjection)
	route("GET /v1/casestudy/{name}", s.handleCaseStudy)
	heavy("POST /v1/sweep", s.handleKind("sweep"))
	heavy("POST /v1/uncertainty", s.handleKind("uncertainty"))
	heavy("POST /v1/search", s.handleKind("search"))
	route("GET /v1/workloads", s.handleWorkloads)
	route("GET /v1/experiments", s.handleExperiments)
	route("GET /v1/experiments/{id}", s.handleExperiment)

	// Async jobs: instrumented but not throttled. Submission and polling
	// are cheap metadata operations — the compute happens in the job
	// runner, off the request path — and they must stay responsive when
	// the synchronous endpoints are saturated, which is exactly when
	// clients reach for async jobs. Submission does pass tenant quotas:
	// it enqueues heavy compute.
	api.Handle("POST /v1/jobs", s.instrument("POST /v1/jobs", s.auth(http.HandlerFunc(s.handleJobSubmit))))
	api.Handle("GET /v1/jobs", s.instrument("GET /v1/jobs", http.HandlerFunc(s.handleJobList)))
	api.Handle("GET /v1/jobs/{id}", s.instrument("GET /v1/jobs/{id}", http.HandlerFunc(s.handleJobGet)))

	// Job progress streaming: instrumented but never behind the request
	// timeout — an SSE stream outlives any sensible RequestTimeout by
	// design and ends itself when the job reaches a terminal state.
	api.Handle("GET /v1/jobs/{id}/events", s.instrument("GET /v1/jobs/{id}/events", http.HandlerFunc(s.handleJobEvents)))

	// Cluster-internal routes. The slice route runs under the admission
	// queue on purpose: an overloaded peer sheds slices with 429/503,
	// which is the coordinator's signal to steal the slice elsewhere. The
	// job routes are cheap metadata. None pass tenant auth — peers
	// authenticate by static membership, not API keys.
	route("POST /v1/internal/slice", s.handleInternalSlice)
	api.Handle("POST /v1/internal/jobs/replicate", s.instrument("POST /v1/internal/jobs/replicate", http.HandlerFunc(s.handleJobReplicate)))
	api.Handle("GET /v1/internal/jobs/{id}", s.instrument("GET /v1/internal/jobs/{id}", http.HandlerFunc(s.handleInternalJobGet)))

	// Observability: instrumented but never throttled or timed out, so
	// probes stay truthful under saturation. /healthz is pure liveness;
	// /readyz adds recovery and drain state for load balancers.
	api.Handle("GET /healthz", s.instrument("GET /healthz", http.HandlerFunc(s.handleHealthz)))
	api.Handle("GET /readyz", s.instrument("GET /readyz", http.HandlerFunc(s.handleReadyz)))
	api.Handle("GET /v1/metrics", s.instrument("GET /v1/metrics", http.HandlerFunc(s.handleMetrics)))
	return api
}

// Handler returns the server's root handler, for embedding and tests.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests drain
// (bounded by Options.ShutdownTimeout), and Serve returns nil on a clean
// drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Connection-level timeouts back the per-request policy: ReadTimeout
	// bounds slow-loris bodies the handlers never drain, IdleTimeout
	// reaps abandoned keep-alives, and WriteTimeout is a generous
	// last-resort bound sized for the longest legitimate response — the
	// SSE job-progress stream, which polls its job and ends on terminal
	// state well inside it for any job a single checkpoint interval long.
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness first so probes stop routing traffic, then interrupt
	// running jobs — their engines stop within one work chunk and persist
	// a final snapshot the next process resumes from — while the HTTP
	// side drains in parallel.
	s.draining.Store(true)
	s.stop()
	s.logf("shutting down: draining in-flight requests (timeout %s)", s.opts.ShutdownTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errc // srv.Serve has returned http.ErrServerClosed
	if s.jobs != nil {
		if err := s.jobs.drain(drainCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("accelwalld listening on %s", ln.Addr())
	return s.Serve(ctx, ln)
}
