// Command accelwalld serves the accelerator-wall model stack over
// HTTP/JSON: CSR decomposition, CMOS node scaling, accelerator-wall
// projections, case-study summaries, and design-space sweep evaluation.
//
// Unlike the accelwall CLI, which refits the datasheet corpus and
// recompiles workload graphs on every invocation, the daemon keeps both
// for the life of the process: fitted studies are memoized per seed and
// compiled sweep engines live in an LRU with singleflight deduplication,
// so concurrent identical requests compile a workload exactly once.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener closes
// immediately, in-flight requests drain (bounded by -shutdown-timeout),
// and a second signal aborts the drain.
//
// With -jobs DIR, the daemon also accepts durable asynchronous jobs
// (POST /v1/jobs): each job is one append-only log in DIR (0700, files
// 0600) whose checksummed records carry its state, progress snapshots
// and result, so a daemon killed mid-run — even with SIGKILL — re-lists its
// jobs on restart and resumes each from its last snapshot instead of
// starting over. GET /readyz reports 503 until that recovery completes
// and again once a drain begins.
//
// See docs/API.md for every endpoint with curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"accelwall/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) { // -h already printed the usage
		fmt.Fprintln(os.Stderr, "accelwalld:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until ctx is cancelled. Split from main for
// the test suite.
func run(ctx context.Context, args []string, logDst io.Writer) error {
	fs := flag.NewFlagSet("accelwalld", flag.ContinueOnError)
	fs.SetOutput(logDst)
	addr := fs.String("addr", ":8080", "listen address")
	seed := fs.Int64("seed", 1, "synthetic datasheet corpus seed for the default study")
	published := fs.Bool("published", false, "use published regression constants (skip corpus fitting)")
	full := fs.Bool("full", false, "use the full Table III grid for the default study's sweep experiments")
	workers := fs.Int("workers", 0, "sweep worker pool size per request (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 15*time.Second, "graceful-shutdown drain bound")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing API requests (0 = 2x GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "max requests queued beyond -max-inflight before 503 shedding (0 = 4x max-inflight)")
	cacheSize := fs.Int("cache", 32, "max resident compiled workload engines")
	maxGrid := fs.Int("max-grid", 0, "max design points per sweep request (0 = 65536)")
	jobsDir := fs.String("jobs", "", "directory for durable async jobs (enables POST /v1/jobs; jobs resume here after a crash)")
	maxJobs := fs.Int("max-jobs", 0, "max tracked jobs, finished included (0 = 64); requires -jobs")
	peers := fs.String("peers", "", "comma-separated cluster peer URLs including this peer's own, or @FILE with one URL per line (>= 2 peers enables cluster mode)")
	self := fs.String("self", "", "this peer's own URL within -peers; requires -peers")
	probeInterval := fs.Duration("probe-interval", 0, "cluster peer health-probe cadence (0 = 500ms)")
	repairInterval := fs.Duration("repair-interval", 0, "anti-entropy replica repair cadence (0 = 5s); requires -peers and -jobs")
	apiKeysFile := fs.String("api-keys", "", "API key file (lines of name:key[:rps[:burst]]); enables per-tenant auth + quotas on heavy endpoints")
	maxBody := fs.Int64("max-body", 0, "max request body bytes before a 413 (0 = 8 MiB)")
	quiet := fs.Bool("quiet", false, "disable access logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *maxJobs != 0 && *jobsDir == "" {
		return fmt.Errorf("-max-jobs requires -jobs")
	}
	peerList, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	if len(peerList) > 0 && *self == "" {
		return fmt.Errorf("-peers requires -self")
	}
	if *repairInterval != 0 && (len(peerList) == 0 || *jobsDir == "") {
		return fmt.Errorf("-repair-interval requires -peers and -jobs")
	}
	var apiKeys []server.APIKey
	if *apiKeysFile != "" {
		if apiKeys, err = server.LoadAPIKeys(*apiKeysFile); err != nil {
			return fmt.Errorf("-api-keys: %w", err)
		}
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(logDst, "accelwalld ", log.LstdFlags)
	}
	s, err := server.New(server.Options{
		Seed:            *seed,
		Published:       *published,
		FullGrid:        *full,
		Workers:         *workers,
		RequestTimeout:  *timeout,
		ShutdownTimeout: *shutdownTimeout,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		EngineCacheSize: *cacheSize,
		MaxGridPoints:   *maxGrid,
		JobsDir:         *jobsDir,
		MaxJobs:         *maxJobs,
		ClusterPeers:    peerList,
		ClusterSelf:     *self,
		ProbeInterval:   *probeInterval,
		RepairInterval:  *repairInterval,
		APIKeys:         apiKeys,
		MaxBodyBytes:    *maxBody,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	return s.ListenAndServe(ctx, *addr)
}

// parsePeers resolves the -peers flag: a comma-separated URL list, or
// @FILE naming a file with one URL per line ('#' comments allowed).
func parsePeers(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	var fields []string
	if name, ok := strings.CutPrefix(spec, "@"); ok {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("-peers: %w", err)
		}
		fields = strings.Split(string(data), "\n")
	} else {
		fields = strings.Split(spec, ",")
	}
	var peers []string
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" || strings.HasPrefix(f, "#") {
			continue
		}
		peers = append(peers, strings.TrimRight(f, "/"))
	}
	return peers, nil
}
