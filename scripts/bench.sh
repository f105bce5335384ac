#!/usr/bin/env bash
# bench.sh — verify correctness, then regenerate the eight BENCH_*.json
# baselines from `go test -bench` output.
#
# Runs, in order:
#   1. tier-1 verify:  go build ./... && go test ./...
#   2. go vet ./...
#   3. the race detector over the scheduler, sweep, server and Monte Carlo
#      packages (many goroutines share one *aladdin.Compiled /
#      *sweep.Engine / *montecarlo.Engine)
#   4. one `go test -run='^$' -bench=<regex> -benchmem` run per row of the
#      table at the bottom, each turned into its BENCH file by one parser.
#
# Every file has one schema:
#   {description, command, host{cpu, cpus, goos, goarch, go}, date,
#    benchmarks: [{name, layer, iterations, ns_op, bytes_op, allocs_op,
#                  metrics: {<b.ReportMetric unit>: value}}],
#    ratios: [{name, numerator, denominator, value}]}
# layer is the benchmark's package (the `pkg:` line). A ratio is the
# numerator row's ns_op over the denominator row's, two rows of one file;
# only ratios with a stated target are recorded. Every number is measured
# on this host by this run: nothing is carried over from another machine.
# TestBenchFilesShareSchema (root package) checks the committed files.
#
# Usage: scripts/bench.sh [benchtime]   (default 1s)

set -euo pipefail
cd "$(dirname "$0")/.."
BENCHTIME="${1:-1s}"

echo "== tier-1 verify =="
go build ./...
go test ./...

echo "== go vet =="
go vet ./...

echo "== race detector (shared *Compiled / *Engine) =="
go test -race ./internal/sweep/... ./internal/aladdin/... ./internal/server/... ./internal/montecarlo/...

OUT=$(mktemp)
trap 'rm -f "$OUT" "$OUT.json"' EXIT

# tojson DESCRIPTION COMMAND [RATIO...] < go-test-output > json
# Each RATIO is "name numerator denominator" (recorded benchmark names).
tojson() {
  local desc=$1 cmd=$2; shift 2
  local IFS=';'
  awk -v desc="$desc" -v cmd="$cmd" -v ratios="$*" -v cpus="$(nproc)" \
    -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" -v gover="$(go env GOVERSION)" \
    -v date="$(date +%F)" '
    function q(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return "\"" s "\"" }
    /^pkg: / { layer = $2 }
    /^cpu: / { cpu = substr($0, 6) }
    /^Benchmark/ && $4 == "ns/op" {
      name = $1; sub(/-[0-9]+$/, "", name)
      ns[name] = $3; bytes = allocs = "null"; m = ""
      for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "B/op") bytes = $i
        else if ($(i + 1) == "allocs/op") allocs = $i
        else m = m (m == "" ? "" : ", ") q($(i + 1)) ": " $i
      }
      rows[++n] = sprintf("    {\"name\": %s, \"layer\": %s, \"iterations\": %s, \"ns_op\": %s, \"bytes_op\": %s, \"allocs_op\": %s, \"metrics\": {%s}}", \
        q(name), q(layer), $2, $3, bytes, allocs, m)
    }
    END {
      if (n == 0) { print "tojson: no benchmark rows" > "/dev/stderr"; exit 1 }
      printf "{\n  \"description\": %s,\n  \"command\": %s,\n", q(desc), q(cmd)
      printf "  \"host\": {\"cpu\": %s, \"cpus\": %s, \"goos\": %s, \"goarch\": %s, \"go\": %s},\n", \
        q(cpu), cpus, q(goos), q(goarch), q(gover)
      printf "  \"date\": %s,\n  \"benchmarks\": [\n", q(date)
      for (i = 1; i <= n; i++) print rows[i] (i < n ? "," : "")
      printf "  ],\n  \"ratios\": ["
      k = split(ratios, r, ";")
      for (i = 1; i <= k; i++) {
        split(r[i], f, " ")
        if (!(f[2] in ns) || !(f[3] in ns)) { print "tojson: ratio " f[1] " names a missing row" > "/dev/stderr"; exit 1 }
        printf "%s\n    {\"name\": %s, \"numerator\": %s, \"denominator\": %s, \"value\": %.4g}", \
          (i > 1 ? "," : ""), q(f[1]), q(f[2]), q(f[3]), ns[f[2]] / ns[f[3]]
      }
      printf "%s]\n}\n", (k > 0 ? "\n  " : "")
    }'
}

# bench FILE PACKAGES REGEX DESCRIPTION [RATIO...]
bench() {
  local file=$1 pkgs=$2 regex=$3 desc=$4; shift 4
  local cmd="go test -run='^\$' -bench='$regex' -benchmem -benchtime=$BENCHTIME $pkgs"
  echo "== $file: $cmd =="
  # shellcheck disable=SC2086 # PACKAGES is a word list
  go test -run='^$' -bench="$regex" -benchmem -benchtime="$BENCHTIME" $pkgs | tee "$OUT"
  tojson "$desc" "$cmd" "$@" <"$OUT" >"$OUT.json"
  mv "$OUT.json" "$file"
  echo "wrote $file"
}

bench BENCH_sweep.json ". ./internal/aladdin/" '^(BenchmarkTable3|BenchmarkSweepCold|BenchmarkFig13|BenchmarkSimulate|BenchmarkCompile|BenchmarkScheduleWalk)$' \
  "Compiled-graph simulation engine (internal/aladdin Compile + Compiled.Simulate): the Table III and Figure 13 sweeps, the cold full Table III grid on one worker (BenchmarkSweepCold: a fresh engine per op, so every point pays a schedule-summary lookup or walk plus its metrics, the dynamic-energy sum served by the per-summary energy memo after its first use), per-design Simulate on the warm path (a schedule-summary hit plus the per-design metrics), Compile per workload, and cold scheduler walks over every schedule class of the reduced grid (ns/node is walk time per graph vertex). Results are bit-identical to the per-call reference scheduler (internal/aladdin/compiled_test.go, internal/sweep/equivalence_test.go)."
bench BENCH_server.json ./internal/server/ '^(BenchmarkSweepWarm|BenchmarkCaseStudy)$' \
  "Served throughput of accelwalld (internal/server) over httptest. BenchmarkSweepWarm is a steady-state POST /v1/sweep against one warmed server (engine compiled, grid memoized): serial from one client, parallel from GOMAXPROCS clients through RunParallel. BenchmarkCaseStudy is GET /v1/casestudy/bitcoin, a stateless analytical endpoint."
bench BENCH_uncertainty.json ./internal/montecarlo/ '^(BenchmarkUncertainty|BenchmarkUncertaintyServedMiss)$' \
  "Monte Carlo uncertainty engine (internal/montecarlo). BenchmarkUncertainty scales a shared engine over pool widths 1, 4 and 8: one op is a full 40-replicate run, each replicate resampling the corpus, refitting the Figure 3b/3c budget, jittering the CMOS table and projecting the wall for every (domain, target) pair; engine construction is left out. BenchmarkUncertaintyServedMiss is what POST /v1/uncertainty pays per memo miss: one op is the one-shot RunCheckpointed, a fresh engine (corpus generation, compile, base fit and projections) plus 10 replicates on a GOMAXPROCS-wide pool. Results are bit-identical at every pool width."
bench BENCH_cancel.json "./internal/sweep/ ./internal/montecarlo/" '^BenchmarkCancelLatency$' \
  "Cancellation latency of the parallel compute engines: ns_op is the delay from cancelling a mid-flight run (layer internal/sweep: a sweep grid; layer internal/montecarlo: a Monte Carlo replicate set) to full worker-pool quiescence. It is bounded by one chunk of work per worker, not by the remaining grid size."
bench BENCH_checkpoint.json "./internal/montecarlo/ ./internal/server/" '^(BenchmarkCheckpointOverhead|BenchmarkSnapshotSave|BenchmarkResume|BenchmarkJobRoundTrip)$' \
  "Crash-safe checkpointing through the Monte Carlo engine (internal/checkpoint, internal/montecarlo): a full run with fsynced snapshots at the default cadence (on) and without (off), the fsynced write of one snapshot, and resuming a half-complete run (half) against recomputing it cold. Resumed runs are bit-identical to uninterrupted ones. BenchmarkJobRoundTrip (internal/server) is one durable accelwalld job per kind, submit to done through the handler on a warm server, with the durable perfbench stream's bodies: sweep and search jobs run on a private memo over the resident compiled graph. Targets: checkpoint_on_off <= 1.05 (a 5% budget), resume_half_cold < 0.6." \
  "checkpoint_on_off BenchmarkCheckpointOverhead/on BenchmarkCheckpointOverhead/off" \
  "resume_half_cold BenchmarkResume/half BenchmarkResume/cold"
bench BENCH_batch.json . '^BenchmarkBatch$' \
  "Per-design Compiled.Simulate with incremental re-simulation through the schedule-class summary cache: points/sec on the warm sequential path, and one cold full-grid pass whose reuse-% is the share of grid points served by an incremental schedule summary instead of a fresh scheduler walk. Cached results are bit-identical to fresh walks (internal/sweep/equivalence_test.go)."
bench BENCH_search.json ./internal/search/ '^BenchmarkSearchTable3$' \
  "Guided design-space search (internal/search): the default NSGA-II run over the full Table III knob space on a cold engine, scored against the exhaustive grid frontier. coverage-% is recovered true-frontier points over the exhaustive frontier size (target >= 95); grid-evals-% is unique designs evaluated over unique grid points (target <= 25). Deterministic in the seed at any worker count."
bench BENCH_cluster.json ./internal/server/ '^BenchmarkClusterSweep$' \
  "Sharded cluster scatter-gather (internal/cluster + internal/server): warm sweep requests round-robined by RunParallel clients across the peers of an in-process consistent-hash cluster, 1 peer vs 3, after warming every peer. peers=1 builds no cluster (the server's cluster is nil), so it runs the same single-node path as BenchmarkSweepWarm/parallel in BENCH_server.json. req/s is completed requests over wall time, p99_ms comes from per-request latencies, and steals (peers=3 only) from the coordinator's ring metrics. Responses are byte-identical to a single node at every shard count; aggregate req/s can rise with peers only when host.cpus >= peers."
