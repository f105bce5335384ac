#!/usr/bin/env bash
# crashtest.sh — end-to-end crash-recovery proof for accelwalld's durable
# jobs, as a real process lifecycle rather than an in-process test:
#
#   1. build accelwalld and accelwall;
#   2. start accelwalld with a jobs directory and submit a single-worker
#      uncertainty job with a tight checkpoint cadence;
#   3. wait until the job has made durable progress, then SIGKILL the
#      daemon — no drain, no warning;
#   4. restart accelwalld over the same directory, wait for /readyz,
#      and poll the recovered job to completion;
#   5. assert the job resumed (resumed > 0 — it did not restart cold)
#      and that its result is byte-identical (jq -S canonicalized) to an
#      uninterrupted `accelwall -uncertainty -json` reference run;
#   6. repeat the same lifecycle for a design-space search job: SIGKILL
#      the daemon mid-search, restart, and assert the resumed run's
#      Pareto frontier is byte-identical to `accelwall -search -json`;
#   7. (needs root or passwordless sudo, otherwise skipped) mount a
#      4 MiB tmpfs as the jobs directory, submit a job, and fill the disk
#      to the brim while it runs: once its work is done the job must sit
#      `running` (its done record waits for the disk) while a new submit
#      gets 503; once the space is freed the job must turn `done` with a
#      byte-identical result.
#
# Usage: scripts/crashtest.sh [port]   (default 18080)

set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
BASE="http://127.0.0.1:$PORT"
REPLICATES=2000
SEED=7

WORK=$(mktemp -d)
JOBS_DIR="$WORK/jobs"
DAEMON_PID=""

# as_root CMD... — run privileged mount/umount calls directly when we
# already are root (containers), else through passwordless sudo (CI).
as_root() {
  if [ "$(id -u)" = 0 ]; then "$@"; else sudo -n "$@"; fi
}
can_root() { [ "$(id -u)" = 0 ] || sudo -n true 2> /dev/null; }

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  # Stage 3 mounts a tmpfs under $WORK; release it before the rm.
  mountpoint -q "$WORK/fulldisk" 2> /dev/null &&
    as_root umount "$WORK/fulldisk" 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build =="
go build -o "$WORK/accelwalld" ./cmd/accelwalld
go build -o "$WORK/accelwall" ./cmd/accelwall

start_daemon() {
  "$WORK/accelwalld" -addr "127.0.0.1:$PORT" -jobs "$JOBS_DIR" -quiet &
  DAEMON_PID=$!
  disown "$DAEMON_PID" # suppress job-control noise when we kill -9 it
  for _ in $(seq 1 200); do
    if curl -sf "$BASE/readyz" > /dev/null 2>&1; then
      return
    fi
    sleep 0.05
  done
  echo "daemon never became ready" >&2
  exit 1
}

poll_job() { # poll_job ID JQ_PREDICATE TRIES
  local id=$1 pred=$2 tries=$3
  for _ in $(seq 1 "$tries"); do
    if curl -s "$BASE/v1/jobs/$id" | jq -e "$pred" > /dev/null; then
      return 0
    fi
    sleep 0.05
  done
  return 1
}

echo "== start + submit =="
start_daemon
JOB=$(curl -sf "$BASE/v1/jobs" -d "{
  \"kind\": \"uncertainty\", \"checkpoint_every\": 20,
  \"uncertainty\": {\"replicates\": $REPLICATES, \"seed\": $SEED,
                    \"corpus_seed\": $SEED, \"workers\": 1}
}" | jq -r .id)
echo "submitted $JOB"

# Wait for real durable progress: at least one full checkpoint cadence.
poll_job "$JOB" ".progress_done >= 40" 600 || {
  echo "job never made progress"; curl -s "$BASE/v1/jobs/$JOB"; exit 1
}

echo "== kill -9 mid-run =="
curl -s "$BASE/v1/jobs/$JOB" | jq '{state, progress_done, progress_total}'
kill -9 "$DAEMON_PID"
while kill -0 "$DAEMON_PID" 2>/dev/null; do sleep 0.01; done
DAEMON_PID=""

echo "== restart over the same jobs directory =="
start_daemon

# The job must be re-listed and must finish.
curl -sf "$BASE/v1/jobs" | jq -e ".jobs | map(.id) | index(\"$JOB\") != null" > /dev/null || {
  echo "restarted daemon does not list $JOB"; curl -s "$BASE/v1/jobs"; exit 1
}
poll_job "$JOB" '.state == "done"' 2400 || {
  echo "recovered job never finished"; curl -s "$BASE/v1/jobs/$JOB"; exit 1
}

RESUMED=$(curl -s "$BASE/v1/jobs/$JOB" | jq .resumed)
echo "job done; resumed $RESUMED replicates from the snapshot"
if [ "$RESUMED" = "null" ] || [ "$RESUMED" -le 0 ]; then
  echo "FAIL: job restarted cold instead of resuming" >&2
  exit 1
fi

echo "== compare against an uninterrupted reference run =="
curl -s "$BASE/v1/jobs/$JOB" | jq -S .result > "$WORK/job.json"
"$WORK/accelwall" -uncertainty -json -replicates "$REPLICATES" \
  -seed "$SEED" | jq -S . > "$WORK/ref.json"
if ! diff -u "$WORK/ref.json" "$WORK/job.json"; then
  echo "FAIL: resumed job result differs from the uninterrupted run" >&2
  exit 1
fi

echo "PASS: killed daemon resumed $JOB from replicate $RESUMED and produced"
echo "      output byte-identical to an uninterrupted run."

# ---------------------------------------------------------------------------
# Stage 2: the same crash-recovery proof for a design-space search job.
# Single worker + per-generation checkpoints keep the run slow and durable
# enough to kill mid-search.
SEARCH_WORKLOAD=S3D
SEARCH_SIZE=14
SEARCH_POP=64
SEARCH_GENS=800
SEARCH_SEED=7

echo "== submit a search job =="
SJOB=$(curl -sf "$BASE/v1/jobs" -d "{
  \"kind\": \"search\", \"checkpoint_every\": 1,
  \"search\": {\"workload\": \"$SEARCH_WORKLOAD\", \"size\": $SEARCH_SIZE,
               \"population\": $SEARCH_POP, \"generations\": $SEARCH_GENS,
               \"seed\": $SEARCH_SEED, \"workers\": 1}
}" | jq -r .id)
echo "submitted $SJOB"

# Wait for at least two durable generations, then pull the plug again.
poll_job "$SJOB" ".progress_done >= 2" 600 || {
  echo "search job never made progress"; curl -s "$BASE/v1/jobs/$SJOB"; exit 1
}

echo "== kill -9 mid-search =="
curl -s "$BASE/v1/jobs/$SJOB" | jq '{state, progress_done, progress_total}'
kill -9 "$DAEMON_PID"
while kill -0 "$DAEMON_PID" 2>/dev/null; do sleep 0.01; done
DAEMON_PID=""

echo "== restart over the same jobs directory =="
start_daemon
poll_job "$SJOB" '.state == "done"' 2400 || {
  echo "recovered search job never finished"; curl -s "$BASE/v1/jobs/$SJOB"; exit 1
}

SRESUMED=$(curl -s "$BASE/v1/jobs/$SJOB" | jq .resumed)
echo "search job done; resumed $SRESUMED evaluations from the snapshot"
if [ "$SRESUMED" = "null" ] || [ "$SRESUMED" -le 0 ]; then
  echo "FAIL: search job restarted cold instead of resuming" >&2
  exit 1
fi

echo "== compare against an uninterrupted search reference run =="
curl -s "$BASE/v1/jobs/$SJOB" | jq -S .result > "$WORK/search-job.json"
"$WORK/accelwall" -search -json -workload "$SEARCH_WORKLOAD" -size "$SEARCH_SIZE" \
  -population "$SEARCH_POP" -generations "$SEARCH_GENS" -seed "$SEARCH_SEED" \
  | jq -S . > "$WORK/search-ref.json"
if ! diff -u "$WORK/search-ref.json" "$WORK/search-job.json"; then
  echo "FAIL: resumed search frontier differs from the uninterrupted run" >&2
  exit 1
fi

echo "PASS: killed daemon resumed search job $SJOB ($SRESUMED evaluations"
echo "      restored) and recovered the identical Pareto frontier."

# ---------------------------------------------------------------------------
# Stage 3: a full disk on a real (tiny) filesystem — the in-process ENOSPC
# injection tests, replayed against an actual full disk. A job's done
# record must be on disk before the job reads done, so the job waits out
# the outage as running. Mounting a tmpfs needs root; on hosts with
# neither root nor passwordless sudo the stage is skipped with a notice
# rather than failed.
if ! can_root; then
  echo "SKIP: disk-full stage needs root or passwordless sudo to mount a tmpfs."
else
  echo "== disk-full stage: 4 MiB tmpfs as the jobs directory =="
  kill -9 "$DAEMON_PID"
  while kill -0 "$DAEMON_PID" 2>/dev/null; do sleep 0.01; done
  DAEMON_PID=""
  MNT="$WORK/fulldisk"
  mkdir -p "$MNT"
  as_root mount -t tmpfs -o size=4m tmpfs "$MNT"
  JOBS_DIR="$MNT/jobs"
  start_daemon

  echo "== submit a job, then fill the disk under it =="
  DJOB=$(curl -sf "$BASE/v1/jobs" -d "{
    \"kind\": \"uncertainty\", \"checkpoint_every\": 20,
    \"uncertainty\": {\"replicates\": $REPLICATES, \"seed\": $SEED,
                      \"corpus_seed\": $SEED, \"workers\": 1}
  }" | jq -r .id)
  echo "submitted $DJOB"
  # Fill the filesystem to the brim, so every durable write the job
  # attempts from here on is refused with a real ENOSPC from the kernel.
  dd if=/dev/zero of="$MNT/fill" bs=1024 count=8192 2> /dev/null || true

  poll_job "$DJOB" '.state == "running" and .progress_total > 0 and .progress_done == .progress_total' 2400 || {
    echo "FAIL: disk-full job never finished its work while staying running" >&2
    curl -s "$BASE/v1/jobs/$DJOB"; exit 1
  }
  sleep 0.5 # several retries the full disk refuses
  curl -s "$BASE/v1/jobs/$DJOB" | jq -e '.state == "running" and .result == null' > /dev/null || {
    echo "FAIL: job did not stay running while the full disk refused its done record" >&2
    curl -s "$BASE/v1/jobs/$DJOB"; exit 1
  }
  STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/jobs" -d '{"kind": "uncertainty"}')
  if [ "$STATUS" != 503 ]; then
    echo "FAIL: a submit on the full disk got $STATUS, want 503" >&2
    exit 1
  fi

  echo "== free the disk and wait for the done record =="
  rm "$MNT/fill"
  poll_job "$DJOB" '.state == "done"' 200 || {
    echo "FAIL: job never turned done after space was freed" >&2
    curl -s "$BASE/v1/jobs/$DJOB"; exit 1
  }

  echo "== compare against the uninterrupted reference run =="
  curl -s "$BASE/v1/jobs/$DJOB" | jq -S .result > "$WORK/diskfull-job.json"
  if ! diff -u "$WORK/ref.json" "$WORK/diskfull-job.json"; then
    echo "FAIL: disk-full job result differs from the healthy run" >&2
    exit 1
  fi

  echo "PASS: job $DJOB finished its work on a full disk, stayed running"
  echo "      until its done record landed once space returned, and matched"
  echo "      a healthy run byte for byte; a submit meanwhile got 503."
fi
