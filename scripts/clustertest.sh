#!/usr/bin/env bash
# clustertest.sh — end-to-end proof of the sharded accelwalld cluster as
# real processes rather than an in-process test:
#
#   1. build accelwalld and accelwall;
#   2. boot a 3-peer cluster (static -peers membership, one jobs
#      directory per peer) plus a plain single-node reference daemon;
#   3. POST the same grid sweep to the reference and to every peer and
#      assert the responses are byte-identical (jq -S canonicalized),
#      and that the coordinator actually scattered slices;
#   4. submit a durable single-worker search job to one peer, wait for
#      durable progress, then SIGKILL that peer — no drain, no warning;
#   5. poll the survivors until one of them has adopted the job and
#      driven it to completion from its last replicated snapshot;
#   6. assert the adopted job's frontier is byte-identical to an
#      uninterrupted `accelwall -search -json` reference run, and that
#      the surviving peers still answer sweeps correctly;
#   7. resilience: SIGSTOP the replica successor so a fresh job's standby
#      push exhausts its retries (replica_push_fails), SIGCONT it and let
#      the anti-entropy repair loop land the replica (repair_pushes, plus
#      the .replica.ckpt file on disk), then SIGKILL the owner and assert
#      the last survivor adopts the job with a byte-identical result.
#
# Usage: scripts/clustertest.sh [baseport]   (default 18180)

set -euo pipefail
cd "$(dirname "$0")/.."

BASEPORT="${1:-18180}"
P0=$BASEPORT P1=$((BASEPORT + 1)) P2=$((BASEPORT + 2)) PREF=$((BASEPORT + 3))
U0="http://127.0.0.1:$P0" U1="http://127.0.0.1:$P1" U2="http://127.0.0.1:$P2"
UREF="http://127.0.0.1:$PREF"
PEERS="$U0,$U1,$U2"

SEARCH_WORKLOAD=S3D
SEARCH_SIZE=14
SEARCH_POP=64
SEARCH_GENS=400
SEARCH_SEED=7

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build =="
go build -o "$WORK/accelwalld" ./cmd/accelwalld
go build -o "$WORK/accelwall" ./cmd/accelwall

start_peer() { # start_peer N PORT — pid lands in $STARTED_PID
  "$WORK/accelwalld" -addr "127.0.0.1:$2" -peers "$PEERS" \
    -self "http://127.0.0.1:$2" -jobs "$WORK/jobs$1" -probe-interval 100ms \
    -repair-interval 500ms \
    -quiet > "$WORK/peer$1.log" 2>&1 &
  STARTED_PID=$!
  disown "$STARTED_PID" # keep SIGKILL cleanup out of the job-control log
}

wait_ready() { # wait_ready BASEURL
  for _ in $(seq 1 200); do
    if curl -sf "$1/readyz" > /dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "daemon at $1 never became ready" >&2
  exit 1
}

echo "== boot 3 peers + single-node reference =="
start_peer 0 "$P0"; PID0=$STARTED_PID; PIDS+=("$PID0")
start_peer 1 "$P1"; PID1=$STARTED_PID; PIDS+=("$PID1")
start_peer 2 "$P2"; PID2=$STARTED_PID; PIDS+=("$PID2")
"$WORK/accelwalld" -addr "127.0.0.1:$PREF" -quiet > "$WORK/ref.log" 2>&1 &
PIDREF=$!; disown "$PIDREF"; PIDS+=("$PIDREF")
wait_ready "$U0"; wait_ready "$U1"; wait_ready "$U2"; wait_ready "$UREF"

SWEEP_BODY='{"workload": "FFT", "objective": "efficiency", "include_points": true,
  "grid": {"nodes": [45, 32, 22, 16], "partitions": [1, 2, 4],
           "simplifications": [1, 2], "fusion": [false, true]}}'

echo "== sweep byte-identity: reference vs every peer =="
curl -sf "$UREF/v1/sweep" -d "$SWEEP_BODY" | jq -S . > "$WORK/sweep-ref.json"
for url in "$U0" "$U1" "$U2"; do
  curl -sf "$url/v1/sweep" -d "$SWEEP_BODY" | jq -S . > "$WORK/sweep-peer.json"
  if ! diff -u "$WORK/sweep-ref.json" "$WORK/sweep-peer.json"; then
    echo "FAIL: sweep from $url differs from the single-node reference" >&2
    exit 1
  fi
done
SCATTERS=$(curl -s "$U0/v1/metrics" | jq .cluster.scatters)
if [ "$SCATTERS" -lt 1 ]; then
  echo "FAIL: coordinator never scattered (scatters=$SCATTERS)" >&2
  exit 1
fi
echo "sweeps byte-identical across all peers ($SCATTERS scatters)"

echo "== submit a durable search job to peer 0 =="
JOB=$(curl -sf "$U0/v1/jobs" -d "{
  \"kind\": \"search\", \"checkpoint_every\": 1,
  \"search\": {\"workload\": \"$SEARCH_WORKLOAD\", \"size\": $SEARCH_SIZE,
               \"population\": $SEARCH_POP, \"generations\": $SEARCH_GENS,
               \"seed\": $SEARCH_SEED, \"workers\": 1}
}" | jq -r .id)
echo "submitted $JOB"

# Wait for durable, replicated progress: at least two generations.
for _ in $(seq 1 600); do
  if curl -s "$U0/v1/jobs/$JOB" | jq -e '.progress_done >= 2' > /dev/null; then
    break
  fi
  sleep 0.05
done
curl -s "$U0/v1/jobs/$JOB" | jq -e '.progress_done >= 2' > /dev/null || {
  echo "job never made progress"; curl -s "$U0/v1/jobs/$JOB"; exit 1
}
sleep 0.3 # let the async replica push land on the ring successor

echo "== SIGKILL peer 0 mid-job =="
curl -s "$U0/v1/jobs/$JOB" | jq '{state, progress_done, progress_total}'
kill -9 "$PID0"
while kill -0 "$PID0" 2>/dev/null; do sleep 0.01; done

echo "== wait for a survivor to adopt and finish the job =="
DONE=""
for _ in $(seq 1 2400); do
  for url in "$U1" "$U2"; do
    if curl -s "$url/v1/jobs/$JOB" | jq -e '.state == "done"' > /dev/null 2>&1; then
      DONE="$url"
      break 2
    fi
  done
  sleep 0.05
done
if [ -z "$DONE" ]; then
  echo "FAIL: no survivor adopted and finished $JOB" >&2
  curl -s "$U1/v1/jobs/$JOB" || true
  curl -s "$U2/v1/jobs/$JOB" || true
  exit 1
fi
ADOPTED=$(curl -s "$U1/v1/metrics" | jq .cluster.jobs_adopted)
ADOPTED2=$(curl -s "$U2/v1/metrics" | jq .cluster.jobs_adopted)
echo "job adopted and finished via $DONE (adoptions: $ADOPTED + $ADOPTED2)"
if [ $((ADOPTED + ADOPTED2)) -ne 1 ]; then
  echo "FAIL: expected exactly one adoption across the survivors" >&2
  exit 1
fi

echo "== compare the adopted result against an uninterrupted reference =="
curl -s "$DONE/v1/jobs/$JOB" | jq -S .result > "$WORK/job.json"
"$WORK/accelwall" -search -json -workload "$SEARCH_WORKLOAD" -size "$SEARCH_SIZE" \
  -population "$SEARCH_POP" -generations "$SEARCH_GENS" -seed "$SEARCH_SEED" \
  | jq -S . > "$WORK/ref.json"
if ! diff -u "$WORK/ref.json" "$WORK/job.json"; then
  echo "FAIL: adopted job result differs from the uninterrupted run" >&2
  exit 1
fi

echo "== survivors still answer sweeps byte-identically =="
curl -sf "$U1/v1/sweep" -d "$SWEEP_BODY" | jq -S . > "$WORK/sweep-after.json"
if ! diff -u "$WORK/sweep-ref.json" "$WORK/sweep-after.json"; then
  echo "FAIL: post-death sweep differs from the single-node reference" >&2
  exit 1
fi

echo "== resilience: SIGSTOP the replica successor, exhaust the push retries =="
# With peer 0 dead, a job submitted to peer 1 can only replicate to peer 2.
# Freeze peer 2 so every push attempt times out and the retries exhaust.
kill -STOP "$PID2"
JOB2=$(curl -sf "$U1/v1/jobs" -d '{
  "kind": "search", "checkpoint_every": 1,
  "search": {"workload": "S3D", "size": 14, "population": 32,
             "generations": 40, "seed": 11, "workers": 1}
}' | jq -r .id)
echo "submitted $JOB2 against a frozen successor"

FAILS=0
for _ in $(seq 1 1200); do
  FAILS=$(curl -s "$U1/v1/metrics" | jq .cluster.replica_push_fails)
  if [ "$FAILS" -ge 1 ]; then break; fi
  sleep 0.1
done
if [ "$FAILS" -lt 1 ]; then
  echo "FAIL: replica push never exhausted its retries against the frozen peer" >&2
  exit 1
fi
echo "replica push exhausted retries (replica_push_fails=$FAILS)"

# The job itself must finish on its owner regardless of the partition.
for _ in $(seq 1 2400); do
  if curl -s "$U1/v1/jobs/$JOB2" | jq -e '.state == "done"' > /dev/null; then break; fi
  sleep 0.05
done
curl -s "$U1/v1/jobs/$JOB2" | jq -e '.state == "done"' > /dev/null || {
  echo "FAIL: job $JOB2 never finished on its owner"; curl -s "$U1/v1/jobs/$JOB2"; exit 1
}

echo "== SIGCONT: anti-entropy repair must land the replica =="
kill -CONT "$PID2"
REPAIRED=""
for _ in $(seq 1 1200); do
  if ls "$WORK/jobs2/replicas/$JOB2.replica.ckpt" > /dev/null 2>&1; then
    REPAIRED=yes
    break
  fi
  sleep 0.1
done
if [ -z "$REPAIRED" ]; then
  echo "FAIL: the replica never converged onto the thawed successor" >&2
  curl -s "$U1/v1/metrics" | jq .cluster
  exit 1
fi
# The anti-entropy loop must actually be ticking (the in-process suite
# pins that repair specifically converges a failed push; here a lingering
# pre-freeze push may legitimately land the replica first).
RUNS=$(curl -s "$U1/v1/metrics" | jq .cluster.repair_runs)
if [ "$RUNS" -lt 1 ]; then
  echo "FAIL: the repair loop never ran (repair_runs=$RUNS)" >&2
  exit 1
fi
PUSHES=$(curl -s "$U1/v1/metrics" | jq .cluster.repair_pushes)
echo "replica converged (repair_runs=$RUNS repair_pushes=$PUSHES)"

echo "== SIGKILL the owner: the last survivor must adopt byte-identically =="
kill -9 "$PID1"
while kill -0 "$PID1" 2>/dev/null; do sleep 0.01; done
for _ in $(seq 1 2400); do
  if curl -s "$U2/v1/jobs/$JOB2" | jq -e '.state == "done"' > /dev/null 2>&1; then break; fi
  sleep 0.05
done
curl -s "$U2/v1/jobs/$JOB2" | jq -e '.state == "done"' > /dev/null || {
  echo "FAIL: survivor never adopted $JOB2"; curl -s "$U2/v1/jobs/$JOB2" || true; exit 1
}
curl -s "$U2/v1/jobs/$JOB2" | jq -S .result > "$WORK/job2.json"
"$WORK/accelwall" -search -json -workload S3D -size 14 \
  -population 32 -generations 40 -seed 11 | jq -S . > "$WORK/ref2.json"
if ! diff -u "$WORK/ref2.json" "$WORK/job2.json"; then
  echo "FAIL: adopted repaired job differs from the uninterrupted run" >&2
  exit 1
fi

echo "PASS: 3-peer cluster sweeps byte-identical to a single node, the"
echo "      SIGKILLed peer's durable job $JOB was adopted by a survivor and"
echo "      recovered the identical result, and the repaired replica of"
echo "      $JOB2 survived a frozen successor plus a second owner death."
