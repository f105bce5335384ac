#!/usr/bin/env python3
"""Build accelwalld and the perfbench program from this checkout, then run one
benchmark invocation.

    python3 perfbench/run.py --workload uncertainty --seed 1 --seconds 20 --trace 0

Run from the repository root. Everything built or written stays under
.bench_build/ in the checkout: the Go build cache, both binaries, daemon
access logs, job stores and trace files. The program's last output line is
the result object. A traced run traces every workload BENCHMARK.json lists
(per-layer metrics are named <workload>.<layer metric>); this wrapper keeps
the metrics BENCHMARK.json lists for the mode and exits non-zero when one
is missing.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    return env


def build(env):
    """Build both binaries; go's cache makes repeat builds cheap."""
    steps = [
        (["go", "build", "-o", os.path.join(BUILD, "bin", "accelwalld"), "./cmd/accelwalld"], ROOT),
        (["go", "build", "-o", os.path.join(BUILD, "bin", "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("run.py: unknown workload " + args.workload)
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "accelwalld")):
        sys.exit("run.py: no accelwalld sources in " + ROOT)

    env = go_env()
    build(env)
    cmd = [os.path.join(BUILD, "bin", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD, "bin", "accelwalld"),
           "--work", os.path.join(BUILD, "runs"),
           "--traced", ",".join(w["name"] for w in spec["workloads"])]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run.py: perfbench exited %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in want if name not in result["metrics"]]
    if missing:
        sys.exit("run.py: perfbench reported no %s" % ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in want}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
