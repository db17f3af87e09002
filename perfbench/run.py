#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload rpc --seed 1 --seconds 15 --trace 0

Builds perfbench/main.exe with dune from the surrounding checkout, in
.bench_build, runs it once, prints the environment it ran in, and prints
as the last line of standard output one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per-layer with
--trace 1). Every result line is also appended to
.perfbench/results.jsonl together with the environment. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
# a build directory of its own, so that a dune already running in _build
# (a test run, a watch) neither blocks the benchmark nor is disturbed by it
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["bulk", "rpc", "farm", "churn"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-1 over the library and benchmark sources, in path order: names
    the code that ran even where the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".txt")):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(env):
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT, "--build-dir", BUILD,
                            "./perfbench/main.exe"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")
    return os.path.join(BUILD, "default", "perfbench", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["default", "tiny"], default="default")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("perfbench/ must sit in a checkout of the repository "
             "(dune-project and lib/ not found)")

    # the program's own GC defaults: no inherited runtime settings, and no
    # dune cache outside the checkout
    env = {k: v for k, v in os.environ.items() if k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    exe = build(env)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--fingerprints", os.path.join(HERE, "fingerprints"),
           "--out", OUT]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("psdperf exited with %d" % r.returncode, 1)
    result = json.loads(lines[-1])

    host = {
        "commit": git_commit(),
        "source_sha1": source_digest(),
        "nproc": os.cpu_count(),
        "size": args.size,
        "wall_s": round(time.monotonic() - t0, 3),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        record = {"host": host, "result": result}
        for line in lines[:-1]:
            record.update(json.loads(line))
        fh.write(json.dumps(record) + "\n")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
