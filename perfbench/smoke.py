#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced, through run.py.

    python3 perfbench/smoke.py

Asserts that every metric BENCHMARK.json declares is printed by name with
its unit, that no op failed (failed_op_ratio is 0), and that the traced
run emits a per-layer row for each layer of the layer map in
perfbench/README.md. Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# lib/ directories (and the GC and the cost model) that must each have a row
LAYERS = ["sim", "link", "mach", "bpf", "ip", "udp", "tcp", "util", "mbuf",
          "core", "gc", "cost"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise SystemExit("smoke: %s trace=%d exited %d" % (workload, trace, r.returncode))
    return json.loads(r.stdout.splitlines()[-1])


def check(workload, trace, declared, result):
    where = "%s trace=%d" % (workload, trace)
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        assert got is not None, "%s: metric %s missing" % (where, m["name"])
        assert got["unit"] == m["unit"], "%s: %s unit %s, declared %s" % (
            where, m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), "%s: %s not a number" % (where, m["name"])
    extra = set(metrics) - {m["name"] for m in declared}
    assert not extra, "%s: undeclared metrics %s" % (where, sorted(extra))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        "%s: failed %d of %d ops" % (where, result["failed"], result["attempted"]))
    if trace:
        assert metrics["failed_op_ratio"]["value"] == 0, where + ": failed_op_ratio"
        for layer in LAYERS:
            assert any(n.startswith(layer + ".") for n in metrics), (
                "%s: no per-layer row for %s" % (where, layer))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check(w["name"], trace, bench[key], run(w["name"], trace))
            print("smoke: %s trace=%d ok" % (w["name"], trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
