#!/usr/bin/env python3
"""Repository benchmark for the Atlas SMR library.

Run from the root of a checkout:

    python3 atlasbench/run.py --workload tcp_p4_hot --seed 1 --seconds 24 --trace 0
    python3 atlasbench/run.py --workload all --seed 1 --trace 1

Builds atlasbench/ (and through it the library) with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one workload.
The workloads and their parameters are in atlasbench/spec.json; the metric
names and units are the ones BENCHMARK.json lists. With --trace 0 the result
carries every end-to-end metric, with --trace 1 every per-layer metric (the
per-layer metrics spec.json lists as not applicable to a kind of workload read
0 and are marked n/a in the table). Before the result, a table gives each metric's value, unit and sample
count. The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status: 0 for a correct run; 1 when the run completed but a correctness
check failed (the result line says correct: false); anything else, with no
result line, when the build or the run itself failed. Traced runs also write
their spans to <build dir>/runs/spans-<workload>-seed<N>.tsv.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print("atlasbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        die("no library sources next to atlasbench/ (expected ../CMakeLists.txt)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "atlasbench", "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "atlasbench")


def run_workload(binary, out_dir, name, spec, seed, seconds, trace):
    cmd = [binary, "--workload", name, "--kind", spec["kind"], "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", out_dir]
    for key, value in spec["params"].items():
        cmd += ["--param", "%s=%s" % (key, value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        die("%s exited with status %d" % (name, proc.returncode))
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        die("%s printed no result" % name)
    return json.loads(lines[-1])


def result_line(raw, metric_defs, name, not_applicable):
    """The result's metrics and table rows. A metric the run did not measure
    is an error, unless it is in not_applicable (a per-layer metric of a layer
    the workload does not exercise): then it is a 0 shown as n/a."""
    metrics = {}
    rows = []
    for m in metric_defs:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if m["name"] not in not_applicable:
                die("%s did not report %s" % (name, m["name"]))
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            rows.append((m["name"], "n/a", m["unit"], 0))
            continue
        if got["unit"] != m["unit"]:
            die("%s reports %s in %s, BENCHMARK.json says %s"
                % (name, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        rows.append((m["name"], "%.6g" % got["value"], m["unit"], got["samples"]))
    return metrics, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    names = [w["name"] for w in bench["workloads"]]
    for n in names:
        if n not in spec["workloads"]:
            die("BENCHMARK.json workload %s is not defined in spec.json" % n)
    if args.workload != "all" and args.workload not in names:
        die("unknown workload %s (choose from %s or all)" % (args.workload, ", ".join(names)))
    seconds = args.seconds or bench["run_seconds"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)

    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    status = 0
    for name in (names if args.workload == "all" else [args.workload]):
        raw = run_workload(binary, out_dir, name, spec["workloads"][name], args.seed,
                           seconds, args.trace)
        kind = spec["workloads"][name]["kind"]
        not_applicable = spec["not_applicable"][kind] if args.trace else []
        metrics, rows = result_line(raw, defs, name, not_applicable)
        print("== %s  seed=%d  seconds=%d  trace=%d  attempted=%d  failed=%d  correct=%s"
              % (name, args.seed, seconds, args.trace, raw["attempted"], raw["failed"],
                 raw["correct"]))
        for err in raw["errors"]:
            print("   error: " + err)
        print("   %-26s %14s  %-6s %10s" % ("metric", "value", "unit", "samples"))
        for r in rows:
            print("   %-26s %14s  %-6s %10s" % r)
        if not raw["correct"]:
            status = 1
        result = {"correct": raw["correct"], "attempted": raw["attempted"],
                  "failed": raw["failed"], "metrics": metrics}
    sys.stdout.flush()
    if args.workload != "all":
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
