#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <analytics-rmat17|service-mix|wire-hot>
                             --seed N --seconds S --trace <0|1>

Run from the root of a source tree. The benchmark and the simdx library are
built from source (Release) into .bench_build/perfbench, and the benchmark's
self-tests run before every measurement. With --trace 1 the spans are
written to .bench_build/traces/. The last line of stdout is the result JSON;
its metric names and units are checked against BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True)
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def check_metrics(spec, result, trace):
    """The result must report exactly BENCHMARK.json's metrics, in its units."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(n for n in want if n in got and want[n] != got[n])))
        return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        return selftest.returncode

    os.makedirs(os.path.join(ROOT, ".bench_build", "sock"), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--socket-dir", os.path.join(".bench_build", "sock"),
           "--source-id", source_id()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        log("no result line (exit code %d)" % run.returncode)
        return run.returncode or 1
    if not check_metrics(spec, result, args.trace):
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
