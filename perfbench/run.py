#!/usr/bin/env python3
"""Build and run the DeepBase benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke      # self-test: every workload, tiny

The first call configures and builds the library (src/) and the benchmark
program (perfbench/src/) into .bench_build/perfbench; later calls only
re-check the build. The program's last stdout line is the result JSON; the
exit code is
non-zero when the build fails, a table differs from its oracle, or a
metric is missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["cold_scan", "warm_reinspect", "serve_mix", "cluster_sliced"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_sha():
    """sha256 over the library sources (paths and bytes), so results from a
    checkout without git history still name the code they measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_perfbench(args, echo=True):
    """Run the benchmark program; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", args["workload"], "--seed", str(args["seed"]),
           "--seconds", str(args["seconds"]), "--trace", str(args["trace"]),
           "--work-dir", WORK_DIR, "--git-sha", git_sha(),
           "--source-sha", source_sha()]
    if args.get("smoke"):
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1, []
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def smoke():
    """Every workload at tiny size, plain and traced: each named metric is
    emitted with its unit, every oracle passes, nothing fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in names:
        for trace in (0, 1):
            code, lines = run_perfbench({"workload": workload, "seed": 1,
                                         "seconds": 2, "trace": trace,
                                         "smoke": True}, echo=False)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (tag, code))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (tag, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: correct=%s failed=%s" % (
                    tag, result.get("correct"), result.get("failed")))
            if not isinstance(result.get("attempted"), int) or \
                    result["attempted"] < 1:
                problems.append("%s: attempted=%s" % (tag,
                                                      result.get("attempted")))
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics %s, want %s" % (
                    tag, sorted(got.items()), sorted(expected[trace].items())))
            if not lines[0].startswith("host {"):
                problems.append("%s: no host fingerprint" % tag)
            print("smoke %-14s trace=%d attempted=%d correct=%s" % (
                workload, trace, result.get("attempted", 0),
                result.get("correct")), flush=True)
    for p in problems:
        log("smoke: " + p)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload at tiny size")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, _ = run_perfbench(vars(args))
    return code


if __name__ == "__main__":
    sys.exit(main())
