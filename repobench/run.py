#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the program's libraries and
the benchmark binary from source into .bench_build/, generates the
workload's input files from the seed, and then runs the workload for about
S seconds, one pass per process, so every pass starts cold as a real
`copyattack attack` or `attack-server` process does. Prints a report and,
as its last line, one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (names and units as in BENCHMARK.json).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import stats  # noqa: E402  (after the flag above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(STATE, "repobench")
BINARY = os.path.join(BUILD, "repobench")
BUILD_JOBS = "3"
# Untraced passes per run at least, so every end-to-end figure is a median.
MIN_PASSES = 2


def fail(message):
    print("repobench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "repobench", "-j", BUILD_JOBS],
        stdout=sys.stderr, stderr=sys.stderr)
    if compile_.returncode != 0:
        fail("build failed")


class Runner:
    """Runs passes of one workload and keeps what each measured."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.passes = {0: [], 1: []}
        self.peak_rss_mb = []
        self.report = []

    def run_pass(self, trace):
        scratch = os.path.join(self.work, "scratch")
        shutil.rmtree(scratch, ignore_errors=True)
        command = [BINARY, "run", "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--trace", str(trace),
                   "--input", os.path.join(self.work, "input"),
                   "--scratch", scratch, "--state", STATE]
        started = time.monotonic()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        output = proc.stdout.read()
        proc.stdout.close()
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stdout.write(output)
            fail("workload process exited with %d" % proc.returncode)
        lines = output.rstrip("\n").split("\n")
        record = json.loads(lines[-1])
        self.passes[trace].append(record)
        if trace == 0:
            self.peak_rss_mb.append(usage.ru_maxrss / 1024.0)  # KiB -> MB
        else:
            self.report = lines[:-1]
        return time.monotonic() - started


def first_run_check(path, digest, what):
    """Compares with the digest the first run in this checkout recorded.

    Returns (ok, message); the first run records its digest and passes.
    """
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(digest + "\n")
        return True, ""
    with open(path) as f:
        recorded = f.read().strip()
    message = "%s digest %s differs from the first run's %s" % (
        what, digest, recorded)
    return recorded == digest, message


def end_to_end(runner):
    passes = runner.passes[0]
    jobs = [latency for p in passes for latency in p["job_s"]]
    p80, beyond, supported = stats.tail_percentile(jobs, 0.8)
    runner.report.append(
        "  passes: %d, job samples: %d, samples above p80: %d%s"
        % (len(passes), len(jobs), beyond, "" if supported else
           " (fewer than %d: no tail is measured, job_p80_s reports the"
           " median)" % stats.MIN_TAIL_SAMPLES))
    if not supported:
        p80 = stats.median(jobs)
    runner.report.append("  pass wall_s: " + " ".join(
        "%.4f" % p["wall_s"] for p in passes))
    runner.report.append("  hr20 (mean HR@20 of attacked targets): %r"
                         % passes[0]["hr20"])
    return {
        "setup_s": (stats.median([p["setup_s"] for p in passes]), "s"),
        "wall_s": (stats.median([p["wall_s"] for p in passes]), "s"),
        "targets_per_s": (stats.median(
            [p["targets"] / p["campaign_s"] for p in passes]), "1/s"),
        "jobs_per_s": (stats.median(
            [len(p["job_s"]) / p["campaign_s"] for p in passes]), "1/s"),
        "job_p50_s": (stats.median(jobs), "s"),
        "job_p80_s": (p80, "s"),
        "peak_rss_mb": (stats.median(runner.peak_rss_mb), "MB"),
        "target_hr10": (passes[0]["target_hr10"], "frac"),
    }


def per_layer(runner):
    traced = runner.passes[1]
    metrics = {}
    for name, entry in traced[-1]["metrics"].items():
        metrics[name] = (stats.median(
            [t["metrics"][name]["value"] for t in traced]), entry["unit"])
    untraced = stats.median([p["wall_s"] for p in runner.passes[0]])
    with_trace = stats.median([t["wall_s"] for t in traced])
    metrics["obs.trace_overhead_frac"] = (
        (with_trace - untraced) / untraced, "frac")
    runner.report.append("  passes: %d untraced, %d traced" % (
        len(runner.passes[0]), len(traced)))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under " + os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()

    work = os.path.join(STATE, "work", "%s-seed%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(args, work)
    try:
        generate = subprocess.run(
            [BINARY, "gen", "--workload", args.workload,
             "--seed", str(args.seed), "--dir", os.path.join(work, "input")])
        if generate.returncode != 0:
            fail("input generation failed")
        # Passes run while the next one is expected to end inside the
        # measuring time; a traced run alternates untraced and traced
        # passes, so the tracing overhead compares like with like.
        started = time.monotonic()
        durations = []
        while True:
            if args.trace:
                durations.append(runner.run_pass(0) + runner.run_pass(1))
                enough = True
            else:
                durations.append(runner.run_pass(0))
                enough = len(durations) >= MIN_PASSES
            elapsed = time.monotonic() - started
            if enough and elapsed + stats.median(durations) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Correctness: every pass reproduces the first bit for bit, and the
    # first matches the first run of this workload and seed in the checkout.
    records = runner.passes[0] + runner.passes[1]
    checks = [(r["digest"] == records[0]["digest"],
               "pass digest %s differs from the first pass's %s"
               % (r["digest"], records[0]["digest"])) for r in records]
    key = os.path.join(STATE, "digests", "%s-seed%d" % (
        args.workload, args.seed))
    checks.append(first_run_check(key + ".digest", records[0]["digest"],
                                  "result"))
    if args.trace:
        counts = [t["counts_digest"] for t in runner.passes[1]]
        checks += [(c == counts[0], "pass counts differ") for c in counts]
        checks.append(first_run_check(key + ".counts", counts[0], "count"))
    attempted = sum(r["attempted"] for r in records) + len(checks)
    failures = [f for r in records for f in r["failures"]]
    failures += [message for ok, message in checks if not ok]
    failed = sum(r["failed"] for r in records) + sum(
        1 for ok, _ in checks if not ok)

    measured = per_layer(runner) if args.trace else end_to_end(runner)
    measured["failed_frac"] = (failed / attempted, "frac")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            fail("the benchmark binary did not measure " + name)
        value, unit = measured[name]
        if unit != metric["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (name, unit, metric["unit"]))
        metrics[name] = {"value": value, "unit": unit}

    print("workload %s, seed %d, trace %d"
          % (args.workload, args.seed, args.trace))
    for name, (value, unit) in measured.items():
        print("  %s = %r %s" % (name, value, unit))
    for line in runner.report:
        print(line)
    print("  operations: %d attempted, %d failed" % (attempted, failed))
    for failure in failures:
        print("  FAILED: " + failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
