#!/usr/bin/env python3
"""End-to-end + per-layer benchmark for SymMerge.

Run from the repository root:

    python3 e2ebench/run.py --workload dsm-merge --seed 1 --seconds 20 --trace 0

Builds the benchmark package (e2ebench/CMakeLists.txt, an optimized
build of the library sources plus bench_e2e) under $CARGO_TARGET_DIR
(default .bench_build), runs one workload for --seconds, prints a report
with every metric by name and unit plus the host and build context, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; on timeout the whole group
    (a build's compiler processes included) is killed and reaped."""
    out = subprocess.PIPE if capture else sys.stderr
    proc = subprocess.Popen(cmd, stdout=out, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    return proc.returncode, stdout


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Driver.h")):
        fail("SymMerge sources (src/) not found next to e2ebench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "e2ebench")
    jobs = str(max(1, min(2, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if run(cmd, timeout=870)[0] != 0:
            fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "bench_e2e")
    if not os.access(binary, os.X_OK):
        fail("bench_e2e was not built")
    return binary


def host_context():
    ctx = {"nproc": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    ctx["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    ctx["git_sha"] = sha
    # Identifies the measured sources where no git metadata exists.
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    ctx["source_sha256"] = digest.hexdigest()[:16]
    return ctx


def percentile(sorted_samples, q):
    s = sorted_samples
    return s[min(len(s) - 1, int(q * (len(s) - 1) + 0.5))]


def spread_text(samples):
    """Quartiles, plus the highest of p90/p99 with ten samples beyond it."""
    s = sorted(samples)
    text = "q1 %.6g, q3 %.6g" % (percentile(s, 0.25), percentile(s, 0.75))
    for q in (0.99, 0.9):
        if len(s) * (1 - q) >= 10:
            text += ", p%d %.6g" % (round(q * 100), percentile(s, q))
            break
    return text


def report(result, context):
    print("== e2ebench %s: %s, %s, workers=%d, testgen threads=%d, trace=%d"
          % (context["workload"], context["program"], context["mode"],
             context["workers"], context["testgen_threads"],
             context["trace"]))
    print("   host: nproc=%s cpu=%s" % (context["nproc"], context["cpu_model"]))
    print("   build: %s [%s] %s, optimized=%s"
          % (context["build_type"], context["cxx_flags"].strip(),
             context["compiler"], context["optimized"]))
    print("   source: git %s, src sha256 %s"
          % (context["git_sha"], context["source_sha256"]))
    seeds = context["engine_seeds"]
    print("   seed %d (engine seeds %d..%d, %d timed runs after a warm-up)"
          % (context["seed"], seeds[0], seeds[-1], context["runs"]))
    if not context["optimized"]:
        print("   WARNING: unoptimized build; do not compare with optimized"
              " results")
    for name, m in result["metrics"].items():
        line = "   %-26s %14.6g %-6s" % (name, m["value"], m["unit"])
        if "n" in m:
            line += " median of n=%d (%s)" % (m["n"], spread_text(m["samples"]))
        print(line)
    print("   outcome: %d/%d runs failed (oracle, budget, %s)"
          % (result["failed"], result["attempted"], result["checks"]))
    for why in result["failures"]:
        print("   FAILED: " + why)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, stdout = run(cmd, timeout=170, capture=True)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail("bench_e2e exited with %d" % code)
    result = json.loads(lines[-1])
    context = dict(result["context"], **host_context())
    report(result, context)

    missing = [n for n in wanted if n not in result["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    metrics = {n: {"value": result["metrics"][n]["value"],
                   "unit": result["metrics"][n]["unit"]} for n in wanted}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
