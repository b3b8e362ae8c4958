#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--p99-limit-ms <ms>]

Run from the root of a checkout. The first call configures and builds
perfbench/ (the driver plus the library sources under src/) into
.bench_build/perfbench; later calls rebuild only what changed. The
driver's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; with --trace 1 the
metrics are the per-layer ones. See perfbench/README.md.

Exits non-zero without printing a result when the sources are missing,
the build fails, a setting-changing environment variable is set, or
the run fails; exits 1 after printing the result when a correctness
check failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("corpus-ingest", "corpus-grid", "serve-open", "aliasing-3c")

# Each of these silently changes the program being measured.
FORBIDDEN_ENV = ("BPRED_TRACE_SCALE", "BPRED_TRACE_CACHE", "BPRED_THREADS",
                 "BPRED_GANG_WIDTH", "BPRED_SIMD")

BUILD_JOBS = 3
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--p99-limit-ms", type=float, default=5.0)
    return parser.parse_args()


def source_id():
    """Git SHA when there is one, plus a digest of the built sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = "unknown"
    return "git:%s tree:%s" % (sha, digest.hexdigest()[:16])


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
             "-j", str(BUILD_JOBS)],
            stdout=sys.stderr, check=True)


def expected_metrics(workload, traced):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    if workload not in [w["name"] for w in spec["workloads"]]:
        return None
    key = "per_layer" if traced else "end_to_end"
    return sorted(m["name"] for m in spec[key])


def main():
    args = parse_args()
    for name in FORBIDDEN_ENV:
        if name in os.environ:
            fail("refusing to run with %s set; it changes the program "
                 "being measured" % name, 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not shutil.which("cmake"):
        fail("cmake not found")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    scratch = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [DRIVER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--scratch", scratch,
               "--p99-limit-ms", repr(args.p99_limit_ms),
               "--source", source_id()]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = run.stdout.splitlines()
    if run.returncode not in (0, 3) or not lines:
        sys.stdout.write(run.stdout)
        fail("driver exited with %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        fail("driver printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys: %s" % sorted(result))
    want = expected_metrics(args.workload, args.trace == "1")
    if want is not None and sorted(result["metrics"]) != want:
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    if not result["correct"] or result["failed"] != 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
