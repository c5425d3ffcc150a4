#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library with the repository's
own CMake project and the benchmark package in this directory (into
$CARGO_TARGET_DIR, default .bench_build), runs the checker self-test, then
runs one workload. The last line printed is the JSON summary; the full
detail record (environment, every metric with unit and sample count, every
failed check) and, for traced runs, the span file land in
<build dir>/results/.

Exits non-zero without printing a summary when the checkout has no library
sources, when a build or the self-test fails, or when the workload binary
fails or overruns.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pnn_stream", "build_skewed", "durable_churn", "sharded_clustered")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, cwd, timeout):
    """Runs a build step; its output goes to stderr so stdout stays clean."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")


def build(root, build_dir, deadline):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    lib_dir = os.path.join(build_dir, "uvd")
    bench_dir = os.path.join(build_dir, "perfbench")
    remaining = lambda: max(1.0, deadline - time.monotonic())
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", root, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release",
                   "-DUVD_BUILD_TESTS=OFF", "-DUVD_BUILD_BENCHES=OFF",
                   "-DUVD_BUILD_EXAMPLES=OFF"], root, remaining())
    run_quiet(["cmake", "--build", lib_dir, "--target", "uvd", "-j", jobs], root,
              remaining())
    library = os.path.join(lib_dir, "libuvd.a")
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=Release",
                   f"-DUVD_LIBRARY={library}",
                   f"-DUVD_SOURCE_DIR={os.path.join(root, 'src')}"], root, remaining())
    run_quiet(["cmake", "--build", bench_dir, "-j", jobs], root, remaining())
    return bench_dir


def source_digest(root):
    """SHA-256 over the library sources, the root build file and this
    package, so a record names the code it measured even without git."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    started = time.monotonic()
    root = os.getcwd()
    if not (os.path.isdir(os.path.join(root, "src"))
            and os.path.isfile(os.path.join(root, "CMakeLists.txt"))):
        log("run from the root of a checkout: no src/ or CMakeLists.txt here")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, build_dir))

    # The first run in a checkout builds everything; later runs only check.
    try:
        bench_dir = build(root, build_dir, started + 850)
        selftest = subprocess.run([os.path.join(bench_dir, "checker_selftest")],
                                  stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 3
    if selftest.returncode != 0:
        log("checker self-test failed")
        return 4

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(bench_dir, "uvd_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--work-dir", work_dir,
           "--out-dir", os.path.join(build_dir, "results"),
           "--git-sha", git_sha(root), "--src-digest", source_digest(root)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload overran {RUN_TIMEOUT_S} s")
        return 5
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"workload exited with {proc.returncode}")
        return 6
    try:
        summary = json.loads(lines[-1])
        names = list(summary["metrics"])
    except (ValueError, KeyError, TypeError):
        log("workload printed no summary line")
        return 7
    if names != expected_metrics(root, args.trace == "1"):
        log("summary metrics do not match BENCHMARK.json")
        return 8
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
