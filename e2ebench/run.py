#!/usr/bin/env python3
"""Build and run the gilr end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload cold-corpus --seed 1 --seconds 20 --trace 0

Builds e2ebench/ (which compiles the verifier from src/) into
$CARGO_TARGET_DIR or .bench_build, refuses unoptimised builds, runs the
benchmark binary and passes its output through. The last stdout line is the
result object. See e2ebench/README.md for the workloads and metrics.

Extra modes:
    --selftest             only the correctness-gate self-test
    --check-determinism    two traced runs of one seed; names every
                           deterministic counter that differs (exit 1)
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OPTIMISED_TYPES = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("configure failed")
            sys.exit(3)
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
    if build_type not in OPTIMISED_TYPES:
        log("refusing to benchmark a %r build" % build_type)
        sys.exit(3)
    r = subprocess.run(["cmake", "--build", build_dir, "-j3", "--target", "gilr_e2ebench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log("build failed")
        sys.exit(3)
    return os.path.join(build_dir, "gilr_e2ebench")


def run_bench(binary, extra):
    """Runs the benchmark binary from the repository root in its own process
    group; returns (exit code, stdout lines)."""
    cmd = [binary, "--corpus", "examples/corpus", "--work", ".bench_work",
           "--out", ".bench_out"] + extra
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        log("benchmark timed out")
        return 1, []
    finally:
        # The benchmark waits for every process it starts; this only reaps
        # stragglers of a run that died part-way (e.g. a daemon server).
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(os.path.join(ROOT, ".bench_work"), ignore_errors=True)
    return p.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--check-determinism", action="store_true")
    a = ap.parse_args()

    binary = build()
    if a.selftest:
        code, lines = run_bench(binary, ["--selftest"])
        print("\n".join(lines))
        return code
    if not a.workload:
        ap.error("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]

    if a.check_determinism:
        stem = os.path.join(ROOT, ".bench_out", "%s-seed%d-counters.json" % (a.workload, a.seed))
        if os.path.exists(stem):
            os.remove(stem)
        drift = []
        for _ in range(2):
            code, lines = run_bench(binary, args + ["--trace", "1"])
            if code != 0:
                return code
            drift = [l.rsplit(": ", 1)[1] for l in lines if "counter drifted" in l]
        print("determinism %s seed %d: %s" % (
            a.workload, a.seed, "drifted: " + ", ".join(drift) if drift else "all counters repeat"))
        return 1 if drift else 0

    code, lines = run_bench(binary, args + ["--trace", a.trace])
    print("\n".join(lines), flush=True)
    if code != 0 or not lines or not lines[-1].startswith("{"):
        log("benchmark failed (exit %d)" % code)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
