#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout. The first call configures and builds
perfbench/ (which compiles the gdf library from ../src) into .bench_build/
at the checkout root; later calls only rebuild what changed. fsm_adi's
circuit is generated into .bench_build/inputs/ before the measuring program
starts, so the program reads only the .bench file. A traced run writes its
spans to .bench_build/trace/.

Standard output ends with two lines: run details with the host's
provenance, then the result object (correct, attempted, failed, metrics).
The exit status is the measuring program's: 0 when every correctness check
passed, non-zero otherwise, and non-zero without a result when the build or
the program fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("catalog", "tail_sharded", "fsm_adi")
# A run must end within 180 s; the measuring program gets what is left
# after the (no-op) rebuild and the input generation.
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds the targets; build output goes to stderr."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            log("missing", required, "- the benchmark builds the library from",
                "the checkout's sources")
            sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", *targets], stdout=sys.stderr, check=True)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return {"git_commit": out.stdout.strip()}
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"git_commit": None, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="build and run the benchmark's smoke test")
    args = parser.parse_args()

    if args.smoke:
        build(["perfbench_smoke"])
        return subprocess.run([os.path.join(BUILD, "perfbench_smoke")],
                              cwd=BUILD).returncode
    if args.workload is None:
        parser.error("--workload is required")

    build(["gdf_perfbench"])
    program = os.path.join(BUILD, "gdf_perfbench")
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.workload == "fsm_adi":
        inputs = os.path.join(BUILD, "inputs")
        os.makedirs(inputs, exist_ok=True)
        bench = os.path.join(inputs, "fsm_adi.bench")
        subprocess.run([program, "--generate-fsm", bench], check=True)
        command += ["--bench", bench]
    if args.trace == "1":
        traces = os.path.join(BUILD, "trace")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]

    provenance = {
        "nproc": os.cpu_count(),
        "load_avg_before": list(os.getloadavg()),
        "cpu_model": cpu_model(),
        **source_revision(),
    }
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    provenance["load_avg_after"] = list(os.getloadavg())
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"measuring program exited {done.returncode} without a result")
        return done.returncode or 2
    details = json.loads(lines[-2])["details"]
    # Build type, LTO and worker count come from the program itself.
    for key in ("build_type", "lto", "workers"):
        provenance[key] = details.pop(key)
    print(json.dumps({"provenance": provenance, "details": details}))
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
