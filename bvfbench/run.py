#!/usr/bin/env python3
"""Build and run the BVF repository benchmark.

Usage, from the root of a checkout:

    python3 bvfbench/run.py --workload campaign-stall --seed 1 \\
        --seconds 40 --trace 0

Builds the benchmark binary (bvfbench/CMakeLists.txt, which compiles the
libraries under src/) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs it. Build output goes to standard error; the
binary's report lines ('#'-prefixed) and its one-line JSON result go to
standard output, the JSON last. Exits non-zero, without a result, when
the checkout cannot be built or the binary fails.

--record-reference (campaign workloads, --trace 1) rewrites
bvfbench/reference/<workload>.txt from the run; use it only in a change
that alters modelled results on purpose.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign-stall", "campaign-dense", "kernel-service")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no BVF sources at {ROOT}/src; cannot build the benchmark")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    step = ["cmake", "--build", build_dir, "--target", "bvfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "bvfbench")


def check_result(run, trace):
    """Why the binary's output is not a valid result, or None."""
    if run.returncode != 0:
        return f"bvfbench exited with status {run.returncode}"
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "bvfbench printed no JSON result"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "bvfbench result has unexpected keys"
    # The binary and BENCHMARK.json must name the same metrics.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--reference-dir", os.path.join(HERE, "reference")]
    if args.trace == "1":
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.record_reference:
        command.append("--record-reference")

    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    problem = check_result(run, args.trace)
    if problem:
        # No result line on standard output for a failed run.
        sys.stderr.write(run.stdout)
        log(problem)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
