#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The benchmark program (perfbench/perfbench.cpp) is built with CMake under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
in a checkout compiles the libraries, later runs rebuild incrementally.
Generated inputs and trace files go to <build root>/work/<run>/.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
program's host and configuration record. Exits non-zero, without a result,
when the library sources are missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "train", "type-binaries")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(target)


def source_digest():
    """A commit id for the record: git's when available, else a content hash
    of the sources the program is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:12]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        os.makedirs(build_dir, exist_ok=True)
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns the parsed result when it has the expected shape."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    want = expected_metrics(trace)
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, wrong unit %s" % (missing, extra, wrong))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s/src" % ROOT)
        return 1
    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1
    work_dir = os.path.join(root, "work", "%s-seed%d-trace%d" %
                            (args.workload, args.seed, args.trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", work_dir, "--commit", source_digest(),
               "--build-type", BUILD_TYPE + " (-O3, assertions on)"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("no result printed (exit %d)" % proc.returncode)
        return 1
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as error:
        log("malformed result: %s" % error)
        return 1
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
