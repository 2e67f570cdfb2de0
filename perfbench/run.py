#!/usr/bin/env python3
"""Runs one workload of the Seraph benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--corrupt-digest]

Run from the root of a source checkout. The first run builds the engine
and the benchmark driver (CMake, Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset. Each run then

  1. computes the reference output digest of the seed's input in its own
     process (an engine with every fast path off; cached per seed and
     binary),
  2. runs the measurement, which compares every output digest with it,
  3. prints the driver's lines and, as the last line, one JSON object
     {"correct", "attempted", "failed", "metrics"}.

Exit code 0 when the output matched the reference, 1 otherwise. When the
build or the run fails no result line is printed. --corrupt-digest flips
the reference digest on purpose, to show that a mismatch fails the run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("rpq_paths", "crime_window", "serve_durable")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    binary = os.path.join(build_dir, "seraph_perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "seraph_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    if not os.path.exists(binary):
        fail("build produced no " + binary)
    return binary


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def file_sha1(path):
    digest = hashlib.sha1()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_timeout(seconds):
    # A traced serve_durable run sends for twice --seconds and then sets up
    # and recovers several times; 170 s at the usual --seconds 20.
    return 4 * seconds + 90


def run(cmd, cwd, seconds):
    try:
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                              timeout=run_timeout(seconds))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def reference_digest(binary, args, build_dir, root):
    cache_dir = os.path.join(build_dir, "perfbench-ref")
    key = "%s-s%d-t%d-tr%d-%s.json" % (args.workload, args.seed, args.seconds,
                                       args.trace, file_sha1(binary)[:16])
    cache = os.path.join(cache_dir, key)
    if os.path.exists(cache):
        with open(cache) as f:
            return json.load(f)["reference_digest"]
    done = run([binary, "--reference", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)], root, args.seconds)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail("reference run failed")
    digest = json.loads(done.stdout.strip().splitlines()[-1])[
        "reference_digest"]
    os.makedirs(cache_dir, exist_ok=True)
    with open(cache, "w") as f:
        json.dump({"reference_digest": digest}, f)
    return digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-digest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    # Compilers and CMake write temporaries to TMPDIR; keep them in the
    # checkout's build tree.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build(root, build_dir)

    expected = reference_digest(binary, args, build_dir, root)
    if args.corrupt_digest:
        expected = "%016x" % (int(expected, 16) ^ 1)

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-digest", expected, "--work-dir", work_dir,
           "--git-commit", git_commit(root)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = run(cmd, root, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("measurement failed (exit %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("measurement printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
