#!/usr/bin/env python3
"""Diffs fresh benchmark results against the committed baselines.

    tools/compare_benches.py [--baseline-dir bench/baselines]
                             [--results-dir bench-results]
                             [--threshold 4.0] [--latency-threshold 10.0]

Two file shapes are understood, matched by name:

  * google-benchmark JSON (BENCH_match.json, BENCH_parallel_queries.json,
    BENCH_recovery.json, BENCH_emit_latency.json, BENCH_overload.json):
    each benchmark's real_time is compared by name; a fresh run slower
    than `baseline * threshold` fails.
  * the latency harness's flat JSON (BENCH_latency.json): p50_us / p99_us
    / p999_us are compared against `baseline * latency-threshold`, and
    rate_achieved must stay above `baseline / latency-threshold`.

The thresholds are deliberately generous: CI runners are noisy,
heterogeneous machines, so this is a regression *tripwire* (an order-of-
magnitude slip, an accidentally quadratic path), not a precision gate.
Benchmarks present on only one side are reported but never fail the run,
so adding or retiring a benchmark does not need a baseline refresh in the
same change. A fresh google-benchmark result that reports an error
(`"error_occurred": true`, from SkipWithError: a failed oracle diff or
self-check) fails the run whether or not it has a baseline.

Exit code: 0 = within thresholds (or nothing to compare), 1 = regression
or a bench error.
"""

import argparse
import json
import os
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def is_google_benchmark(doc):
    return isinstance(doc, dict) and "benchmarks" in doc


def benchmark_times(doc):
    """name -> real_time in ns (google-benchmark normalises to time_unit)."""
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        real_time = bench.get("real_time")
        if name is None or real_time is None:
            continue
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        times[name] = float(real_time) * scale
    return times


def benchmark_errors(name, doc, failures):
    """Adds a failure for every benchmark in `doc` that reported an error."""
    for bench in doc.get("benchmarks", []):
        if bench.get("error_occurred"):
            message = bench.get("error_message", "")
            print(f"{name}: [ERROR] {bench.get('name')}: {message}")
            failures.append(f"{name}: {bench.get('name')} failed: {message}")


def compare_google_benchmark(name, baseline, fresh, threshold, failures):
    base_times = benchmark_times(baseline)
    fresh_times = benchmark_times(fresh)
    for bench_name in sorted(base_times.keys() | fresh_times.keys()):
        if bench_name not in base_times:
            print(f"  [new]    {bench_name} (no baseline; skipped)")
            continue
        if bench_name not in fresh_times:
            print(f"  [gone]   {bench_name} (not in fresh run; skipped)")
            continue
        base = base_times[bench_name]
        cur = fresh_times[bench_name]
        ratio = cur / base if base > 0 else float("inf")
        verdict = "ok"
        if base > 0 and ratio > threshold:
            verdict = f"REGRESSION (> {threshold:.1f}x)"
            failures.append(f"{name}: {bench_name} {ratio:.2f}x slower")
        print(f"  [{verdict:>10}] {bench_name}: {base:.0f} ns -> {cur:.0f} ns"
              f" ({ratio:.2f}x)")


def compare_latency(name, baseline, fresh, threshold, failures):
    for key in ("p50_us", "p99_us", "p999_us"):
        base = float(baseline.get(key, 0))
        cur = float(fresh.get(key, 0))
        if base <= 0:
            print(f"  [new]    {key} (no baseline; skipped)")
            continue
        ratio = cur / base
        verdict = "ok"
        if ratio > threshold:
            verdict = f"REGRESSION (> {threshold:.1f}x)"
            failures.append(f"{name}: {key} {ratio:.2f}x slower")
        print(f"  [{verdict:>10}] {key}: {base:.0f} us -> {cur:.0f} us"
              f" ({ratio:.2f}x)")
    base_rate = float(baseline.get("rate_achieved", 0))
    cur_rate = float(fresh.get("rate_achieved", 0))
    if base_rate > 0:
        ratio = cur_rate / base_rate
        verdict = "ok"
        if ratio < 1.0 / threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: rate_achieved collapsed to {ratio:.2f}x of baseline")
        print(f"  [{verdict:>10}] rate_achieved: {base_rate:.0f}/s ->"
              f" {cur_rate:.0f}/s ({ratio:.2f}x)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--results-dir", default="bench-results")
    parser.add_argument("--threshold", type=float, default=4.0,
                        help="max slowdown ratio for google-benchmark times")
    parser.add_argument("--latency-threshold", type=float, default=10.0,
                        help="max slowdown ratio for harness percentiles")
    args = parser.parse_args()

    if not os.path.isdir(args.baseline_dir):
        print(f"no baseline directory at {args.baseline_dir}; "
              "nothing to compare")
        return 0
    if not os.path.isdir(args.results_dir):
        print(f"error: results directory {args.results_dir} not found",
              file=sys.stderr)
        return 1

    baselines = {f for f in os.listdir(args.baseline_dir)
                 if f.startswith("BENCH_") and f.endswith(".json")}
    results = {f for f in os.listdir(args.results_dir)
               if f.startswith("BENCH_") and f.endswith(".json")}

    failures = []
    for file_name in sorted(results):
        fresh = load_json(os.path.join(args.results_dir, file_name))
        if is_google_benchmark(fresh):
            benchmark_errors(file_name, fresh, failures)

    compared = 0
    for file_name in sorted(baselines | results):
        if file_name not in baselines:
            print(f"{file_name}: no committed baseline (skipped)")
            continue
        if file_name not in results:
            print(f"{file_name}: baseline has no fresh counterpart (skipped)")
            continue
        baseline = load_json(os.path.join(args.baseline_dir, file_name))
        fresh = load_json(os.path.join(args.results_dir, file_name))
        print(f"{file_name}:")
        if is_google_benchmark(baseline) and is_google_benchmark(fresh):
            compare_google_benchmark(file_name, baseline, fresh,
                                     args.threshold, failures)
        else:
            compare_latency(file_name, baseline, fresh,
                            args.latency_threshold, failures)
        compared += 1

    if failures:
        print("\nbenchmark regressions and errors:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if not compared:
        print("no overlapping benchmark files; nothing compared")
        return 0
    print(f"\nall {compared} benchmark file(s) within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
