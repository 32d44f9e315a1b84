#!/usr/bin/env python3
"""Guard the DSP hot-path benchmarks against performance regressions.

Compares a google-benchmark JSON run of bench/micro_dsp against the committed
baseline (bench/baselines/micro_dsp.json). Absolute nanoseconds are useless
across machines, so every watched kernel is normalized by a calibration
benchmark measured in the same run — a scalar streaming-FIR loop whose code
this repo treats as frozen. A kernel fails if its normalized time grew by
more than the threshold (default 30%) relative to the baseline's normalized
time.

Usage:
  check_bench.py results.json                    # compare against baseline
  check_bench.py results.json --update           # re-pin the baseline
  check_bench.py results.json --threshold 0.5    # custom tolerance

Exit codes: 0 ok, 1 regression or malformed input.
"""

import argparse
import json
import re
import sys
from pathlib import Path

# Kernels the perf PRs promised: the preamble sync correlation and FFT paths
# (plus the decimated FIR that replaced full-rate filtering on the demod
# chain), the mixer, the
# end-to-end waveform trial, the fleet simulator's hot path (event queue,
# spatial grid, budget-fidelity run), the two per-poll costs of a budget
# poll (link-budget evaluation, report-frame serialize + CRC-checked parse)
# the whole budget-fidelity poll exchange (query -> report -> ACK),
# ambient-noise synthesis (passband and baseband) with its batch Gaussian
# sampler, the static-tap channel gather, and the run-summed front end the
# waveform trial runs on its carrier envelope.
# This also covers the *Scalar twins of two vectorized kernels (FFT stages,
# Gaussian fill) and of the trial, which also runs the third (the sync step
# sums) scalar, so the reference path is regression-gated alongside the
# dispatched one. The decimating FIR has no
# vector path and no twin: BM_FirDecimate times its one scalar loop.
WATCH_PATTERN = re.compile(
    r"Correlate|Fft|FirDecimate|Downconvert|WaveformTrial|Fleet|LinkBudget|Frame|Poll|"
    r"Noise|Gaussian|ApplyTaps|EnvelopeFrontEnd")

# Machine-speed proxy: plain streaming FIR, untouched scalar code. Not in the
# watchlist, so a genuine FFT/correlation regression cannot hide in it.
CALIBRATION = "BM_FirFilterComplex/255"

SCHEMA = "vab-bench-baseline-v1"


def load_run(path):
    """Returns {name: real_time_ns} from a google-benchmark JSON file."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        out[b["name"]] = float(b["real_time"])
    if not out:
        raise ValueError(f"{path}: no benchmark entries found")
    return out


def load_baseline(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: expected schema {SCHEMA!r}")
    return doc["benchmarks"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", help="google-benchmark JSON output of micro_dsp")
    ap.add_argument("--baseline",
                    default=str(Path(__file__).resolve().parent.parent /
                                "bench" / "baselines" / "micro_dsp.json"))
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="allowed relative growth of normalized time (default 0.30)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run instead of comparing")
    args = ap.parse_args()

    try:
        current = load_run(args.results)
    except (OSError, ValueError, KeyError) as e:
        print(f"check_bench: cannot read results: {e}", file=sys.stderr)
        return 1

    if CALIBRATION not in current:
        print(f"check_bench: calibration benchmark {CALIBRATION} missing from run",
              file=sys.stderr)
        return 1

    if args.update:
        doc = {"schema": SCHEMA, "calibration": CALIBRATION,
               "benchmarks": {k: current[k] for k in sorted(current)}}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"check_bench: baseline re-pinned to {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError, KeyError) as e:
        print(f"check_bench: cannot read baseline: {e}", file=sys.stderr)
        return 1
    if CALIBRATION not in baseline:
        print(f"check_bench: calibration benchmark {CALIBRATION} missing from baseline",
              file=sys.stderr)
        return 1

    cal_cur = current[CALIBRATION]
    cal_base = baseline[CALIBRATION]
    failures = []
    print(f"{'benchmark':38s} {'base(norm)':>12s} {'now(norm)':>12s} {'delta':>8s}")
    for name in sorted(baseline):
        if not WATCH_PATTERN.search(name):
            continue
        if name not in current:
            failures.append(f"{name}: watched kernel missing from run")
            continue
        norm_base = baseline[name] / cal_base
        norm_cur = current[name] / cal_cur
        delta = norm_cur / norm_base - 1.0
        flag = " FAIL" if delta > args.threshold else ""
        print(f"{name:38s} {norm_base:12.4g} {norm_cur:12.4g} {delta:+7.1%}{flag}")
        if delta > args.threshold:
            failures.append(f"{name}: normalized time grew {delta:+.1%} "
                            f"(threshold {args.threshold:.0%})")

    if failures:
        print("\ncheck_bench: PERF REGRESSION", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_bench: all watched kernels within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
