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
  check_bench.py results.json --threshold 0.5    # custom tolerance
  check_bench.py --update --bench build/bench/micro_dsp
                                                 # re-pin the baseline
  check_bench.py --update --bench ... --only 'Fft|Noise'
                                                 # re-pin matching kernels

--update runs the suite the way CI runs it (CI_ARGS: every benchmark at
--benchmark_min_time=0.2) UPDATE_RUNS (5) times and pins each benchmark at
the median of its normalized times, so a pin reads like the run it will be
compared against. Pins from filtered or longer runs read some kernels
10-20 % fast against CI's full-suite run and start them that far up the
gate.

Exit codes: 0 ok, 1 regression or malformed input.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Kernels the perf PRs promised: the preamble sync correlation and FFT paths
# (plus the decimated FIR that replaced full-rate filtering on the demod
# chain), the mixer, the
# end-to-end waveform trial, the fleet simulator's hot path (event queue,
# spatial grid, budget-fidelity run), the two per-poll costs of a budget
# poll (link-budget evaluation, report-frame serialize + CRC-checked parse)
# the whole budget-fidelity poll exchange (query -> report -> ACK),
# ambient-noise synthesis (passband and baseband) with its batch Gaussian
# sampler, the static-tap channel gather, and the run-summed front end and
# the return leg's event merge the waveform trial runs on its carrier
# envelope.
# This also covers the *Scalar twins of two vectorized kernels (FFT stages,
# Gaussian fill) and of the trial, which also runs the third (the sync step
# sums) scalar, so the reference path is regression-gated alongside the
# dispatched one. The decimating FIR has no
# vector path and no twin: BM_FirDecimate times its one scalar loop.
WATCH_PATTERN = re.compile(
    r"Correlate|Fft|FirDecimate|Downconvert|WaveformTrial|Fleet|LinkBudget|Frame|Poll|"
    r"Noise|Gaussian|ApplyTaps|EnvelopeFrontEnd|ReturnLeg")

# Machine-speed proxy: plain streaming FIR, untouched scalar code. Not in the
# watchlist, so a genuine FFT/correlation regression cannot hide in it.
CALIBRATION = "BM_FirFilterComplex/255"

SCHEMA = "vab-bench-baseline-v1"

# The gate run's arguments in .github/workflows/ci.yml ("Perf smoke (DSP
# kernels vs committed baseline)"), less its --benchmark_out; --update runs
# exactly these.
CI_ARGS = ["--benchmark_min_time=0.2", "--benchmark_format=json"]
UPDATE_RUNS = 5


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


def run_suite(bench):
    """Runs `bench` with CI_ARGS UPDATE_RUNS times; returns each run's times."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(UPDATE_RUNS):
            path = Path(tmp) / f"run{i}.json"
            subprocess.run([bench, *CI_ARGS, f"--benchmark_out={path}"],
                           stdout=subprocess.DEVNULL, check=True)
            out.append(load_run(path))
            print(f"check_bench: run {i + 1}/{UPDATE_RUNS} done", file=sys.stderr)
    return out


def median_pins(runs):
    """Per benchmark, the median over runs of its calibration-normalized
    time, scaled back by the median calibration time: the baseline's
    normalized value is then the median of the runs' normalized values.
    Every run must hold the same benchmarks (the full suite)."""
    names = set(runs[0])
    for r in runs[1:]:
        if set(r) != names:
            raise ValueError("runs hold different benchmarks; pin from full-suite runs")
    cal = statistics.median(r[CALIBRATION] for r in runs)
    return {k: statistics.median(r[k] / r[CALIBRATION] for r in runs) * cal
            for k in sorted(names)}


def update(args):
    try:
        runs = run_suite(args.bench)
        if any(CALIBRATION not in r for r in runs):
            raise ValueError(f"calibration benchmark {CALIBRATION} missing from a run")
        pins = median_pins(runs)
        if args.only:
            # Only the matching kernels move, each to its median normalized
            # time at the kept calibration pin; every other pin stays.
            kept = load_baseline(args.baseline)
            scale = kept[CALIBRATION] / pins[CALIBRATION]
            only = re.compile(args.only)
            moved = {k: v * scale for k, v in pins.items()
                     if only.search(k) and k != CALIBRATION}
            pins = dict(sorted({**kept, **moved}.items()))
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        print(f"check_bench: cannot re-pin: {e}", file=sys.stderr)
        return 1
    doc = {"schema": SCHEMA, "calibration": CALIBRATION, "benchmarks": pins}
    with open(args.baseline, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"check_bench: baseline re-pinned to {args.baseline} "
          f"(median of {UPDATE_RUNS} runs)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", nargs="?",
                    help="google-benchmark JSON output of micro_dsp")
    ap.add_argument("--baseline",
                    default=str(Path(__file__).resolve().parent.parent /
                                "bench" / "baselines" / "micro_dsp.json"))
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="allowed relative growth of normalized time (default 0.30)")
    ap.add_argument("--update", action="store_true",
                    help=f"re-pin the baseline from {UPDATE_RUNS} full-suite runs of --bench")
    ap.add_argument("--bench", help="the micro_dsp binary --update runs")
    ap.add_argument("--only", help="--update re-pins only the kernels matching this "
                    "regex and keeps every other pin")
    args = ap.parse_args()

    if args.update:
        if args.bench is None or args.results is not None:
            ap.error("--update takes --bench (and no results file)")
        return update(args)
    if args.results is None:
        ap.error("a results file is required")

    try:
        current = load_run(args.results)
    except (OSError, ValueError, KeyError) as e:
        print(f"check_bench: cannot read results: {e}", file=sys.stderr)
        return 1

    if CALIBRATION not in current:
        print(f"check_bench: calibration benchmark {CALIBRATION} missing from run",
              file=sys.stderr)
        return 1

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
