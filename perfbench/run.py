#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload wave_campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fleet_budget --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

The first call configures and builds the simulator library and
vab_perfbench under .bench_build/perfbench (RelWithDebInfo, the root project's default);
later calls rebuild only what changed. Build output goes to stderr; stdout
carries vab_perfbench's report, whose last line is the JSON result.

With --trace 0 the set-up time is measured several times, each in a fresh
process (cold caches, fresh worker threads), and `setup_s` reports the
median. Exits non-zero, without a result line, when the build fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("wave_campaign", "fleet_budget", "fleet_adaptive")
# Set-up samples per run: this many fresh processes plus the measuring one.
SETUP_PROCESSES = 6


def child_env():
    """The caller's environment without VAB_* overrides (threads, SIMD,
    trace/profile outputs): the benchmark states its configuration itself."""
    return {k: v for k, v in os.environ.items() if not k.startswith("VAB_")}


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=child_env()).returncode != 0:
        sys.exit("perfbench: build failed")


def perfbench_cmd(args):
    cmd = [os.path.join(BUILD, "vab_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(args.threads),
           "--workdir", WORK]
    return cmd


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="parallel-engine threads (default 1)")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's self-tests")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    build()
    os.chdir(ROOT)
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              env=child_env()).returncode
    os.makedirs(WORK, exist_ok=True)

    setup = []
    if args.trace == 0:
        for _ in range(SETUP_PROCESSES - 1):
            r = subprocess.run(perfbench_cmd(args) + ["--setup-only"], env=child_env(),
                               stdout=subprocess.PIPE, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stdout)
                sys.exit("perfbench: set-up run failed")
            setup.append(float(r.stdout.split()[-1]))

    r = subprocess.run(perfbench_cmd(args), env=child_env(), stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        sys.exit("perfbench: vab_perfbench printed no result (exit %d)" % r.returncode)
    result = json.loads(lines[-1])
    if args.trace == 0:
        setup.append(result["metrics"]["setup_s"]["value"])
        print("setup_s samples: " + " ".join("%.4f" % s for s in setup))
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
