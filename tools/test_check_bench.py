#!/usr/bin/env python3
"""Unit tests for check_bench.py, run as the CheckBench.SelfTest ctest: the
gate fails a planted 1.5x slowdown of one watched kernel and passes an
unchanged run, and --update pins the median of its runs. Runs no
benchmark: `--update` drives a stand-in script that writes canned runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check_bench as cb  # noqa: E402

CAL = cb.CALIBRATION
# One calibration, two watched kernels and an unwatched one (ns).
TIMES = {CAL: 1000.0, "BM_Fft/8192": 50.0, "BM_EnvelopeReturnLeg": 20.0,
         "BM_FirFilterComplex/63": 300.0}


def results_doc(times):
    return {"benchmarks": [{"name": k, "run_type": "iteration", "real_time": v}
                           for k, v in times.items()]}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.baseline = self.dir / "baseline.json"
        self.baseline.write_text(json.dumps(
            {"schema": cb.SCHEMA, "calibration": CAL, "benchmarks": TIMES}))

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, times):
        path = self.dir / "run.json"
        path.write_text(json.dumps(results_doc(times)))
        return subprocess.run(
            [sys.executable, str(HERE / "check_bench.py"), str(path),
             "--baseline", str(self.baseline)],
            capture_output=True, text=True).returncode

    def test_unchanged_run_passes(self):
        self.assertEqual(self.check(TIMES), 0)

    def test_planted_slowdown_in_one_watched_kernel_fails(self):
        for name in ("BM_Fft/8192", "BM_EnvelopeReturnLeg"):
            slow = dict(TIMES)
            slow[name] *= 1.5
            self.assertEqual(self.check(slow), 1, name)

    def test_machine_speed_cancels(self):
        # Everything 1.5x slower, calibration included: no regression.
        self.assertEqual(self.check({k: 1.5 * v for k, v in TIMES.items()}), 0)

    def test_median_pins(self):
        runs = [dict(TIMES), {k: 2.0 * v for k, v in TIMES.items()}, dict(TIMES)]
        runs[1]["BM_Fft/8192"] = 1e6  # one outlier run of one kernel
        pins = cb.median_pins(runs)
        self.assertEqual(pins[CAL], 1000.0)
        self.assertEqual(pins["BM_Fft/8192"], 50.0)
        with self.assertRaises(ValueError):
            cb.median_pins([dict(TIMES), {CAL: 1000.0}])

    def update(self, *extra):
        return subprocess.run(
            [sys.executable, str(HERE / "check_bench.py"), "--update", "--bench",
             str(self.fake), "--baseline", str(self.baseline), *extra],
            capture_output=True, text=True).returncode

    def test_update_runs_the_ci_command(self):
        # A stand-in benchmark binary: records its arguments and writes the
        # next canned run to --benchmark_out.
        log = self.dir / "args.log"
        counter = self.dir / "count"
        fake = self.dir / "fake_bench.py"
        fake.write_text(textwrap.dedent(f"""\
            #!{sys.executable}
            import json, sys
            from pathlib import Path
            c = Path({str(counter)!r})
            n = int(c.read_text()) if c.exists() else 0
            c.write_text(str(n + 1))
            with open({str(log)!r}, "a") as f:
                f.write(" ".join(sys.argv[1:]) + "\\n")
            out = [a.split("=", 1)[1] for a in sys.argv if a.startswith("--benchmark_out=")][0]
            times = {json.dumps(TIMES)}
            times["BM_Fft/8192"] *= (1.0, 3.0, 1.2, 0.9, 1.1)[n]
            Path(out).write_text(json.dumps({{"benchmarks": [
                {{"name": k, "run_type": "iteration", "real_time": v}}
                for k, v in times.items()]}}))
            """))
        os.chmod(fake, 0o755)
        self.fake = fake
        self.assertEqual(self.update(), 0)
        lines = log.read_text().splitlines()
        self.assertEqual(len(lines), cb.UPDATE_RUNS)
        for line in lines:
            self.assertTrue(line.startswith(" ".join(cb.CI_ARGS) + " --benchmark_out="))
        pinned = json.loads(self.baseline.read_text())["benchmarks"]
        self.assertAlmostEqual(pinned["BM_Fft/8192"], 55.0)  # median factor 1.1

        # --only moves the matching kernels and keeps every other pin, here a
        # calibration pinned at half the runs' time.
        counter.unlink()
        doc = json.loads(self.baseline.read_text())
        doc["benchmarks"] = {k: 0.5 * v for k, v in TIMES.items()}
        self.baseline.write_text(json.dumps(doc))
        self.assertEqual(self.update("--only", "Fft"), 0)
        pinned = json.loads(self.baseline.read_text())["benchmarks"]
        self.assertAlmostEqual(pinned["BM_Fft/8192"], 27.5)
        self.assertEqual(pinned[CAL], 500.0)
        self.assertEqual(pinned["BM_EnvelopeReturnLeg"], 10.0)


if __name__ == "__main__":
    unittest.main()
