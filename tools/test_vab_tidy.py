#!/usr/bin/env python3
"""Unit tests for the vab-tidy check engine, run as the VabTidy.SelfTest
ctest.

Every fixture under tools/vab_tidy/fixtures/violating/ declares the findings
it must produce with `// expect: <check-id>:<count>` header comments; every
file under conforming/ must produce none. On top of the counts, one exact
diagnostic string per structural check family is pinned so message
regressions (wrong line, wrong column anchoring, reworded advice) fail here
before the tree-wide gate.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "vab_tidy"))

import vab_tidy  # noqa: E402

FIXTURES = os.path.join(HERE, "vab_tidy", "fixtures")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z0-9-]+):(\d+)")
CXX = os.environ.get("CXX", "g++")


def fixture_files(kind: str) -> list[str]:
    out = []
    for dirpath, _, names in os.walk(os.path.join(FIXTURES, kind)):
        for name in sorted(names):
            if name.endswith(vab_tidy.CXX_EXTENSIONS):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def expected_findings(path: str) -> dict[str, int]:
    """The fixture's `// expect:` counts. A companion file that is clean
    itself declares that with a zero count."""
    with open(path, encoding="utf-8") as fh:
        head = fh.read(2048)
    return {check: int(count) for check, count in EXPECT_RE.findall(head)}


def lint_one(path: str, kind: str,
             self_contained_cxx: str | None = None) -> list[vab_tidy.Finding]:
    """Runs all checks the way the CLI would, rooted at the fixture's own
    mini-tree so the layering check sees `src/<module>/...` paths."""
    root = os.path.join(FIXTURES, kind)
    marker = os.sep + "src" + os.sep
    if marker in path:
        root = path[:path.index(marker)]
    return vab_tidy.run([path], repo_root=root, allowlist_path=os.devnull,
                        self_contained_cxx=self_contained_cxx)


def analyse_text(text: str, name: str = "snippet.cpp") -> list[vab_tidy.Finding]:
    src = vab_tidy.SourceFile(name, text)
    findings = []
    for check in vab_tidy.FILE_CHECKS.values():
        findings.extend(check(src))
    return findings


def count_by_check(findings: list[vab_tidy.Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.check] = counts.get(finding.check, 0) + 1
    return counts


class ViolatingFixtures(unittest.TestCase):
    def test_every_fixture_detected_exactly(self):
        checked = 0
        for path in fixture_files("violating"):
            expected = expected_findings(path)
            self.assertTrue(expected, f"{path} lacks an expect header")
            with self.subTest(fixture=os.path.relpath(path, FIXTURES)):
                cxx = None
                if vab_tidy.SELF_CONTAINED in expected:
                    # Header self-containment is proven by a real compile.
                    if shutil.which(CXX) is None:
                        self.skipTest(f"no C++ compiler ({CXX}) on PATH")
                    cxx = CXX
                actual = count_by_check(lint_one(path, "violating", cxx))
                self.assertEqual(
                    actual, {k: n for k, n in expected.items() if n})
            checked += 1
        self.assertGreaterEqual(checked, 21, "violating fixture set shrank")

    def test_every_check_has_a_violating_fixture(self):
        covered = set()
        for path in fixture_files("violating"):
            covered.update(
                k for k, n in expected_findings(path).items() if n)
        self.assertEqual(len(vab_tidy.CHECKS), 13)
        self.assertEqual(covered, set(vab_tidy.CHECKS) | {vab_tidy.SELF_CONTAINED},
                         "each check needs a fixture proving it still fires")

    def test_retired_rules_stay_retired(self):
        # The token-level no-unordered-iter and rng-child-discipline rules
        # flagged every iteration / token adjacency; the structural checks
        # that replaced them must stay the only owners of those hazards.
        for retired in ("no-unordered-iter", "rng-child-discipline"):
            self.assertNotIn(retired, vab_tidy.CHECKS)
        self.assertIn("rng-parallel-capture", vab_tidy.CHECKS)
        self.assertIn("unordered-iter-accumulate", vab_tidy.CHECKS)


class ExactDiagnostics(unittest.TestCase):
    """One pinned diagnostic per structural family: the full
    path:line/message contract."""

    def _findings(self, rel: str) -> list[str]:
        path = os.path.join(FIXTURES, "violating", rel)
        return [f.format() for f in lint_one(path, "violating")]

    def test_unit_param_diagnostic(self):
        path = os.path.join(FIXTURES, "violating", "unit_params.hpp")
        self.assertIn(
            f"{path}:14: [unit-suffix-double-param] parameter 'range_m' is "
            "a raw double carrying a unit suffix; take common::Meters (see "
            "common/units.hpp) so callers cannot pass the wrong domain",
            self._findings("unit_params.hpp"))

    def test_rng_capture_diagnostic(self):
        path = os.path.join(FIXTURES, "violating", "rng_capture.cpp")
        self.assertIn(
            f"{path}:11: [rng-parallel-capture] 'rng.uniform()' draws from "
            "a captured Rng inside a parallel body; derive a per-index "
            "stream with 'rng.child(i)' so draw order cannot depend on "
            "scheduling",
            self._findings("rng_capture.cpp"))

    def test_unordered_diagnostic(self):
        path = os.path.join(FIXTURES, "violating", "unordered_accumulate.cpp")
        self.assertIn(
            f"{path}:13: [unordered-iter-accumulate] iteration over "
            "unordered container 'weights' feeds an accumulation or output "
            "in hash order; sort the keys (or the results) before they "
            "reach any reduction or stream",
            self._findings("unordered_accumulate.cpp"))

    def test_layering_diagnostic(self):
        path = os.path.join(FIXTURES, "violating", "layering", "src", "dsp",
                            "uses_phy.hpp")
        self.assertIn(
            f"{path}:4: [layering] downward include: 'dsp' (rank 1) may not "
            "include 'phy' (rank 2); dependencies must point strictly down "
            "the layer diagram",
            [f.format() for f in lint_one(path, "violating")])


class ConformingFixtures(unittest.TestCase):
    def test_no_false_positives(self):
        for path in fixture_files("conforming"):
            with self.subTest(fixture=os.path.relpath(path, FIXTURES)):
                self.assertEqual(
                    [f.format() for f in lint_one(path, "conforming")], [])


class Annotations(unittest.TestCase):
    def test_allow_same_line(self):
        text = 'int f() { return rand(); }  // vab-tidy: allow(no-libc-rand) test shim\n'
        self.assertEqual(analyse_text(text), [])

    def test_allow_previous_line(self):
        text = ('// vab-tidy: allow(no-libc-rand) test shim\n'
                'int f() { return rand(); }\n')
        self.assertEqual(analyse_text(text), [])

    def test_allow_is_rule_specific(self):
        text = ('// vab-tidy: allow(no-wallclock) wrong check named\n'
                'int f() { return rand(); }\n')
        self.assertEqual(len(analyse_text(text)), 1)

    def test_allow_does_not_leak_past_next_line(self):
        text = ('// vab-tidy: allow(no-libc-rand) only covers the next line\n'
                'int f();\n'
                'int g() { return rand(); }\n')
        self.assertEqual(len(analyse_text(text)), 1)

    def test_skip_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "skipped.cpp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('// vab-tidy: skip-file\nint f() { return rand(); }\n')
            self.assertEqual(vab_tidy.run([path], repo_root=tmp), [])


class CommentAndStringBlanking(unittest.TestCase):
    def test_comments_do_not_trip_rules(self):
        text = ('// rand() and std::random_device discussed in a comment\n'
                '/* for (auto& kv : themap) also here */\n'
                'int f();\n')
        self.assertEqual(analyse_text(text), [])

    def test_strings_do_not_trip_rules(self):
        text = 'const char* kMsg = "never call rand() here";\n'
        self.assertEqual(analyse_text(text), [])

    def test_line_structure_preserved(self):
        text = 'a /* multi\nline */ b\n"str\\"ing"\n'
        blanked = vab_tidy.blank_comments_and_strings(text)
        self.assertEqual(blanked.count("\n"), text.count("\n"))

    def test_non_utf8_source_still_analysed(self):
        with tempfile.TemporaryDirectory() as tmp:
            hdr = os.path.join(tmp, "latin1.hpp")
            with open(hdr, "wb") as fh:
                fh.write(b"#pragma once\n// caf\xe9\nvoid f(double gain_db);\n")
            findings = vab_tidy.run([hdr], repo_root=tmp,
                                    allowlist_path=os.devnull)
            self.assertEqual([(f.line, f.check) for f in findings],
                             [(3, "unit-suffix-double-param")])


class LayeringModel(unittest.TestCase):
    def test_rank_table_matches_design(self):
        self.assertEqual(vab_tidy.MODULE_RANKS["common"], 0)
        self.assertEqual(vab_tidy.SINK_MODULES, {"obs"})
        for mod in ("dsp", "fault", "piezo", "vanatta"):
            self.assertEqual(vab_tidy.MODULE_RANKS[mod], 1)
        self.assertLess(vab_tidy.MODULE_RANKS["phy"],
                        vab_tidy.MODULE_RANKS["net"])
        self.assertLess(vab_tidy.MODULE_RANKS["sim"],
                        vab_tidy.MODULE_RANKS["core"])

    def test_cycle_detected(self):
        root = os.path.join(FIXTURES, "violating", "cycle")
        findings = vab_tidy.run([os.path.join(root, "src")], repo_root=root,
                                checks=["layering"], allowlist_path=os.devnull)
        formatted = [f.format() for f in findings]
        self.assertTrue(any("module cycle detected" in f for f in formatted),
                        formatted)


class Allowlist(unittest.TestCase):
    def test_grandfathered_header_skips_unit_check_only(self):
        with tempfile.TemporaryDirectory() as tmp:
            hdr = os.path.join(tmp, "legacy.hpp")
            with open(hdr, "w", encoding="utf-8") as fh:
                fh.write("#pragma once\nvoid f(double gain_db);\n")
            allow = os.path.join(tmp, "allow.txt")
            with open(allow, "w", encoding="utf-8") as fh:
                fh.write("legacy.hpp :: grandfathered for the test\n")
            self.assertEqual(
                vab_tidy.run([hdr], repo_root=tmp, allowlist_path=allow), [])
            findings = vab_tidy.run([hdr], repo_root=tmp,
                                    allowlist_path=os.devnull)
            self.assertEqual([f.check for f in findings],
                             ["unit-suffix-double-param"])

    def test_repo_allowlist_entries_still_exist(self):
        """Every grandfathered path must still be a real header: stale
        entries hide nothing but rot the debt ledger."""
        repo = os.path.dirname(HERE)
        allowlist = vab_tidy.load_allowlist(vab_tidy.DEFAULT_ALLOWLIST, repo)
        self.assertTrue(allowlist)
        for path, reason in allowlist.items():
            self.assertTrue(os.path.exists(path), f"stale allowlist: {path}")
            self.assertTrue(reason, f"allowlist entry needs a reason: {path}")


@unittest.skipIf(shutil.which(CXX) is None, "no C++ compiler on PATH")
class SelfContainment(unittest.TestCase):
    def test_missing_include_detected(self):
        bad = os.path.join(FIXTURES, "violating", "not_self_contained.hpp")
        findings = vab_tidy.check_self_contained([bad], [], CXX)
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].check, vab_tidy.SELF_CONTAINED)

    def test_clean_header_passes(self):
        good = os.path.join(FIXTURES, "conforming", "clean_unit.hpp")
        findings = vab_tidy.check_self_contained([good], [], CXX)
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
