#!/usr/bin/env python3
"""Unit tests for check_reachability.py's nm parsing, diff and allowlist
logic, run as the Reachability.SelfTest ctest. Feeds canned `nm -C
--defined-only` text; runs no build.
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_reachability as cr  # noqa: E402

# Two archive members, as `nm -C --defined-only libvab_x.a` prints them:
# member headers, blank lines, local (t) and weak (W) symbols mixed in.
LIBRARY_NM = """
fir.o:
0000000000000000 T vab::dsp::fir_filter_decimate(std::vector<double, std::allocator<double> > const&, std::vector<std::complex<double>, std::allocator<std::complex<double> > > const&, unsigned long, unsigned long, std::vector<std::complex<double>, std::allocator<std::complex<double> > >&)
0000000000000000 t vab::dsp::(anonymous namespace)::sinc(double)
0000000000000000 W std::vector<double, std::allocator<double> >::~vector()
0000000000000000 T vab::dsp::FirFilter::taps_count() const

profile.o:
0000000000000000 T vab::obs::profile_folded[abi:cxx11](vab::obs::ProfileSummary const&)
0000000000000000 T vab::obs::Registry::~Registry()
0000000000000000 T vab::obs::Registry::~Registry()
0000000000000000 B vab::obs::g_counter
"""

# One shipped binary: keeps fir_filter_decimate and the const member.
BINARY_NM = """
0000000000401000 T main
0000000000402000 T vab::dsp::fir_filter_decimate(std::vector<double, std::allocator<double> > const&, std::vector<std::complex<double>, std::allocator<std::complex<double> > > const&, unsigned long, unsigned long, std::vector<std::complex<double>, std::allocator<std::complex<double> > >&)
0000000000403000 T vab::dsp::FirFilter::taps_count() const
0000000000404000 t vab::dsp::(anonymous namespace)::sinc(double)
"""

FOLDED = "vab::obs::profile_folded[abi:cxx11](vab::obs::ProfileSummary const&)"
DTOR = "vab::obs::Registry::~Registry()"


class ParseNm(unittest.TestCase):
    def test_keeps_demangled_names_whole(self):
        names = cr.parse_nm(LIBRARY_NM, "T")
        self.assertIn(FOLDED, names)
        self.assertIn("vab::dsp::FirFilter::taps_count() const", names)
        self.assertTrue(any(n.startswith("vab::dsp::fir_filter_decimate(std::vector<double, ")
                            for n in names))

    def test_filters_by_type_and_skips_headers(self):
        names = cr.parse_nm(LIBRARY_NM, "T")
        self.assertEqual(len(names), 4)
        self.assertNotIn("vab::obs::g_counter", names)
        self.assertFalse(any("sinc" in n or "~vector" in n for n in names))
        self.assertFalse(any(n.endswith(".o:") for n in cr.parse_nm(LIBRARY_NM)))


class Diff(unittest.TestCase):
    def test_unreached_text_symbols_are_reported(self):
        missing, stale = cr.diff(LIBRARY_NM, [BINARY_NM], {})
        self.assertEqual(missing, sorted([FOLDED, DTOR]))
        self.assertEqual(stale, [])

    def test_allowlisted_symbol_is_not_reported(self):
        missing, stale = cr.diff(LIBRARY_NM, [BINARY_NM], {DTOR: 3})
        self.assertEqual(missing, [FOLDED])
        self.assertEqual(stale, [])

    def test_any_binary_reaching_a_symbol_counts(self):
        other = f"0000000000405000 T {FOLDED}\n"
        missing, _ = cr.diff(LIBRARY_NM, [BINARY_NM, other], {DTOR: 3})
        self.assertEqual(missing, [])

    def test_entry_for_a_reached_function_is_stale(self):
        reached = "vab::dsp::FirFilter::taps_count() const"
        _, stale = cr.diff(LIBRARY_NM, [BINARY_NM], {DTOR: 3, reached: 4})
        self.assertEqual(len(stale), 1)
        self.assertIn("allowlist:4:", stale[0])
        self.assertIn("reached by a shipped binary", stale[0])

    def test_entry_for_a_missing_function_is_stale(self):
        _, stale = cr.diff(LIBRARY_NM, [BINARY_NM],
                           {"vab::gone(int)": 7, FOLDED: 8, DTOR: 9})
        self.assertEqual(stale, ["allowlist:7: 'vab::gone(int)' is not a library "
                                 "function; delete the entry"])


class Allowlist(unittest.TestCase):
    def test_parses_entries_with_reasons(self):
        text = ("# header comment\n\n"
                f"{FOLDED}  # read by a tool\n"
                f"  {DTOR} # tests destroy local registries\n")
        entries, errors = cr.parse_allowlist(text)
        self.assertEqual(entries, {FOLDED: 3, DTOR: 4})
        self.assertEqual(errors, [])

    def test_entry_without_reason_is_an_error(self):
        entries, errors = cr.parse_allowlist(f"{DTOR}\n{FOLDED}  #  \n")
        self.assertEqual(set(entries), {DTOR, FOLDED})
        self.assertEqual(len(errors), 2)
        self.assertIn("allowlist:1:", errors[0])
        self.assertIn("has no reason", errors[1])

    def test_checked_in_allowlist_is_well_formed(self):
        with open(cr.ALLOWLIST, encoding="utf-8") as fh:
            entries, errors = cr.parse_allowlist(fh.read())
        self.assertEqual(errors, [])
        self.assertLessEqual(len(entries), 8)


if __name__ == "__main__":
    unittest.main(verbosity=2)
