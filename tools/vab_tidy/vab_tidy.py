#!/usr/bin/env python3
"""vab-tidy: domain static analysis for the VAB tree.

The repro's core guarantee is that every seeded experiment is bit-identical
across thread counts and feature toggles. The golden-pin and multi-thread
suites enforce that *dynamically*; these checks enforce the hazard classes
*statically*, so a change that reintroduces one fails before anyone has to
debug a golden re-pin.

Determinism bans (token scans over the comment/string-blanked source):

  no-libc-rand               rand()/srand()/rand_r(): process-global hidden
                             state, not seedable per trial. Use common::Rng.
  no-random-device           std::random_device: nondeterministic by
                             definition.
  no-time-seeded-rng         constructing/seeding an RNG from a clock: every
                             run gets a different stream.
  no-pointer-key-order       std::map/std::set keyed on a raw pointer:
                             ordering follows allocation addresses, which vary
                             run to run (ASLR) and thread to thread.
  no-wallclock               std::chrono clocks / time() / gettimeofday
                             outside obs/, common/log and common/parallel:
                             wall-clock reads feeding logic make outcomes
                             timing-dependent. Timeouts run on simulated time.
  simd-intrinsics-confined   raw SIMD intrinsics (immintrin/arm_neon
                             includes, _mm*/__m* tokens, NEON v*_f64 calls)
                             outside src/dsp/simd/: ISA-specific code must sit
                             behind the runtime dispatch layer, where the
                             scalar-vs-SIMD bit-identity suite covers it.

Include hygiene:

  pragma-once                every header starts with #pragma once.
  own-header-first           foo.cpp includes its own header before any
                             other include, proving the header is
                             self-sufficient at its primary point of use.
  no-using-namespace         file-scope `using namespace` in a header leaks
                             into every includer.

Structural checks (body- and graph-aware):

  unit-suffix-double-param   Public headers must not declare raw `double`
                             function parameters whose names carry a unit
                             suffix (*_db, *_hz, *_m, *_s); those boundaries
                             take the strong types from common/units.hpp.
                             Grandfathered files live in allowlist.txt with a
                             rationale and tombstone date.
  rng-parallel-capture       An Rng captured into a parallel_for /
                             parallel_reduce body must only be used through
                             .child(...); direct draws make the draw order
                             depend on scheduling.
  unordered-iter-accumulate  Iterating a std::unordered_* container is only
                             flagged when the loop body accumulates or emits
                             output (the hash order would leak into results);
                             pure lookups and counting stay legal.
  layering                   The module DAG, read from the `#include "..."`
                             lines of the analysed files: a module may
                             include only lower-ranked modules (obs is an
                             include-anywhere sink), and no cycle may appear.

With --self-contained, every header is also compiled alone
(`<cxx> -std=c++20 -fsyntax-only`); one that leans on its includers'
includes is reported as `self-contained` with the compiler's first error.

Point exceptions name the check and say why:

    code();  // vab-tidy: allow(check-id) reason

A trailing annotation covers its own line; one standing on its own line
also covers the next line. `// vab-tidy: skip-file` exempts a whole file.

Usage:
  vab_tidy.py [path...]                   analyse files/directories (default: src/)
  vab_tidy.py --self-contained [path...]  also compile each header in isolation
  vab_tidy.py --list-checks               print the check ids and exit

Exit status: 0 when clean, 1 on findings, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")
HEADER_EXTENSIONS = (".hpp", ".hh", ".h")

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ALLOWLIST = os.path.join(HERE, "allowlist.txt")
SELF_CONTAINED = "self-contained"

#: Module ranks for the layering DAG. An `#include "mod/..."` edge from
#: module A to module B is legal iff A == B, B is a sink, or
#: rank(A) > rank(B). Ranks mirror DESIGN.md's layer diagram.
MODULE_RANKS = {
    "common": 0,
    "dsp": 1,
    "fault": 1,
    "piezo": 1,
    "vanatta": 1,
    "channel": 2,
    "phy": 2,
    "net": 3,
    "sim": 4,
    "core": 5,
}

#: Modules any layer (including common) may include, and which may include
#: nothing outside themselves: pure observability sinks.
SINK_MODULES = {"obs"}

UNIT_SUFFIX_RE = re.compile(r"_(?:db|hz|m|s)$")

DRAW_METHODS = (
    "uniform", "uniform_int", "gaussian", "complex_gaussian", "coin",
    "random_bits", "gaussian_vector", "engine",
)

ACCUMULATE_RE = re.compile(
    r"(?:\+=|\|=|\^=|<<|\bpush_back\s*\(|\bemplace_back\s*\(|"
    r"\bappend\s*\(|\binsert\s*\(|\bemplace\s*\()")

ALLOW_RE = re.compile(r"//\s*vab-tidy:\s*allow\(([a-z0-9-]+)\)")
SKIP_FILE_RE = re.compile(r"//\s*vab-tidy:\s*skip-file")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]', re.MULTILINE)


@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def blank_comments_and_strings(text: str) -> str:
    """Replaces comment and string contents with spaces, preserving line
    structure, so token scans never fire inside prose. Annotation comments
    are consumed separately from the raw text before blanking."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif ch == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif ch == '"':
                state = "str"
                out.append('"')
                i += 1
            elif ch == "'":
                state = "chr"
                out.append("'")
                i += 1
            else:
                out.append(ch)
                i += 1
        elif state == "line":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if ch == "\n" else " ")
                i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
            elif ch == quote:
                state = "code"
                out.append(quote)
                i += 1
            elif ch == "\n":  # unterminated; resync rather than cascade
                state = "code"
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


@dataclass
class SourceFile:
    path: str
    text: str
    code: str = field(init=False)
    code_lines: list[str] = field(init=False)
    skip: bool = field(init=False)
    allowed: dict[int, set[str]] = field(init=False)

    def __post_init__(self) -> None:
        self.skip = bool(SKIP_FILE_RE.search(self.text))
        self.code = blank_comments_and_strings(self.text)
        self.code_lines = self.code.splitlines()
        self.allowed = {}
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            for m in ALLOW_RE.finditer(raw):
                # An allow on its own line covers the next line as well.
                self.allowed.setdefault(lineno, set()).add(m.group(1))
                if raw.lstrip().startswith("//"):
                    self.allowed.setdefault(lineno + 1, set()).add(m.group(1))

    def is_header(self) -> bool:
        return self.path.endswith(HEADER_EXTENSIONS)

    def is_allowed(self, line: int, check: str) -> bool:
        return check in self.allowed.get(line, set())

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


def load_source(path: str) -> SourceFile:
    # A stray Latin-1 byte in a comment must not hide the file's findings.
    with open(path, encoding="utf-8", errors="replace") as fh:
        return SourceFile(path, fh.read())


def extract_balanced(text: str, open_idx: int, open_ch: str,
                     close_ch: str) -> int:
    """Index of the closer matching the opener at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def match_findings(src: SourceFile, check: str, pattern: re.Pattern,
                   message: str) -> list[Finding]:
    """One finding per line: a single hazardous statement often trips
    several sub-patterns of the same check."""
    found = []
    seen: set[int] = set()
    for m in pattern.finditer(src.code):
        line = src.line_of(m.start())
        if line not in seen and not src.is_allowed(line, check):
            seen.add(line)
            found.append(Finding(src.path, line, check, message))
    return found


def pattern_check(check: str, pattern: re.Pattern, message: str,
                  exempt_parts: tuple[str, ...] = (),
                  headers_only: bool = False):
    def run_check(src: SourceFile) -> list[Finding]:
        if headers_only and not src.is_header():
            return []
        norm = src.path.replace(os.sep, "/")
        if any(part in norm for part in exempt_parts):
            return []
        return match_findings(src, check, pattern, message)
    return run_check


# --- determinism bans -------------------------------------------------------

LIBC_RAND_RE = re.compile(
    r"\bstd\s*::\s*s?rand\s*\(|(?<![\w:.])(?:s?rand|rand_r)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\bstd\s*::\s*random_device\b")

RNG_TOKEN_RE = re.compile(
    r"\b(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux\w+|"
    r"knuth_b|Rng)\b")
TIME_TOKEN_RE = re.compile(
    r"\bstd\s*::\s*chrono\b|(?<![\w:])time\s*\(|\bclock\s*\(\)|\brdtsc\b|"
    r"\bgettimeofday\b")

POINTER_KEY_RE = re.compile(
    r"\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?[\w:]+"
    r"(?:\s*<[^<>]*>)?\s*\*")

WALLCLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\b|\bsteady_clock\b|\bsystem_clock\b|"
    r"\bhigh_resolution_clock\b|\bgettimeofday\b|(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0)\s*\)")

# Paths (relative, slash-normalized) where wall-clock reads are legitimate:
# the observability layer exists to measure real time, the logger stamps it,
# and the thread pool parks workers on real-time waits.
WALLCLOCK_ALLOWED_PARTS = ("obs/", "common/log", "common/parallel")

# Raw-intrinsic fingerprints: x86 intrinsic headers and <arm_neon.h>, SSE/AVX
# calls and vector types, NEON vector types and the v...(_lane)_{f,s,u,p}N
# call family. Matched against the blanked shadow, so discussing an intrinsic
# in a comment (as dsp docs do) never trips it.
SIMD_INTRINSICS_RE = re.compile(
    r"#\s*include\s*<(?:immintrin|x86intrin|arm_neon|[a-z]+mmintrin)\.h>"
    r"|\b_mm(?:256|512)?_\w+"
    r"|\b__m(?:64|128|256|512)[dih]?\b"
    r"|\b(?:float|poly|u?int)(?:8|16|32|64)x(?:1|2|4|8|16)_t\b"
    r"|\bv[a-z][a-z0-9_]*_[fsup](?:8|16|32|64)\s*\(")

# The one directory where ISA-specific code is legitimate: each arch header
# plus the per-ISA translation units, all gated by the bit-identity suite.
SIMD_ALLOWED_PARTS = ("dsp/simd/",)


def check_no_time_seeded_rng(src: SourceFile) -> list[Finding]:
    found = []
    for i, line in enumerate(src.code_lines, start=1):
        if RNG_TOKEN_RE.search(line) and TIME_TOKEN_RE.search(line):
            if not src.is_allowed(i, "no-time-seeded-rng"):
                found.append(Finding(
                    src.path, i, "no-time-seeded-rng",
                    "seeding an RNG from a clock makes every run different; "
                    "derive seeds from the experiment seed"))
    return found


# --- include hygiene --------------------------------------------------------

def check_pragma_once(src: SourceFile) -> list[Finding]:
    if not src.is_header():
        return []
    for i, line in enumerate(src.code_lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if re.match(r"#\s*pragma\s+once\b", stripped):
            return []
        return [Finding(src.path, i, "pragma-once",
                        "header must start with #pragma once (before any "
                        "code)")]
    return [Finding(src.path, 1, "pragma-once", "empty header lacks #pragma once")]


def check_own_header_first(src: SourceFile) -> list[Finding]:
    if src.is_header():
        return []
    stem = os.path.splitext(src.path)[0]
    own = None
    for ext in HEADER_EXTENSIONS:
        if os.path.exists(stem + ext):
            own = os.path.basename(stem + ext)
            break
    if own is None:
        return []
    # Include paths are string literals, so match the raw text; the blanked
    # shadow is only consulted to skip includes inside comments.
    first = None
    for m in INCLUDE_RE.finditer(src.text):
        line = src.text.count("\n", 0, m.start()) + 1
        if "include" in src.code_lines[line - 1]:
            first = (m, line)
            break
    if first is None:
        return []
    m, line = first
    if m.group(1) == '"' and os.path.basename(m.group(2)) == own:
        return []
    if src.is_allowed(line, "own-header-first"):
        return []
    return [Finding(src.path, line, "own-header-first",
                    f'first include must be the unit\'s own header "{own}" '
                    "(proves the header is self-contained)")]


# --- check: unit-suffix-double-param ----------------------------------------

DOUBLE_PARAM_RE = re.compile(r"\bdouble\s+(\w+)")


def check_unit_suffix_params(src: SourceFile) -> list[Finding]:
    """Flags `double name_db/_hz/_m/_s` in *parameter* position in headers.

    A declaration terminated by `;` or `}` before any `,`/`)` at its own
    nesting level is a field or local (raw storage stays legal: structs of
    plain numbers are the serialization/config layer); one terminated by
    `,` or `)` sits in a parameter list and must take a strong unit type.
    """
    if not src.is_header():
        return []
    found = []
    for m in DOUBLE_PARAM_RE.finditer(src.code):
        name = m.group(1)
        if not UNIT_SUFFIX_RE.search(name):
            continue
        i, n = m.end(), len(src.code)
        depth = 0
        terminator = ""
        while i < n:
            ch = src.code[i]
            if ch in "([{<":
                depth += 1
            elif ch in ")]}>":
                if depth == 0:
                    terminator = ch
                    break
                depth -= 1
            elif depth == 0 and ch in ";,":
                terminator = ch
                break
            i += 1
        if terminator not in (",", ")"):
            continue  # field, local, or array declaration
        line = src.line_of(m.start())
        if src.is_allowed(line, "unit-suffix-double-param"):
            continue
        unit = {"db": "Db/SnrDb", "hz": "Hz", "m": "Meters",
                "s": "Seconds"}[UNIT_SUFFIX_RE.search(name).group(0)[1:]]
        found.append(Finding(
            src.path, line, "unit-suffix-double-param",
            f"parameter '{name}' is a raw double carrying a unit suffix; "
            f"take common::{unit} (see common/units.hpp) so callers cannot "
            "pass the wrong domain"))
    return found


# --- check: rng-parallel-capture --------------------------------------------

PARALLEL_CALL_RE = re.compile(r"\bparallel_(?:for|reduce)\s*(?:<[^;{}]*?>)?\s*\(")
LAMBDA_RE = re.compile(r"\[([^\]\n]*)\]\s*\(([^)]*)\)")
DRAW_RE = re.compile(
    r"\b(\w+)\s*(?:\.|->)\s*(" + "|".join(DRAW_METHODS) + r")\s*\(")
CHILD_LOCAL_RE = re.compile(
    r"\b(?:auto|Rng|common::Rng)\s*&?\s+(\w+)\s*=\s*[\w.\->:]+\.child\s*\(")


def check_rng_parallel_capture(src: SourceFile) -> list[Finding]:
    """Flags draws from a captured Rng inside parallel_for/parallel_reduce
    lambda bodies. Legal uses: `rng.child(i)` itself (deriving the per-index
    stream, never a draw method), draws from a lambda parameter, and draws
    from an Rng declared inside the body via `.child(...)`."""
    found = []
    for call in PARALLEL_CALL_RE.finditer(src.code):
        open_paren = src.code.index("(", call.end() - 1)
        close_paren = extract_balanced(src.code, open_paren, "(", ")")
        if close_paren < 0:
            continue
        args = src.code[open_paren:close_paren + 1]
        for lam in LAMBDA_RE.finditer(args):
            captures = lam.group(1)
            params = {p.split()[-1].lstrip("&*")
                      for p in lam.group(2).split(",") if p.strip()}
            body_open = args.find("{", lam.end())
            if body_open < 0:
                continue
            body_close = extract_balanced(args, body_open, "{", "}")
            if body_close < 0:
                continue
            body = args[body_open:body_close + 1]
            explicit = {c.strip().lstrip("&*")
                        for c in captures.split(",") if c.strip()}
            local = set(CHILD_LOCAL_RE.findall(body)) | params
            for draw in DRAW_RE.finditer(body):
                name, method = draw.group(1), draw.group(2)
                if name in local:
                    continue
                captured = "&" in captures or "=" in captures or \
                    name in explicit
                if not captured:
                    continue
                line = src.line_of(open_paren + body_open + draw.start())
                if src.is_allowed(line, "rng-parallel-capture"):
                    continue
                found.append(Finding(
                    src.path, line, "rng-parallel-capture",
                    f"'{name}.{method}()' draws from a captured Rng inside a "
                    "parallel body; derive a per-index stream with "
                    f"'{name}.child(i)' so draw order cannot depend on "
                    "scheduling"))
    return found


# --- check: unordered-iter-accumulate ---------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*&?\s*(\w+)")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,&*\s\[\]]+?:\s*(\w+)\s*\)")
ITER_LOOP_RE = re.compile(r"=\s*(\w+)\s*\.\s*(?:begin|cbegin)\s*\(")


def check_unordered_iter(src: SourceFile) -> list[Finding]:
    """Flags iteration over std::unordered_* containers whose loop body
    accumulates or emits (the hash order reaches a result); bodies that only
    count or look up stay legal."""
    unordered_names = set(UNORDERED_DECL_RE.findall(src.code))
    if not unordered_names:
        return []
    found = []
    for pattern in (RANGE_FOR_RE, ITER_LOOP_RE):
        for m in pattern.finditer(src.code):
            name = m.group(1)
            if name not in unordered_names:
                continue
            scan = m.end()
            if pattern is ITER_LOOP_RE:
                # `it = c.begin()` sits inside a for/while header; the body
                # starts after the header's closing paren, not after the
                # init clause's `;`.
                header = None
                for f in re.finditer(r"\b(?:for|while)\s*\(",
                                     src.code[:m.start()]):
                    header = f
                if header is None:
                    continue
                header_close = extract_balanced(src.code, header.end() - 1,
                                                "(", ")")
                if header_close < m.start():
                    continue
                scan = header_close + 1
            body_open = src.code.find("{", scan)
            stmt_end = src.code.find(";", scan)
            if body_open < 0 or (0 <= stmt_end < body_open):
                body = src.code[scan:stmt_end + 1 if stmt_end >= 0
                                else len(src.code)]
            else:
                body_close = extract_balanced(src.code, body_open, "{", "}")
                if body_close < 0:
                    continue
                body = src.code[body_open:body_close + 1]
            if not ACCUMULATE_RE.search(body):
                continue
            line = src.line_of(m.start())
            if src.is_allowed(line, "unordered-iter-accumulate"):
                continue
            found.append(Finding(
                src.path, line, "unordered-iter-accumulate",
                f"iteration over unordered container '{name}' feeds an "
                "accumulation or output in hash order; sort the keys (or "
                "the results) before they reach any reduction or stream"))
    return found


#: Checks that look at one file at a time, in report order.
FILE_CHECKS = {
    "no-libc-rand": pattern_check(
        "no-libc-rand", LIBC_RAND_RE,
        "libc rand()/srand() has process-global state; use common::Rng"),
    "no-random-device": pattern_check(
        "no-random-device", RANDOM_DEVICE_RE,
        "std::random_device is nondeterministic; seed a common::Rng explicitly"),
    "no-time-seeded-rng": check_no_time_seeded_rng,
    "no-pointer-key-order": pattern_check(
        "no-pointer-key-order", POINTER_KEY_RE,
        "ordered container keyed on a raw pointer orders by allocation "
        "address (varies per run); key on a stable id instead"),
    "no-wallclock": pattern_check(
        "no-wallclock", WALLCLOCK_RE,
        "wall-clock read outside obs/: route timing through the "
        "observability layer or simulated time",
        exempt_parts=WALLCLOCK_ALLOWED_PARTS),
    "simd-intrinsics-confined": pattern_check(
        "simd-intrinsics-confined", SIMD_INTRINSICS_RE,
        "raw SIMD intrinsic outside src/dsp/simd/: call the dispatched "
        "dsp::simd kernels so every ISA stays behind the bit-identity gate",
        exempt_parts=SIMD_ALLOWED_PARTS),
    "pragma-once": check_pragma_once,
    "own-header-first": check_own_header_first,
    "no-using-namespace": pattern_check(
        "no-using-namespace",
        re.compile(r"^\s*using\s+namespace\s+\w", re.MULTILINE),
        "`using namespace` in a header leaks into every includer",
        headers_only=True),
    "unit-suffix-double-param": check_unit_suffix_params,
    "rng-parallel-capture": check_rng_parallel_capture,
    "unordered-iter-accumulate": check_unordered_iter,
}

CHECKS = list(FILE_CHECKS) + ["layering"]


# --- check: layering --------------------------------------------------------

def module_of(rel_path: str) -> str | None:
    parts = rel_path.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1]
    if len(parts) >= 2:
        # Quoted include paths are rooted at src/ (e.g. "phy/modem.hpp"),
        # so the first segment names the module; unknown names surface as
        # findings rather than silently passing.
        return parts[0]
    return None


def check_layering(files: list[SourceFile], repo_root: str) -> list[Finding]:
    """Validates every cross-module include edge against MODULE_RANKS and
    rejects module-level cycles (a cycle can exist even when each individual
    edge would pass a weaker same-rank rule)."""
    found = []
    edges: dict[tuple[str, str], tuple[str, int]] = {}
    for src in files:
        rel = os.path.relpath(src.path, repo_root)
        mod = module_of(rel)
        if mod is None:
            continue
        # Includes are scanned in the raw text: comment/string blanking
        # (correct for the token checks) erases the include target.
        for m in INCLUDE_RE.finditer(src.text):
            if m.group(1) != '"':
                continue
            target = module_of(m.group(2))
            if target is None or target == mod:
                continue
            line = src.text.count("\n", 0, m.start()) + 1
            edges.setdefault((mod, target), (src.path, line))
            if target in SINK_MODULES:
                continue
            if mod in SINK_MODULES:
                if src.is_allowed(line, "layering"):
                    continue
                found.append(Finding(
                    src.path, line, "layering",
                    f"sink module '{mod}' must not include '{target}': obs "
                    "is observable from every layer precisely because it "
                    "depends on none of them"))
                continue
            if mod not in MODULE_RANKS or target not in MODULE_RANKS:
                found.append(Finding(
                    src.path, line, "layering",
                    f"unknown module in edge '{mod}' -> '{target}'; add it "
                    "to MODULE_RANKS in tools/vab_tidy/vab_tidy.py"))
                continue
            if MODULE_RANKS[mod] <= MODULE_RANKS[target]:
                if src.is_allowed(line, "layering"):
                    continue
                found.append(Finding(
                    src.path, line, "layering",
                    f"downward include: '{mod}' (rank {MODULE_RANKS[mod]}) "
                    f"may not include '{target}' (rank "
                    f"{MODULE_RANKS[target]}); dependencies must point "
                    "strictly down the layer diagram"))
    # Cycle detection over the observed module graph.
    graph: dict[str, set[str]] = {}
    for (a, b), _ in edges.items():
        graph.setdefault(a, set()).add(b)
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt, 0) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if state.get(nxt, 0) == 0:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            cycle = visit(node)
            if cycle:
                a, b = cycle[0], cycle[1]
                path, line = edges[(a, b)]
                found.append(Finding(
                    path, line, "layering",
                    "module cycle detected: " + " -> ".join(cycle)))
                break
    return found


# --- check: self-contained (compile each header alone) -----------------------

def check_self_contained(headers: list[str], include_dirs: list[str],
                         cxx: str) -> list[Finding]:
    """Compiles `#include "<header>"` alone per header: a header that leans
    on its includers' includes fails here with the real compiler error."""

    def compile_one(header: str) -> Finding | None:
        with tempfile.NamedTemporaryFile(
                mode="w", suffix=".cpp", delete=False) as tu:
            tu.write(f'#include "{os.path.abspath(header)}"\n')
            tu_path = tu.name
        try:
            cmd = [cxx, "-std=c++20", "-fsyntax-only"]
            for inc in include_dirs:
                cmd += ["-I", inc]
            proc = subprocess.run(cmd + [tu_path], capture_output=True,
                                  text=True, check=False)
            if proc.returncode != 0:
                first_error = next(
                    (ln for ln in proc.stderr.splitlines() if "error:" in ln),
                    proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "compile failed")
                return Finding(header, 1, SELF_CONTAINED,
                               f"header does not compile in isolation: {first_error}")
            return None
        finally:
            os.unlink(tu_path)

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=os.cpu_count() or 2) as pool:
        return [f for f in pool.map(compile_one, headers) if f is not None]


# --- driver -----------------------------------------------------------------

def load_allowlist(path: str, repo_root: str) -> dict[str, str]:
    """allowlist.txt: `<relative-header-path> :: <reason>` per line. The
    listed headers are exempt from unit-suffix-double-param only."""
    grandfathered: dict[str, str] = {}
    if not os.path.exists(path):
        return grandfathered
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            rel, _, reason = raw.partition("::")
            grandfathered[os.path.abspath(
                os.path.join(repo_root, rel.strip()))] = reason.strip()
    return grandfathered


def collect_sources(roots: list[str]) -> list[str]:
    out = []
    for root in roots:
        if os.path.isfile(root):
            out.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return sorted(set(out))


def run(paths: list[str], repo_root: str, checks: list[str] = CHECKS,
        allowlist_path: str = DEFAULT_ALLOWLIST,
        self_contained_cxx: str | None = None) -> list[Finding]:
    """Runs `checks` over the sources under `paths`. With
    `self_contained_cxx`, every header is also compiled alone with that
    compiler, using the directories among `paths` as include roots."""
    grandfathered = load_allowlist(allowlist_path, repo_root)
    files = collect_sources(paths)
    sources = [src for src in map(load_source, files) if not src.skip]
    findings: list[Finding] = []
    for src in sources:
        exempt = os.path.abspath(src.path) in grandfathered
        for check in checks:
            if check not in FILE_CHECKS:
                continue
            if check == "unit-suffix-double-param" and exempt:
                continue
            findings.extend(FILE_CHECKS[check](src))
    if "layering" in checks:
        findings.extend(check_layering(sources, repo_root))
    if self_contained_cxx:
        headers = [f for f in files if f.endswith(HEADER_EXTENSIONS)]
        include_dirs = [p for p in paths if os.path.isdir(p)]
        findings.extend(
            check_self_contained(headers, include_dirs, self_contained_cxx))
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyse (default: src/)")
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-contained", action="store_true",
                        help="also compile every header in isolation")
    parser.add_argument("--cxx", default=os.environ.get("CXX", "g++"),
                        help="compiler for --self-contained (default: $CXX "
                             "or g++)")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for check in CHECKS + [SELF_CONTAINED]:
            print(check)
        return 0

    repo_root = args.repo_root or os.path.dirname(os.path.dirname(HERE))
    paths = args.paths or [os.path.join(repo_root, "src")]
    if not collect_sources(paths):
        print(f"vab-tidy: no C++ sources under {paths}", file=sys.stderr)
        return 2
    if args.self_contained and shutil.which(args.cxx) is None:
        print(f"vab-tidy: --self-contained needs {args.cxx} on PATH",
              file=sys.stderr)
        return 2

    findings = run(paths, repo_root, self_contained_cxx=(
        args.cxx if args.self_contained else None))
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"vab-tidy: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
