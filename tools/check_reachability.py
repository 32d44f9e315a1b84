#!/usr/bin/env python3
"""Fails when the library defines a function that no shipped binary keeps.

The shipped binaries are every executable the root project defines outside
tests/ (the bench/ programs and the examples) plus perfbench's
vab_perfbench, built from perfbench's own CMake project. Tests are not
roots: a library function that only a test calls is either dead code or a
test oracle, and oracles belong in tests/support.

The check builds all of them in one directory with

    -O0 -fno-inline -ffunction-sections   and   -Wl,--gc-sections

so that the linker drops every function section no binary reaches. It then
runs `nm -C --defined-only` on the libvab_*.a archives and on the binaries,
and reports every global text (T) symbol of the archives that no binary
keeps and that tools/reachability_allowlist.txt does not name. An allowlist
entry that no longer names an unreached library function is stale and fails
too.

Usage (from anywhere; builds into build-reachability/ at the repository
root, which later runs reuse):

    python3 tools/check_reachability.py

Needs only the Python standard library, CMake and binutils.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "reachability_allowlist.txt")
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
# `nm` lines for defined symbols: address, type letter, demangled name.
NM_LINE = re.compile(r"^[0-9a-fA-F]+ ([A-Za-z]) (.+)$")


def parse_nm(text: str, kinds: str | None = None) -> set[str]:
    """The symbol names in `nm -C --defined-only` output, restricted to the
    given type letters when `kinds` is set. Archive member headers
    (`file.o:`) and blank lines are skipped."""
    names = set()
    for line in text.splitlines():
        m = NM_LINE.match(line)
        if m and (kinds is None or m.group(1) in kinds):
            names.add(m.group(2))
    return names


def parse_allowlist(text: str) -> tuple[dict[str, int], list[str]]:
    """`<demangled symbol>  # <reason>` per line; `#` never occurs in a
    demangled C++ name. Returns each symbol's line number, and an error for
    every entry without a reason."""
    entries: dict[str, int] = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        symbol, _, reason = raw.partition("#")
        symbol = symbol.strip()
        if not reason.strip():
            errors.append(f"allowlist:{lineno}: '{symbol}' has no reason")
        entries[symbol] = lineno
    return entries, errors


def diff(library_nm: str, binary_nms: list[str],
         allowlist: dict[str, int]) -> tuple[list[str], list[str]]:
    """(unreached, stale): the library's global text symbols that no binary
    defines and the allowlist does not name, and the allowlist entries that
    name no unreached library function."""
    library = parse_nm(library_nm, "T")
    kept = set()
    for text in binary_nms:
        kept |= parse_nm(text)
    unreached = library - kept
    missing = sorted(unreached - allowlist.keys())
    stale = []
    for symbol, lineno in sorted(allowlist.items(), key=lambda kv: kv[1]):
        if symbol not in library:
            stale.append(f"allowlist:{lineno}: '{symbol}' is not a library "
                         "function; delete the entry")
        elif symbol not in unreached:
            stale.append(f"allowlist:{lineno}: '{symbol}' is reached by a "
                         "shipped binary; delete the entry")
    return missing, stale


def run(cmd: list[str]) -> None:
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(f"check_reachability: failed: {' '.join(cmd)}")


def configure(source: str, build: str) -> None:
    # Ask CMake's file API for the codemodel, which lists the targets.
    query = os.path.join(build, ".cmake", "api", "v1", "query")
    os.makedirs(query, exist_ok=True)
    open(os.path.join(query, "codemodel-v2"), "w").close()
    cmd = ["cmake", "-S", source, "-B", build] + FLAGS
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    run(cmd)


def targets(build: str) -> list[dict]:
    """The codemodel's targets, each with its type, source directory
    (relative to the project root) and artifact paths."""
    reply = os.path.join(build, ".cmake", "api", "v1", "reply")
    index = sorted(glob.glob(os.path.join(reply, "index-*.json")))[-1]
    with open(index, encoding="utf-8") as fh:
        ref = json.load(fh)["reply"]["codemodel-v2"]["jsonFile"]
    with open(os.path.join(reply, ref), encoding="utf-8") as fh:
        config = json.load(fh)["configurations"][0]
    out = []
    for t in config["targets"]:
        with open(os.path.join(reply, t["jsonFile"]), encoding="utf-8") as fh:
            detail = json.load(fh)
        out.append({
            "name": t["name"],
            "type": detail["type"],
            "dir": config["directories"][t["directoryIndex"]]["source"],
            "artifacts": [os.path.join(build, a["path"])
                          for a in detail.get("artifacts", [])],
        })
    return out


def nm(path: str) -> str:
    return subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                          capture_output=True, text=True).stdout


def in_dir(rel: str, top: str) -> bool:
    return rel == top or rel.startswith(top + "/")


def main() -> int:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    build = os.path.join(ROOT, "build-reachability")
    jobs = ["-j", str(min(4, os.cpu_count() or 1))]

    configure(ROOT, build)
    model = targets(build)
    roots = [t for t in model
             if t["type"] == "EXECUTABLE" and not in_dir(t["dir"], "tests")]
    libraries = [t for t in model
                 if t["type"] == "STATIC_LIBRARY" and in_dir(t["dir"], "src")]
    run(["cmake", "--build", build, *jobs, "--target",
         *[t["name"] for t in roots + libraries]])
    archives = [a for t in libraries for a in t["artifacts"]]

    perfbench = os.path.join(build, "perfbench")
    configure(os.path.join(ROOT, "perfbench"), perfbench)
    run(["cmake", "--build", perfbench, *jobs, "--target", "vab_perfbench"])
    binaries = [a for t in roots for a in t["artifacts"]]
    binaries += [a for t in targets(perfbench) if t["name"] == "vab_perfbench"
                 for a in t["artifacts"]]

    with open(ALLOWLIST, encoding="utf-8") as fh:
        allowlist, errors = parse_allowlist(fh.read())
    missing, stale = diff("".join(nm(a) for a in archives),
                          [nm(b) for b in binaries], allowlist)
    for line in errors + stale:
        print(f"{os.path.relpath(ALLOWLIST, ROOT)}:{line.partition(':')[2]}")
    for symbol in missing:
        print(f"unreached: {symbol}")
    if missing:
        print(f"{len(missing)} library function(s) that no shipped binary keeps: "
              "delete them, move test oracles to tests/support, or allowlist "
              "them with a reason")
    ok = not (missing or stale or errors)
    print(f"check_reachability: {len(binaries)} binaries, {len(archives)} "
          f"archives, {len(allowlist)} allowlisted: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
