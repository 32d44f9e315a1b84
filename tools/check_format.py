#!/usr/bin/env python3
"""Compiler-free format gate: the structural half of .clang-format.

clang-format is authoritative (CI runs `--dry-run -Werror` with the pinned
version), but it is not installed everywhere this repo builds. This checker
enforces the style rules that never depend on clang-format's version or
reflow decisions, so every environment — including g++-only containers —
can hold the line on:

  - no tabs in source files
  - no trailing whitespace
  - LF line endings (no CRLF)
  - file ends with exactly one newline
  - lines within the 90-column limit from .clang-format
    (URLs and lines tagged NOLINT are exempt: breaking either helps nobody)

Usage: tools/check_format.py [root ...]   (default: src tests bench examples tools)
Exit: 0 clean, 1 findings.
"""

from __future__ import annotations

import sys

COLUMN_LIMIT = 90
DEFAULT_ROOTS = ["src", "tests", "bench", "examples", "tools"]
EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")


def check_file(path: str) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    problems = []
    if b"\r" in data:
        problems.append(f"{path}: CRLF line endings")
    if data and not data.endswith(b"\n"):
        problems.append(f"{path}: missing final newline")
    if data.endswith(b"\n\n"):
        problems.append(f"{path}: trailing blank line(s) at EOF")
    text = data.decode("utf-8", errors="replace")
    for i, line in enumerate(text.splitlines(), start=1):
        if "\t" in line:
            problems.append(f"{path}:{i}: tab character")
        if line != line.rstrip():
            problems.append(f"{path}:{i}: trailing whitespace")
        if (len(line) > COLUMN_LIMIT and "http://" not in line
                and "https://" not in line and "NOLINT" not in line):
            problems.append(f"{path}:{i}: line exceeds {COLUMN_LIMIT} columns "
                            f"({len(line)})")
    return problems


def main() -> int:
    import os

    roots = sys.argv[1:] or DEFAULT_ROOTS
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            files.extend(os.path.join(dirpath, n) for n in sorted(names)
                         if n.endswith(EXTENSIONS))
    problems = []
    for path in sorted(set(files)):
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    print(f"check_format: {len(files)} files, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
