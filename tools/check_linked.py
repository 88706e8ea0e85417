#!/usr/bin/env python3
"""Fails when library code is linked into no product binary.

    tools/check_linked.py build

Every member of every liblowbist_*.a archive under the build directory
must define at least one global function (nm type "T") that a product
binary also defines.  The product binaries are the CLI (tools/lowbist),
the benchmark harnesses (bench/bench_*) and the examples (examples/*).
A static link pulls in an archive member only when a binary needs one of
its symbols, so a member that shares no function with any of them is
code that nothing ships: only tests reach it.  The script prints every
such member.  Test oracles belong in a library a product links (the fuzz
campaign's src/fuzz/reference), not in one of their own.

Needs a build with LOWBIST_BUILD_BENCH and LOWBIST_BUILD_EXAMPLES on.
Stdlib and binutils `nm` only; exit code 0 = every member is linked,
1 = some member is not, 2 = usage error or nothing to check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def defined_text_symbols(path: Path) -> dict[str, set[str]]:
    """Global text symbols per object: {member name: symbols} for an
    archive, {"": symbols} for a linked binary."""
    out = subprocess.run(["nm", "-g", "--defined-only", str(path)],
                         check=True, capture_output=True, text=True).stdout
    members: dict[str, set[str]] = {}
    current = ""
    for line in out.splitlines():
        if line.endswith(":"):
            current = line[:-1]
            members.setdefault(current, set())
            continue
        parts = line.split()
        if len(parts) == 3 and parts[1] == "T":
            members.setdefault(current, set()).add(parts[2])
    return members


def product_binaries(build: Path) -> list[Path]:
    candidates = [build / "tools" / "lowbist",
                  *(build / "bench").glob("bench_*"),
                  *(build / "examples").glob("*")]
    return sorted(p for p in candidates
                  if p.is_file() and os.access(p, os.X_OK))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: check_linked.py <build-dir>", file=sys.stderr)
        return 2
    build = Path(argv[1])
    archives = sorted(build.glob("src/**/liblowbist_*.a"))
    binaries = product_binaries(build)
    if not archives or not binaries:
        print(f"check_linked: no archives or product binaries in {build}",
              file=sys.stderr)
        return 2
    shipped: set[str] = set()
    for binary in binaries:
        shipped |= defined_text_symbols(binary).get("", set())
    unlinked = [f"{archive.name}({member})"
                for archive in archives
                for member, symbols in
                sorted(defined_text_symbols(archive).items())
                if not symbols & shipped]
    for name in unlinked:
        print(f"not linked into any product binary: {name}")
    print(f"check_linked: {len(archives)} archives, {len(binaries)} product "
          f"binaries, {len(unlinked)} unlinked member(s)")
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
