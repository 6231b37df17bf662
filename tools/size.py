"""Count lines, statements and AST nodes per module of one or two ``src/`` trees.

    python3 tools/size.py SRC
    python3 tools/size.py OLD_SRC NEW_SRC

``SRC`` is the ``src`` directory of a checkout; the modules counted are
``SRC/tiltmat/*.py``.  Per module it prints the lines of the file, its
statements (``ast.stmt`` nodes, compound statements and the statements in
their bodies each counted once) and all its nodes as ``ast.walk`` yields
them, then the totals.  Given two trees it prints both, then per module and
in total the new count minus the old; a module in only one tree counts as 0
in the other.  It needs only the standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

FIELDS = ("lines", "statements", "nodes")


def module_counts(path: Path) -> tuple[int, int, int]:
    text = path.read_text()
    nodes = list(ast.walk(ast.parse(text, str(path))))
    return len(text.splitlines()), sum(isinstance(n, ast.stmt) for n in nodes), len(nodes)


def tree_counts(src: str) -> dict[str, tuple[int, int, int]]:
    paths = sorted((Path(src) / "tiltmat").glob("*.py"))
    if not paths:
        sys.exit(f"size.py: no modules under {Path(src) / 'tiltmat'}")
    return {p.name: module_counts(p) for p in paths}


def with_total(counts: dict[str, tuple[int, ...]]) -> dict[str, tuple[int, ...]]:
    return {**counts, "total": tuple(map(sum, zip(*counts.values())))}


def table(title: str, counts: dict[str, tuple[int, ...]], signed: bool = False) -> str:
    number = "{:>+12,}" if signed else "{:>12,}"
    rows = [title, f"{'module':<16}" + "".join(f"{f:>12}" for f in FIELDS)]
    rows += [f"{name:<16}" + "".join(number.format(c) for c in row) for name, row in counts.items()]
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    trees = [tree_counts(src) for src in argv]
    for src, counts in zip(argv, trees):
        print(table(src, with_total(counts)), end="\n\n")
    if len(trees) == 2:
        old, new = trees
        names = sorted(old.keys() | new.keys())
        zero = (0,) * len(FIELDS)
        diff = {
            n: tuple(b - a for a, b in zip(old.get(n, zero), new.get(n, zero))) for n in names
        }
        print(table(f"{argv[1]} - {argv[0]}", with_total(diff), signed=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
