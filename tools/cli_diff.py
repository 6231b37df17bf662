"""Run the command-line invocations under two ``src/`` trees and diff the output.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC
    python3 tools/cli_diff.py --regenerate SRC

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts, for
example ``../parent/src`` and ``src``.  The invocations and their seeded
input files are those of ``tests/cli_cases.py``; the files are written to a
temporary directory, and every invocation then runs once as
``python -m tiltmat ...`` under each tree, with ``PYTHONPATH`` pointing at it
and BLAS held to one thread.  Per invocation the tool prints ``same``, or the
first line where stdout (then stderr) differs together with both exit codes
and the largest relative change among the output's numeric fields.  It
exits 1 if any invocation differs.

``--regenerate SRC`` is the one way to rewrite the expected outputs under
``tests/golden/`` that ``tests/test_cli_golden.py`` compares against: it runs
every invocation under ``SRC``, writes each file, removes files no invocation
names, and prints per changed file its largest relative change, which a
regeneration's record quotes.  It needs only the standard library and numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))

from cli_cases import (  # noqa: E402
    GOLDEN_DIR,
    describe_difference,
    golden_name,
    invocations,
    read_golden,
    write_golden,
    write_inputs,
)

THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(src: str, args: list[str], cwd: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{name: "1" for name in THREADS})
    done = subprocess.run(
        [sys.executable, "-m", "tiltmat", *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    return done.returncode, done.stdout, done.stderr


def compare(old_src: str, new_src: str) -> int:
    differing = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as directory:
        write_inputs(directory)
        for args in invocations():
            old, new = run(old_src, args, directory), run(new_src, args, directory)
            label = "tiltmat " + " ".join(args)
            if old == new:
                print(f"same  {label}")
                continue
            differing += 1
            print(f"DIFF  {label}")
            print("      " + describe_difference(old, new).replace("\n", "\n      "))
    print(f"{differing} of {len(invocations())} invocations differ")
    return 1 if differing else 0


def regenerate(src: str) -> int:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    names = {golden_name(args) for args in invocations()}
    if len(names) != len(invocations()):
        sys.stderr.write("cli_diff: two invocations share a golden file name\n")
        return 2
    changed = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as directory:
        write_inputs(directory)
        for args in invocations():
            new = run(src, args, directory)
            path = os.path.join(GOLDEN_DIR, golden_name(args))
            old = read_golden(args) if os.path.exists(path) else None
            if old == new:
                continue
            changed += 1
            write_golden(args, new)
            label = "tiltmat " + " ".join(args)
            if old is None:
                print(f"NEW   {label}")
            else:
                print(f"WROTE {label}")
                print("      " + describe_difference(old, new).replace("\n", "\n      "))
    for stale in sorted(set(os.listdir(GOLDEN_DIR)) - names):
        os.remove(os.path.join(GOLDEN_DIR, stale))
        print(f"REMOVED {stale}")
    print(f"{changed} of {len(invocations())} golden files written")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--regenerate":
        return regenerate(argv[1])
    if len(argv) == 2 and not argv[0].startswith("-"):
        return compare(*argv)
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
