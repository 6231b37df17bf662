"""The command-line invocations that pin the CLI's output, and their input files.

``tools/cli_diff.py`` runs these invocations under two ``src`` trees and
diffs them; ``tests/test_cli_golden.py`` runs them in-process and compares
each (exit code, stdout, stderr) with its file under ``tests/golden/``.
``cli_diff.py --regenerate SRC`` is the one writer of those files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import numpy as np

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _reversible(rng: np.random.Generator, m: int) -> np.ndarray:
    weights = rng.uniform(size=(m, m))
    weights = weights + weights.T
    return weights / weights.sum(axis=1)[:, None]


def _csv(rows) -> str:
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows)


def _structured(matrix: np.ndarray) -> str:
    rows, cols = matrix.shape
    return json.dumps({"rows": rows, "cols": cols, "data": matrix.tolist()}) + "\n"


def write_inputs(directory: str) -> None:
    """The seeded input files every invocation reads."""
    rng = np.random.default_rng(20231)
    k8, k16 = _reversible(rng, 8), _reversible(rng, 16)
    w8 = rng.uniform(1.0, 2.0, size=8)
    tilted = k8 * w8[None, :] / (k8 @ w8)[:, None]
    two_state, wide14 = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([1.0, 1e14])
    files = {
        "P.csv": "0.9,0.1\n0.2,0.8\n",
        "u.csv": "1.0\n2.0\n",
        "v.csv": "2.0\n1.0\n",
        # Tilts whose closed-form stationary vector overflows unless u is scaled first.
        "wide.csv": "1.0,1e200\n",
        "mirrored.csv": "1e200,1.0\n",
        # A spread past the float range: the tilt's closed-form mu_u[0] rounds to 0.
        "extreme.csv": "1e-300,1e300\n",
        # A square matrix whose row 0 sums to 1.5: a RowSumError wherever it is loaded.
        "rowsum.csv": "0.9,0.6\n0.2,0.8\n",
        # The (1, 1e14) tilt of P.csv: its entry (1, 0) is 2.5e-15 of the largest.
        "tilt14.csv": _csv(two_state * wide14 / (two_state @ wide14)[:, None]),
        "k8.csv": _csv(k8),
        "k16.csv": _csv(k16),
        "k16.json": _structured(k16),
        "other8.csv": _csv(_reversible(rng, 8)),
        "tilted8.csv": _csv(tilted),
        "w8.csv": _csv([w8]),
    }
    for k in range(3):
        vector = rng.uniform(1.0, 2.0, size=16)
        files[f"u16_{k}.csv"] = _csv([vector])
        files[f"u16_{k}.json"] = json.dumps(vector.tolist()) + "\n"
        files[f"a4_{k}.csv"] = _csv(rng.uniform(0.0, 1.0, size=(4, 4)))
        files[f"u4_{k}.csv"] = _csv([rng.uniform(0.5, 2.0, size=4)])
    # An exactly symmetric matrix takes the symmetric route under auto; its
    # copy with a 1e-13 asymmetry does not at --tol 1e-15, but jacobi accepts it.
    draws = rng.uniform(size=(8, 8))
    symmetric = 0.5 * (draws + draws.T)
    files["s8.csv"] = _csv(symmetric)
    symmetric[0, 1] += 1e-13
    files["near8.csv"] = _csv(symmetric)
    # Two blocks joined by eps: at 1e-14 the direct solve fails its gate; at
    # 1e-16 the join is below the irreducibility gate's relative cut.
    for name, eps in (("eps14.csv", 1e-14), ("eps16.csv", 1e-16)):
        files[name] = _csv(
            [[1 - eps, eps, 0.0, 0.0], [0.5, 0.5 - eps, eps, 0.0],
             [0.0, eps, 0.5 - eps, 0.5], [0.0, 0.0, eps, 1 - eps]]
        )
    # A slowly mixing chain (lambda_2 near 0.99): converge's first products
    # need more power steps than its cap and reach the stationary solve.
    files["hold8.csv"] = _csv(0.99 * np.eye(8) + 0.01 * k8)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def invocations() -> list[list[str]]:
    runs = [
        ["tilt", "--matrix", "P.csv", "--vector", "u.csv"],
        ["check-reversible", "--matrix", "P.csv"],
        ["bounds", "--matrix", "P.csv", "--vector", "u.csv", "--vector", "v.csv"],
        ["bounds", "--matrix", "P.csv", "--vector", "wide.csv"],
        ["bounds", "--matrix", "P.csv", "--vector", "wide.csv", "--vector", "mirrored.csv"],
        ["spectral", "--matrix", "P.csv", "--format", "structured"],
    ]
    for m in ("8", "16"):
        runs.append(["gen", "--m", m, "--seed", "3"])
        runs.append(["gen", "--m", m, "--seed", "3", "--sparsity", "0.6", "--format", "structured"])
    runs.append(["gen", "--m", "64", "--seed", "3", "--sparsity", "0.6"])
    runs.append(["stationary", "--matrix", "k16.csv"])
    runs.append(["stationary", "--matrix", "eps14.csv"])
    runs.append(["stationary", "--matrix", "eps14.csv", "--format", "structured"])
    runs.append(["check-reversible", "--matrix", "eps14.csv", "--format", "structured"])
    runs.append(["check-reversible", "--matrix", "k16.csv", "--format", "structured"])
    for method in ("auto", "jacobi", "qr"):
        runs.append(["spectral", "--matrix", "k8.csv", "--method", method])
        for fmt in ("csv", "structured"):
            runs.append(["spectral", "--matrix", "s8.csv", "--method", method, "--format", fmt])
    for method in ("auto", "jacobi"):
        runs.append(
            ["spectral", "--matrix", "near8.csv", "--method", method, "--tol", "1e-15",
             "--format", "structured"]
        )
    for count in (1, 2, 3):
        for ext, fmt in (("csv", "csv"), ("json", "structured")):
            vectors = [arg for k in range(count) for arg in ("--vector", f"u16_{k}.{ext}")]
            runs.append(["bounds", "--matrix", f"k16.{ext}", *vectors, "--format", fmt])
    for schedule in ("ones", "decaying"):
        runs.append(["converge", "--matrix", "k8.csv", "--steps", "60", "--schedule", schedule])
    runs.append(["converge", "--matrix", "hold8.csv", "--schedule", "decaying"])
    runs.append(
        ["converge", "--matrix", "k8.csv", "--steps", "60", "--schedule", "decaying",
         "--seed", "18446744073709551621"]
    )
    runs.append(
        ["converge", "--matrix", "hold8.csv", "--schedule", "decaying", "--format", "structured"]
    )
    for spread in ("0", "1", "10"):
        for fmt in ("csv", "structured"):
            runs.append(
                ["conjecture-scan", "--m-max", "4", "--n-max", "3", "--trials", "2",
                 "--seed", "5", "--spread", spread, "--format", fmt]
            )
    # The tilt scaling 1 + width * random() at its extremes: the widest spread
    # and a grid of one-state chains only.
    runs.append(["conjecture-scan", "--spread", "1e308"])
    runs.append(["conjecture-scan", "--m-min", "1", "--m-max", "1"])
    # A three-word seed over the grid the per-trial bit-identity test covers.
    for fmt in ("csv", "structured"):
        runs.append(
            ["conjecture-scan", "--seed", "18446744073709551621", "--m-max", "9", "--n-max", "7",
             "--trials", "3", "--format", fmt]
        )
    runs.append(["tilt", "--matrix", "k8.csv", "--vector", "w8.csv"])
    runs.append(["tilt-detect", "--matrix", "tilted8.csv", "--base", "k8.csv"])
    runs.append(["tilt-detect", "--matrix", "tilt14.csv", "--base", "P.csv"])
    runs.append(["bounds", "--matrix", "P.csv", "--vector", "extreme.csv"])
    runs.append(["stationary", "--matrix", "eps16.csv"])
    # A tilt that would round entry (0, 0) to 0, and a matrix that is not
    # stochastic through every command that loads a chain.
    runs.append(["tilt", "--matrix", "P.csv", "--vector", "extreme.csv"])
    runs.append(["check-reversible", "--matrix", "rowsum.csv"])
    runs.append(["bounds", "--matrix", "rowsum.csv", "--vector", "u.csv"])
    runs.append(["converge", "--matrix", "rowsum.csv"])
    runs.append(["stationary", "--matrix", "rowsum.csv"])
    runs.append(
        ["tilt-detect", "--matrix", "other8.csv", "--base", "k8.csv", "--format", "structured"]
    )
    factors = [
        arg for k in range(3) for arg in ("--matrix", f"a4_{k}.csv", "--vector", f"u4_{k}.csv")
    ]
    runs.append(["normalize-product", *factors])
    runs.append(["normalize-product", *factors, "--format", "structured"])
    # A factor whose tilt would round entry (0, 0) to 0, and a chain whose
    # stationary sum is held to m·eps because both tolerances are below it.
    runs.append(["normalize-product", "--matrix", "P.csv", "--vector", "extreme.csv"])
    for tol in ("1e-16", "1e-300"):
        runs.append(["check-reversible", "--matrix", "P.csv", "--tol", tol])
    return runs


def golden_name(args: list[str]) -> str:
    """File name of an invocation's expected output: its arguments, joined and made path-safe."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", "_".join(args)) + ".json"


def run_in_process(args: list[str], cwd: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``tiltmat.cli.main(args)`` run in ``cwd``."""
    from tiltmat.cli import main

    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def read_golden(args: list[str]) -> tuple[int, str, str]:
    with open(os.path.join(GOLDEN_DIR, golden_name(args)), encoding="utf-8") as handle:
        record = json.load(handle)
    return record["exit"], record["stdout"], record["stderr"]


def write_golden(args: list[str], result: tuple[int, str, str]) -> None:
    code, out, err = result
    record = {"args": args, "exit": code, "stdout": out, "stderr": err}
    with open(os.path.join(GOLDEN_DIR, golden_name(args)), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(record, indent=1) + "\n")


def first_difference(old: str, new: str) -> tuple[int, str, str] | None:
    """First differing line of two texts, 1-based, with both versions of it."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for k in range(max(len(old_lines), len(new_lines))):
        a = old_lines[k] if k < len(old_lines) else "<missing>"
        b = new_lines[k] if k < len(new_lines) else "<missing>"
        if a != b:
            return k + 1, a, b
    return None


_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?!\w)")


def largest_relative_change(old: str, new: str) -> float | None:
    """Largest ``|a - b| / max(|a|, |b|)`` over the numeric fields of two outputs, in order.

    None when the two outputs hold different numbers of numeric fields, so
    that no field pairs with another; 0.0 when every field is equal.
    """
    a, b = _NUMBER.findall(old), _NUMBER.findall(new)
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if scale < math.inf else math.inf)
    return worst


def describe_difference(old: tuple[int, str, str], new: tuple[int, str, str]) -> str:
    """Both exit codes, the first differing line of stdout (else stderr) and the largest change."""
    lines = [f"exit {old[0]} vs {new[0]}"]
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        found = first_difference(a, b)
        if found:
            line, was, now = found
            change = largest_relative_change(a, b)
            lines.append(f"{stream} line {line}:\n- {was}\n+ {now}")
            lines.append(
                "largest relative change in its numeric fields: "
                + ("n/a, the field counts differ" if change is None else repr(change))
            )
            break
    return "\n".join(lines)
