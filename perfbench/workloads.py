"""The benchmark workloads: seeded inputs, one op each, and its check.

Every input is drawn from the benchmark's own numpy RNG, keyed by the run
seed, the process segment and the op index, so the same seed gives the same
inputs.  ``tiltmat`` receives only the generated matrices and vectors.  Each
op of a workload is the same size of work, so its latency percentiles
describe the program rather than a mix of op kinds.

A workload object offers ``make_input(i)`` (untimed), ``run(args)`` (the
timed op) and ``check(args, result)`` (untimed; returns None when the result
is correct, else a one-line reason).  Library calls go through module
attributes (``tm.tilt``, ``tm.conjecture_scan``) so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import numpy as np

import tiltmat as tm

TOL = 1e-9
CONVERGE_SCRIPT = "from tiltmat.cli import console_main; console_main()"
OP_TIMEOUT_S = 60


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _reversible_kernel(weights: np.ndarray) -> np.ndarray:
    """Row-normalised symmetric weights: reversible with mu proportional to row sums."""
    sym = 0.5 * (weights + weights.T)
    return sym / sym.sum(axis=1)[:, None]


def _csv(matrix: np.ndarray) -> str:
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in matrix)


def _second_modulus(matrix: np.ndarray) -> float:
    """Reference lambda_2 modulus from LAPACK: drop the eigenvalue nearest 1."""
    values = np.linalg.eigvals(matrix)
    rest = np.delete(values, int(np.argmin(np.abs(values - 1.0))))
    return float(np.abs(rest).max())


class Scan:
    """``conjecture_scan`` over m in 2..8, n in 1..6, one trial per cell (42 trials)."""

    name = "scan"
    module = "tiltmat"
    warmup = 3

    def __init__(self, seed: int, segment: int, workdir: str):
        self.seed, self.segment = seed, segment

    def make_input(self, i: int) -> int:
        return int(_rng(self.seed, self.segment, i).integers(0, 2**31))

    def run(self, base_seed: int):
        return tm.conjecture_scan(range(2, 9), range(1, 7), 1, base_seed=base_seed)

    def check(self, base_seed: int, trials) -> str | None:
        if len(trials) != 42:
            return f"{len(trials)} trials, expected 42"
        if not all(np.isfinite(t.defect) and np.isfinite(t.candidate_residual) for t in trials):
            return "non-finite defect or residual"
        if self.run(base_seed) != trials:
            return "repeat with the same seed gave different trials"
        return None


class Bounds:
    """The library sequence behind ``tiltmat bounds``: m = 16, three tilts in [1, 2]."""

    name = "bounds"
    module = "tiltmat"
    warmup = 2
    m = 16
    pool_size = 8

    def __init__(self, seed: int, segment: int, workdir: str):
        self.seed, self.segment = seed, segment
        rng = _rng(seed, 16)
        self.pool = [
            _reversible_kernel(rng.uniform(size=(self.m, self.m)))
            for _ in range(self.pool_size)
        ]

    def make_input(self, i: int):
        rng = _rng(self.seed, self.segment, i)
        kernel = self.pool[int(rng.integers(self.pool_size))]
        return kernel, [rng.uniform(1.0, 2.0, size=self.m) for _ in range(3)]

    def run(self, args):
        kernel, us = args
        chain = tm.ReversibleChain.from_kernel(kernel, TOL)
        chain.require_reversible(TOL)
        lam_p = tm.second_eigenvalue_modulus(chain.kernel, chain.stationary, TOL)
        tilts = [tm.tilted_stationary(chain, u, TOL) for u in us]
        lam_tilts = [tm.second_eigenvalue_modulus(U, mu, TOL) for U, mu in tilts]
        pair_w, pair_mu = tm.two_tilt_product(chain, us[0], us[1], TOL)
        lam_pair = tm.second_eigenvalue_modulus(pair_w, pair_mu, TOL)
        product = None
        for U, _ in tilts:
            product = U.matrix.copy() if product is None else product @ U.matrix
            product /= product.sum(axis=1)[:, None]
        product = tm.validate_stochastic(product, TOL)
        lam_prod = tm.second_eigenvalue_modulus(product, None, TOL)
        mus = [mu for _, mu in tilts]
        bounds = {
            "tilted": (lam_tilts[0], tm.bound_tilted(lam_p, us[0])),
            "pair": (lam_pair, tm.bound_pair(lam_tilts[0], lam_tilts[1], mus[0], mus[1])),
            "chain": (lam_prod, tm.bound_chain(lam_tilts, mus)),
            "main": (lam_prod, tm.bound_main(lam_p, us)),
        }
        observed = [(chain.kernel.matrix, lam_p)]
        observed += [(U.matrix, lam) for (U, _), lam in zip(tilts, lam_tilts)]
        observed += [(pair_w.matrix, lam_pair), (product.matrix, lam_prod)]
        return bounds, observed

    def check(self, args, result) -> str | None:
        bounds, observed = result
        for name, (lam, value) in bounds.items():
            if value - lam < -1e-9:
                return f"bound {name} violated: slack {value - lam!r}"
        for k, (matrix, lam) in enumerate(observed):
            if abs(lam - _second_modulus(matrix)) > 1e-8:
                return f"lambda_2 #{k} {lam!r} disagrees with LAPACK"
        return None


class Converge:
    """``tiltmat converge`` on an 8-state chain, 200 decaying tilts, as a subprocess.

    In the traced run the same argv goes through ``tiltmat.cli.main`` in-process.
    """

    name = "converge"
    module = "tiltmat.cli"
    warmup = 1
    m = 8
    steps = 200
    pool_size = 4

    def __init__(self, seed: int, segment: int, workdir: str, in_process: bool = False):
        self.seed, self.segment, self.in_process = seed, segment, in_process
        rng = _rng(seed, 8)
        self.paths = []
        for k in range(self.pool_size):
            # Mixing toward the identity makes the decay span many of the 200 steps.
            kernel = 0.9 * np.eye(self.m) + 0.1 * _reversible_kernel(
                rng.uniform(size=(self.m, self.m))
            )
            path = os.path.join(workdir, f"converge-{segment}-{k}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(_csv(kernel))
            self.paths.append(path)

    def make_input(self, i: int) -> list[str]:
        rng = _rng(self.seed, self.segment, i)
        path = self.paths[int(rng.integers(self.pool_size))]
        op_seed = int(rng.integers(0, 2**31))
        return [
            "converge", "--matrix", path, "--steps", str(self.steps),
            "--schedule", "decaying", "--seed", str(op_seed),
        ]

    def run(self, argv: list[str]):
        if self.in_process:
            import tiltmat.cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tiltmat.cli.main(argv)
            return code, out.getvalue()
        done = subprocess.run(
            [sys.executable, "-c", CONVERGE_SCRIPT, *argv],
            capture_output=True, text=True, check=False, timeout=OP_TIMEOUT_S,
        )
        return done.returncode, done.stdout

    def check(self, argv, result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        lines = text.splitlines()
        header = dict(line[2:].split(",", 1) for line in lines if line.startswith("# "))
        rows = [line for line in lines if line and line[0].isdigit()]
        if len(rows) != self.steps:
            return f"{len(rows)} step rows, expected {self.steps}"
        gap = abs(float(header["fitted_rate"]) - float(header["predicted_rate"]))
        if gap > 0.05:
            return f"fitted rate is {gap!r} from the predicted rate"
        return None


WORKLOADS = {w.name: w for w in (Scan, Bounds, Converge)}
