"""Command-line front end.

Every operation works on matrix/vector files in the csv or structured format
(see :mod:`tiltmat.io`); input format is sniffed, output format is chosen
with ``--format``.  All randomness flows through ``--seed``, and outputs use
shortest round-trip float formatting, so identical invocations on identical
files produce byte-identical results.

Each command computes its result and names each output field once, in one
record; both formats render from that record through the one writer in
:mod:`tiltmat.io`: ``structured`` as one JSON line, ``csv`` as ``# key,values``
comment lines, an optional header row and data rows.  Where the two formats
differ, the command says so in the rows it passes: csv ``spectral`` has no
method, csv ``gen`` no stationary vector or defect, and csv ``tilt-detect``
reports an absent tilt as ``# absent,<reason>``.

Exit codes: 0 on success, 1 on domain errors (one ``Code: message`` line on
stderr), 2 on usage errors (bad flags, missing or unreadable files).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .core import normalize_product, tilt, tilt_detect, tilted_product, validate_stochastic
from .errors import TiltmatError
from .harness import _uniform, conjecture_scan, converge_demo
from .io import _matrix_object, _render, format_matrix, format_vector, parse_matrix, parse_vector
from .reversible import (
    ReversibleChain,
    random_reversible,
    stationary_distribution,
    tilted_stationary,
    two_tilt_product,
)
from .spectral import (
    METHOD_JACOBI,
    METHOD_QR,
    BoundReport,
    bound_chain,
    bound_main,
    bound_pair,
    bound_tilted,
    second_eigenvalue_modulus,
    spectrum,
)

_CANDIDATE_NOTE = "normalize((P u_1) o mu_P o u_n); hypothesis, reported not asserted"
# One column list per table: its JSON keys and its csv header.
_BOUND_COLUMNS = ("observed_lambda2", "bound_value", "satisfied", "slack")
_SCAN_COLUMNS = ("m", "n", "seed", "defect", "candidate_residual")


class _UsageError(Exception):
    """Bad flag combinations or parameter values; maps to exit code 2."""


def _read(path: str, parse):
    """The matrix or vector that ``parse`` (parse_matrix or parse_vector) reads from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _cmd_tilt(args) -> str:
    result = tilt(_read(args.matrix, parse_matrix), _read(args.vector, parse_vector), args.tol)
    return format_matrix(result.matrix, args.format)


def _cmd_normalize_product(args) -> str:
    if len(args.matrix) != len(args.vector):
        raise _UsageError(
            f"{len(args.matrix)} --matrix flags vs {len(args.vector)} --vector flags; "
            "each factor needs one of each"
        )
    factors = [
        (_read(mp, parse_matrix), _read(vp, parse_vector))
        for mp, vp in zip(args.matrix, args.vector)
    ]
    fact = normalize_product(factors, args.tol)
    kernel = fact.kernel.matrix
    record = {
        "scale": fact.scale.tolist(),
        "log_scale": fact.log_scale,
        "kernel": _matrix_object(kernel),
    }
    return _render(args.format, record, kernel, ("log_scale", "scale"))


def _cmd_stationary(args) -> str:
    mu = stationary_distribution(_read(args.matrix, parse_matrix), args.tol)
    return format_vector(mu, args.format)


def _cmd_check_reversible(args) -> str:
    chain = ReversibleChain.from_kernel(_read(args.matrix, parse_matrix), args.tol)
    columns, values = ("reversible", "defect"), (chain.defect <= args.tol, chain.defect)
    record = {**dict(zip(columns, values)), "stationary": chain.stationary.tolist()}
    return _render(args.format, record, [columns, values])


def _cmd_spectral(args) -> str:
    method = {"auto": "auto", "jacobi": METHOD_JACOBI, "qr": METHOD_QR}[args.method]
    result = spectrum(_read(args.matrix, parse_matrix), method, args.tol)
    pairs = np.column_stack([result.eigenvalues.real, result.eigenvalues.imag])
    return _render(args.format, {"method": result.method, "eigenvalues": pairs.tolist()}, pairs)


def _cmd_bounds(args) -> str:
    chain = ReversibleChain.from_kernel(_read(args.matrix, parse_matrix), args.tol)
    chain.require_reversible(args.tol)
    m = chain.n_states
    us = [_read(path, parse_vector) for path in args.vector]
    lam_p = second_eigenvalue_modulus(chain.kernel, chain.stationary, args.tol)

    tilts = [tilted_stationary(chain, u, args.tol) for u in us]
    lam_tilts = [
        second_eigenvalue_modulus(U, mu_u, args.tol) for U, mu_u in tilts
    ]

    reports = {"tilted": BoundReport.evaluate(lam_tilts[0], bound_tilted(lam_p, us[0]), m)}
    if len(us) >= 2:
        pair_w, pair_mu = two_tilt_product(chain, us[0], us[1], args.tol)
        observed_pair = second_eigenvalue_modulus(pair_w, pair_mu, args.tol)
        value = bound_pair(lam_tilts[0], lam_tilts[1], tilts[0][1], tilts[1][1])
        reports["pair"] = BoundReport.evaluate(observed_pair, value, m)

    observed_prod = second_eigenvalue_modulus(
        tilted_product(chain.kernel, us, args.tol), None, args.tol
    )
    value = bound_chain(lam_tilts, [mu for _, mu in tilts])
    reports["chain"] = BoundReport.evaluate(observed_prod, value, m)
    reports["main"] = BoundReport.evaluate(observed_prod, bound_main(lam_p, us), m)

    table = [[name, *(getattr(r, c) for c in _BOUND_COLUMNS)] for name, r in reports.items()]
    record = {"bounds": [dict(zip(("name", *_BOUND_COLUMNS), row)) for row in table]}
    return _render(args.format, record, [("bound", *_BOUND_COLUMNS), *table])


def _cmd_tilt_detect(args) -> str:
    p1 = validate_stochastic(_read(args.matrix, parse_matrix), args.tol)
    p2 = validate_stochastic(_read(args.base, parse_matrix), args.tol)
    detection = tilt_detect(p1, p2, args.tol)
    factor = detection.factor.tolist() if detection.found else None
    record = {"found": detection.found, "reason": detection.reason, "factor": factor}
    row = factor if detection.found else ("# absent", detection.reason)
    return _render(args.format, record, [row])


def _cmd_converge(args) -> str:
    if args.steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {args.steps}")
    if not 0.0 <= args.spread < math.inf:
        raise _UsageError(f"--spread must be finite and >= 0, got {args.spread}")
    chain = ReversibleChain.from_kernel(_read(args.matrix, parse_matrix), args.tol)
    m = chain.n_states
    if args.schedule == "ones":
        schedule = [np.ones(m)]
    else:
        try:
            r = _uniform(args.seed, 0.0, args.spread, m)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        schedule = [1.0 + (0.5 ** i) * r for i in range(1, args.steps + 1)]
    report = converge_demo(chain, schedule, args.steps, args.tol)
    record = {
        "n_steps": report.n_steps,
        "fitted_rate": report.fitted_rate,
        "predicted_rate": report.predicted_rate,
        "errors": report.errors.tolist(),
        "bound_curve": report.bound_curve.tolist(),
    }
    steps = zip(range(1, report.n_steps + 1), record["errors"], record["bound_curve"])
    rows = [("step", "error", "bound"), *steps]
    return _render(args.format, record, rows, ("fitted_rate", "predicted_rate"))


def _cmd_conjecture_scan(args) -> str:
    if args.m_min > args.m_max:
        raise _UsageError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    if args.n_min > args.n_max:
        raise _UsageError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    try:
        trials = conjecture_scan(
            range(args.m_min, args.m_max + 1),
            range(args.n_min, args.n_max + 1),
            args.trials,
            args.seed,
            args.spread,
            args.tol,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    table = [[getattr(t, c) for c in _SCAN_COLUMNS] for t in trials]
    trial_records = [dict(zip(_SCAN_COLUMNS, row)) for row in table]
    record = {"candidate": _CANDIDATE_NOTE, "trials": trial_records}
    return _render(args.format, record, [_SCAN_COLUMNS, *table], ("candidate",))


def _cmd_gen(args) -> str:
    try:
        chain = random_reversible(args.m, args.seed, args.sparsity)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    kernel = chain.kernel.matrix
    record = {
        **_matrix_object(kernel),
        "stationary": chain.stationary.tolist(),
        "defect": chain.defect,
    }
    return _render(args.format, record, kernel)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", type=float, default=1e-9, help="certification tolerance (default 1e-9)"
    )
    common.add_argument(
        "--format",
        choices=("csv", "structured"),
        default="csv",
        help="output format (default csv)",
    )
    common.add_argument(
        "--output", default=None, help="write output here instead of stdout"
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    parser = argparse.ArgumentParser(
        prog="tiltmat",
        description="Tilted stochastic matrices: constructions, reversibility, "
        "spectral bounds, and convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tilt", parents=[common], help="tilt a matrix by a positive vector")
    p.add_argument("--matrix", required=True, help="non-negative matrix file")
    p.add_argument("--vector", required=True, help="strictly positive vector file")
    p.set_defaults(handler=_cmd_tilt)

    p = sub.add_parser(
        "normalize-product",
        parents=[common],
        help="factor a product A_1 D(u_1) ... A_n D(u_n) as diagonal times stochastic",
    )
    p.add_argument(
        "--matrix", action="append", required=True, help="square factor (repeatable)"
    )
    p.add_argument(
        "--vector", action="append", required=True, help="positive vector (repeatable)"
    )
    p.set_defaults(handler=_cmd_normalize_product)

    p = sub.add_parser(
        "stationary", parents=[common], help="stationary distribution of a kernel"
    )
    p.add_argument("--matrix", required=True, help="square stochastic matrix file")
    p.set_defaults(handler=_cmd_stationary)

    p = sub.add_parser(
        "check-reversible",
        parents=[common],
        help="detailed-balance defect under the computed stationary distribution",
    )
    p.add_argument("--matrix", required=True, help="square stochastic matrix file")
    p.set_defaults(handler=_cmd_check_reversible)

    p = sub.add_parser(
        "spectral", parents=[common], help="eigenvalues as (real, imaginary) rows"
    )
    p.add_argument("--matrix", required=True, help="square matrix file")
    p.add_argument(
        "--method",
        choices=("auto", "jacobi", "qr"),
        default="auto",
        help="eigenvalue route: jacobi is the symmetric route (LAPACK syevd), "
        "qr the general route (LAPACK geev); auto picks jacobi when the matrix "
        "is symmetric within --tol, else qr (default auto)",
    )
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser(
        "bounds",
        parents=[common],
        help="evaluate the second-eigenvalue bounds for tilts of a reversible kernel",
    )
    p.add_argument("--matrix", required=True, help="reversible stochastic matrix file")
    p.add_argument(
        "--vector",
        action="append",
        required=True,
        help="tilt vector (repeatable; order defines the product)",
    )
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser(
        "tilt-detect",
        parents=[common],
        help="find u with MATRIX = tilt(BASE, u), if one exists",
    )
    p.add_argument("--matrix", required=True, help="candidate tilted matrix file")
    p.add_argument("--base", required=True, help="matrix being tilted")
    p.set_defaults(handler=_cmd_tilt_detect)

    p = sub.add_parser(
        "converge",
        parents=[common, seeded],
        help="per-step distance of a tilted product from its rank-1 limit",
    )
    p.add_argument("--matrix", required=True, help="reversible stochastic matrix file")
    p.add_argument("--steps", type=int, default=200, help="number of factors (default 200)")
    p.add_argument(
        "--schedule",
        choices=("ones", "decaying"),
        default="ones",
        help="tilt vectors: all-ones, or 1 + 0.5^i r with random r (default ones)",
    )
    p.add_argument(
        "--spread",
        type=float,
        default=0.5,
        help="amplitude of r for the decaying schedule (default 0.5)",
    )
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser(
        "conjecture-scan",
        parents=[common, seeded],
        help="scan n-fold tilted products; report defects and candidate residuals",
    )
    p.add_argument("--m-min", type=int, default=2, help="smallest state count (default 2)")
    p.add_argument("--m-max", type=int, default=5, help="largest state count (default 5)")
    p.add_argument("--n-min", type=int, default=1, help="fewest tilt factors (default 1)")
    p.add_argument("--n-max", type=int, default=4, help="most tilt factors (default 4)")
    p.add_argument(
        "--trials", type=int, default=3, help="trials per (m, n) cell (default 3)"
    )
    p.add_argument(
        "--spread",
        type=float,
        default=1.0,
        help="tilt components drawn from [1, 1 + spread] (default 1)",
    )
    p.set_defaults(handler=_cmd_conjecture_scan)

    p = sub.add_parser(
        "gen", parents=[common, seeded], help="generate a random reversible kernel"
    )
    p.add_argument("--m", type=int, required=True, help="number of states")
    p.add_argument(
        "--sparsity",
        type=float,
        default=0.0,
        help="fraction of off-diagonal weights zeroed, in [0, 1) (default 0)",
    )
    p.set_defaults(handler=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not 0.0 < args.tol < math.inf:
        sys.stderr.write("usage error: --tol must be positive and finite\n")
        return 2
    try:
        text = args.handler(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except TiltmatError as exc:
        sys.stderr.write(f"{exc.code}: {exc}\n")
        return 1
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
