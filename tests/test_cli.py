import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tiltmat
from tiltmat import random_reversible, tilt
from tiltmat.cli import main
from tiltmat.io import format_matrix, format_vector, parse_matrix, parse_vector

TWO_STATE = "0.9,0.1\n0.2,0.8\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tilt_exact_bytes(tmp_path, capsys):
    mat = write(tmp_path / "a.csv", "1.0,1.0\n1.0,1.0\n")
    vec = write(tmp_path / "u.csv", "1.0\n2.0\n")
    code, out, err = run(capsys, ["tilt", "--matrix", mat, "--vector", vec])
    assert code == 0
    assert err == ""
    row = "0.3333333333333333,0.6666666666666666\n"
    assert out == row + row


def test_tilt_structured_output(tmp_path, capsys):
    mat = write(tmp_path / "a.csv", "1.0,1.0\n1.0,1.0\n")
    vec = write(tmp_path / "u.csv", "1.0\n2.0\n")
    code, out, _ = run(
        capsys, ["tilt", "--matrix", mat, "--vector", vec, "--format", "structured"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 2 and payload["cols"] == 2
    assert abs(payload["data"][0][1] - 2.0 / 3.0) < 1e-15


def test_output_flag_writes_file(tmp_path, capsys):
    mat = write(tmp_path / "a.csv", "1.0,1.0\n1.0,1.0\n")
    vec = write(tmp_path / "u.csv", "1.0\n2.0\n")
    dest = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, ["tilt", "--matrix", mat, "--vector", vec, "--output", str(dest)]
    )
    assert code == 0
    assert out == ""
    assert parse_matrix(dest.read_text()).shape == (2, 2)


def test_stationary_frozen(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", "0.5,0.5\n1.0,0.0\n")
    code, out, _ = run(capsys, ["stationary", "--matrix", mat])
    assert code == 0
    mu = parse_vector(out)
    assert np.allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_stationary_reducible_is_domain_error(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", "1.0,0.0\n0.0,1.0\n")
    code, out, err = run(capsys, ["stationary", "--matrix", mat])
    assert code == 1
    assert out == ""
    assert err.startswith("NotIrreducibleError:")


def test_check_reversible_cycle(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", "0.0,1.0,0.0\n0.0,0.0,1.0\n1.0,0.0,0.0\n")
    code, out, _ = run(capsys, ["check-reversible", "--matrix", mat])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "reversible,defect"
    flag, defect = lines[1].split(",")
    assert flag == "false"
    assert abs(float(defect) - 1.0 / 3.0) < 1e-12


def test_check_reversible_structured(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", "0.7,0.3\n0.3,0.7\n")
    code, out, _ = run(
        capsys, ["check-reversible", "--matrix", mat, "--format", "structured"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reversible"] is True
    assert payload["defect"] < 1e-15
    assert abs(sum(payload["stationary"]) - 1.0) < 1e-12


def test_spectral_csv(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    code, out, _ = run(capsys, ["spectral", "--matrix", mat])
    assert code == 0
    pairs = parse_matrix(out)
    assert pairs.shape == (2, 2)
    assert np.abs(pairs[:, 1]).max() < 1e-12
    assert sorted(np.round(pairs[:, 0], 10).tolist()) == [0.7, 1.0]


def test_spectral_structured_reports_method(tmp_path, capsys):
    sym = write(tmp_path / "s.csv", "0.5,0.5\n0.5,0.5\n")
    code, out, _ = run(
        capsys, ["spectral", "--matrix", sym, "--format", "structured"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "symmetric-jacobi"

    code, out, _ = run(
        capsys,
        ["spectral", "--matrix", sym, "--method", "qr", "--format", "structured"],
    )
    assert code == 0
    assert json.loads(out)["method"] == "general-qr"


def test_normalize_product_reconstructs(tmp_path, capsys):
    a1 = np.array([[1.0, 1.0], [1.0, 1.0]])
    a2 = np.array([[0.5, 0.25], [0.25, 0.5]])
    u1 = np.array([1.0, 2.0])
    u2 = np.array([3.0, 0.5])
    p1 = write(tmp_path / "a1.csv", format_matrix(a1, "csv"))
    p2 = write(tmp_path / "a2.csv", format_matrix(a2, "csv"))
    v1 = write(tmp_path / "u1.csv", format_vector(u1, "csv"))
    v2 = write(tmp_path / "u2.csv", format_vector(u2, "csv"))
    argv = [
        "normalize-product",
        "--matrix", p1, "--vector", v1,
        "--matrix", p2, "--vector", v2,
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    log_scale = float(lines[0].split(",")[1])
    scale = np.array([float(x) for x in lines[1].split(",")[1:]])
    kernel = parse_matrix(out)
    rebuilt = np.exp(log_scale) * scale[:, None] * kernel
    expected = a1 @ np.diag(u1) @ a2 @ np.diag(u2)
    assert np.abs(rebuilt - expected).max() < 1e-12 * np.abs(expected).max()

    code, out, _ = run(capsys, argv + ["--format", "structured"])
    assert code == 0
    payload = json.loads(out)
    rebuilt = (
        np.exp(payload["log_scale"])
        * np.array(payload["scale"])[:, None]
        * np.array(payload["kernel"]["data"])
    )
    assert np.abs(rebuilt - expected).max() < 1e-12 * np.abs(expected).max()


def test_normalize_product_count_mismatch(tmp_path, capsys):
    p1 = write(tmp_path / "a1.csv", "1.0,1.0\n1.0,1.0\n")
    v1 = write(tmp_path / "u1.csv", "1.0\n2.0\n")
    argv = [
        "normalize-product",
        "--matrix", p1, "--vector", v1, "--vector", v1,
    ]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("usage error:")


def test_bounds_all_satisfied(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    v1 = write(tmp_path / "u1.csv", "1.0\n2.0\n")
    v2 = write(tmp_path / "u2.csv", "2.0\n1.0\n")
    code, out, _ = run(
        capsys, ["bounds", "--matrix", mat, "--vector", v1, "--vector", v2]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound,observed_lambda2,bound_value,satisfied,slack"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["tilted", "pair", "chain", "main"]
    for line in lines[1:]:
        assert line.split(",")[3] == "true"


def test_bounds_within_solver_resolution_read_true(tmp_path, capsys):
    # The product's exact second eigenvalue is 8.75e-100, equal to the bound;
    # the general solver's 9e-100 is off by far less than its absolute error.
    mat = write(tmp_path / "p.csv", TWO_STATE)
    vec = write(tmp_path / "u.csv", "1.0\n1e100\n")
    code, out, _ = run(capsys, ["bounds", "--matrix", mat, "--vector", vec])
    assert code == 0
    assert out.splitlines()[2] == "chain,8.999999999999999e-100,8.75e-100,true,-2.499999999999995e-101"


def test_bounds_rank_one_chain_reads_true(tmp_path, capsys):
    # Every tilt and product of a rank-one kernel has second eigenvalue 0;
    # the solvers return rounding noise near 1e-16 on either side of the bounds.
    mat = write(tmp_path / "p.csv", "0.25,0.5,0.25\n" * 3)
    v1 = write(tmp_path / "u1.csv", "1\n2\n3\n")
    v2 = write(tmp_path / "u2.csv", "3\n1\n2\n")
    code, out, _ = run(capsys, ["bounds", "--matrix", mat, "--vector", v1, "--vector", v2])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["tilted", "pair", "chain", "main"]
    assert all(row[3] == "true" for row in rows)


def test_bounds_prints_pair_row_for_chain_within_tol(tmp_path, capsys):
    # A reversible kernel plus a 1e-6 circulation: the chain passes --tol 1e-6,
    # and so must the two-tilt product that the pair row is built from.
    m = 32
    P = random_reversible(m, seed=5).kernel.matrix
    cycle = np.roll(np.eye(m), 1, axis=1) - np.roll(np.eye(m), -1, axis=1)
    mat = write(tmp_path / "p.csv", format_matrix(P + 1e-6 * cycle))
    rng = np.random.default_rng(1)
    u, v = rng.uniform(0.5, 2.0, size=(2, m))
    v1 = write(tmp_path / "u1.csv", format_vector(u))
    v2 = write(tmp_path / "u2.csv", format_vector(v))
    code, out, err = run(
        capsys,
        ["bounds", "--matrix", mat, "--vector", v1, "--vector", v2, "--tol", "1e-6"],
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["tilted", "pair", "chain", "main"]
    assert all(row[3] == "true" for row in rows)


def test_bounds_single_vector_skips_pair(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    v1 = write(tmp_path / "u1.csv", "1.0\n2.0\n")
    code, out, _ = run(
        capsys,
        ["bounds", "--matrix", mat, "--vector", v1, "--format", "structured"],
    )
    assert code == 0
    names = [row["name"] for row in json.loads(out)["bounds"]]
    assert names == ["tilted", "chain", "main"]


def test_bounds_rejects_irreversible(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", "0.0,1.0,0.0\n0.0,0.0,1.0\n1.0,0.0,0.0\n")
    v1 = write(tmp_path / "u.csv", "1.0\n1.0\n1.0\n")
    code, _, err = run(capsys, ["bounds", "--matrix", mat, "--vector", v1])
    assert code == 1
    assert err.startswith("NotReversibleError:")


def test_tilt_detect_roundtrip(tmp_path, capsys):
    base = np.array([[0.9, 0.1], [0.2, 0.8]])
    tilted = tilt(base, [1.0, 2.0]).matrix
    base_path = write(tmp_path / "base.csv", format_matrix(base, "csv"))
    tilt_path = write(tmp_path / "tilted.csv", format_matrix(tilted, "csv"))
    code, out, _ = run(
        capsys, ["tilt-detect", "--matrix", tilt_path, "--base", base_path]
    )
    assert code == 0
    u = parse_vector(out)
    assert np.allclose(u, [0.5, 1.0], atol=1e-12)


def test_tilt_detect_absent(tmp_path, capsys):
    base_path = write(tmp_path / "base.csv", TWO_STATE)
    other_path = write(tmp_path / "other.csv", "0.5,0.5\n0.5,0.5\n")
    code, out, _ = run(
        capsys, ["tilt-detect", "--matrix", other_path, "--base", base_path]
    )
    assert code == 0
    assert out == "# absent,not-rank-1\n"

    code, out, _ = run(
        capsys,
        [
            "tilt-detect",
            "--matrix", other_path,
            "--base", base_path,
            "--format", "structured",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["reason"] == "not-rank-1"
    assert payload["factor"] is None


def test_converge_csv_layout(tmp_path, capsys):
    chain = random_reversible(3, seed=3)
    mat = write(tmp_path / "p.csv", format_matrix(chain.kernel.matrix, "csv"))
    code, out, _ = run(capsys, ["converge", "--matrix", mat, "--steps", "40"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# fitted_rate,")
    assert lines[1].startswith("# predicted_rate,")
    assert lines[2] == "step,error,bound"
    assert len(lines) == 3 + 40
    table = parse_matrix("\n".join(lines[3:]))
    assert table.shape == (40, 3)
    assert table[0, 0] == 1.0


def test_converge_structured_and_decaying(tmp_path, capsys):
    chain = random_reversible(3, seed=3)
    mat = write(tmp_path / "p.csv", format_matrix(chain.kernel.matrix, "csv"))
    argv = [
        "converge",
        "--matrix", mat,
        "--steps", "30",
        "--schedule", "decaying",
        "--seed", "9",
        "--format", "structured",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["n_steps"] == 30
    assert len(payload["errors"]) == 30
    assert abs(payload["fitted_rate"] - payload["predicted_rate"]) < 0.05

    code, again, _ = run(capsys, argv)
    assert code == 0
    assert again == out


def test_converge_steps_too_small(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    code, _, err = run(capsys, ["converge", "--matrix", mat, "--steps", "1"])
    assert code == 2
    assert err.startswith("usage error:")


def test_converge_negative_seed_is_usage_error(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    argv = ["converge", "--matrix", mat, "--steps", "5", "--seed", "-1"]
    code, out, err = run(capsys, argv + ["--schedule", "decaying"])
    assert (code, out, err) == (2, "", "usage error: seed must be >= 0, got -1\n")
    # The all-ones schedule draws nothing, so it ignores the seed.
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == run(capsys, argv[:-2])[1]


def test_decaying_converge_does_not_import_numpy_random(tmp_path):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    env = dict(os.environ)
    src = str(Path(tiltmat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from tiltmat.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stderr.write(f'{code} {\"numpy.random\" in sys.modules}')\n"
    )
    argv = ["converge", "--matrix", mat, "--steps", "20", "--schedule", "decaying", "--seed", "7"]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.stderr == "0 False"
    assert len(done.stdout.splitlines()) == 3 + 20


def test_conjecture_scan_deterministic(capsys):
    argv = [
        "conjecture-scan",
        "--m-min", "2", "--m-max", "3",
        "--n-min", "1", "--n-max", "2",
        "--trials", "2",
        "--seed", "4",
    ]
    code, first, _ = run(capsys, argv)
    assert code == 0
    lines = first.splitlines()
    assert lines[0].startswith("# candidate,")
    assert lines[1] == "m,n,seed,defect,candidate_residual"
    assert len(lines) == 2 + 2 * 2 * 2

    code, second, _ = run(capsys, argv)
    assert code == 0
    assert second == first


def test_conjecture_scan_bad_range(capsys):
    code, _, err = run(
        capsys, ["conjecture-scan", "--m-min", "3", "--m-max", "2"]
    )
    assert code == 2
    assert err.startswith("usage error:")
    code, out, err = run(capsys, ["conjecture-scan", "--n-min", "5", "--n-max", "3"])
    assert (code, out, err) == (2, "", "usage error: --n-min 5 exceeds --n-max 3\n")


def test_gen_structured_parseable(capsys):
    argv = ["gen", "--m", "4", "--seed", "7", "--format", "structured"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    kernel = parse_matrix(out)
    assert kernel.shape == (4, 4)
    assert np.abs(kernel.sum(axis=1) - 1.0).max() < 1e-12
    payload = json.loads(out)
    assert abs(sum(payload["stationary"]) - 1.0) < 1e-12
    assert payload["defect"] < 1e-14

    code, again, _ = run(capsys, argv)
    assert again == out


def test_gen_csv_seed_changes_output(capsys):
    code, first, _ = run(capsys, ["gen", "--m", "3", "--seed", "1"])
    assert code == 0
    code, second, _ = run(capsys, ["gen", "--m", "3", "--seed", "2"])
    assert code == 0
    assert first != second


def test_gen_bad_sparsity(capsys):
    code, _, err = run(capsys, ["gen", "--m", "3", "--sparsity", "1.0"])
    assert code == 2
    assert err.startswith("usage error:")


def test_ragged_csv_is_domain_error(tmp_path, capsys):
    mat = write(tmp_path / "bad.csv", "0.5,0.5\n1.0\n")
    code, _, err = run(capsys, ["stationary", "--matrix", mat])
    assert code == 1
    assert err.startswith("FormatError:")


def test_hostile_structured_files_are_domain_errors(tmp_path, capsys):
    # a bool passes isinstance(rows, int); 100,000 '[' overflow json's recursion
    mat = write(tmp_path / "bool.json", '{"rows": true, "cols": 1, "data": [[1]]}')
    code, _, err = run(capsys, ["stationary", "--matrix", mat])
    assert (code, err.split(":")[0]) == (1, "FormatError")
    vec = write(tmp_path / "deep.json", "[" * 100_000)
    ok = write(tmp_path / "ok.csv", TWO_STATE)
    code, _, err = run(capsys, ["tilt", "--matrix", ok, "--vector", vec])
    assert (code, err.split(":")[0]) == (1, "FormatError")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["stationary", "--matrix", "/no/such/file.csv"])
    assert code == 2
    assert err.startswith("usage error:")


def test_nonpositive_tol_rejected(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    code, _, err = run(capsys, ["stationary", "--matrix", mat, "--tol", "0"])
    assert code == 2
    assert "tol" in err
    # a non-finite tol used to certify [[1,2],[3,4]] as stochastic
    bad = write(tmp_path / "bad.csv", "1,2\n3,4\n")
    for tol in ("-1", "nan", "inf"):
        code, out, err = run(capsys, ["stationary", "--matrix", bad, "--tol", tol])
        assert (code, out) == (2, "")
        assert err == "usage error: --tol must be positive and finite\n"


def test_non_finite_or_negative_spread_is_usage_error(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    for spread in ("inf", "nan"):
        code, out, err = run(capsys, ["conjecture-scan", "--spread", spread])
        assert (code, out) == (2, "")
        assert err.startswith("usage error: u_spread must be finite and >= 0")
    for spread in ("inf", "nan", "-1"):
        argv = ["converge", "--matrix", mat, "--schedule", "decaying", "--spread", spread]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --spread must be finite and >= 0")


def test_extreme_tilt_spreads_stay_finite(tmp_path, capsys):
    code, out, err = run(capsys, ["conjecture-scan", "--spread", "1e308"])
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert rows and all(np.isfinite(float(row[4])) for row in rows)
    mat = write(tmp_path / "p.csv", TWO_STATE)
    vec = write(tmp_path / "u.csv", "1.0\n1e100\n")
    code, out, err = run(capsys, ["bounds", "--matrix", mat, "--vector", vec])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "main,8.999999999999999e-100,inf,true,inf"


def test_bounds_tilt_spread_past_the_float_range_exits_0(tmp_path, capsys):
    # Unscaled, the closed form (P u) o mu o u overflows at u = (1, 1e200).
    mat = write(tmp_path / "p.csv", TWO_STATE)
    wide = write(tmp_path / "u.csv", "1.0,1e200\n")
    mirrored = write(tmp_path / "v.csv", "1e200,1.0\n")
    for vectors in ([wide], [wide, mirrored]):
        argv = ["bounds", "--matrix", mat]
        for path in vectors:
            argv += ["--vector", path]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        # lambda_2 of tilt(P, (1, 1e200)) is 0.9e-199 - 0.25e-200 = 8.75e-200.
        assert lines[1] == "tilted,8.75e-200,inf,true,inf"
        assert [line.split(",")[3] for line in lines[1:]] == ["true"] * (len(vectors) + 2)


def test_bounds_tilt_spread_past_the_float_range_names_the_tilt(tmp_path, capsys):
    # mu_u[0] of tilt(P, (1e-300, 1e300)) is about 2.5e-601, below the float range.
    mat = write(tmp_path / "p.csv", TWO_STATE)
    vec = write(tmp_path / "u.csv", "1e-300,1e300\n")
    code, out, err = run(capsys, ["bounds", "--matrix", mat, "--vector", vec])
    expected = "stationary component 0 of the tilt by u is below the float range"
    assert (code, out, err) == (1, "", f"ZeroStationaryError: {expected}\n")


def test_tilt_that_would_change_the_zero_pattern_exits_1(tmp_path, capsys):
    # Entry (0, 0) of tilt(P, (1e-300, 1e300)) is about 9e-600: it would print as 0.0.
    mat = write(tmp_path / "p.csv", TWO_STATE)
    vec = write(tmp_path / "u.csv", "1e-300,1e300\n")
    code, out, err = run(capsys, ["tilt", "--matrix", mat, "--vector", vec])
    expected = "entry (0,0) of A is positive; its tilt by u rounds to 0"
    assert (code, out, err) == (1, "", f"PatternMismatchError: {expected}\n")


def test_normalize_product_that_would_change_the_zero_pattern_exits_1(tmp_path, capsys):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    vec = write(tmp_path / "u.csv", "1e-300,1e300\n")
    code, out, err = run(capsys, ["normalize-product", "--matrix", mat, "--vector", vec])
    expected = "entry (0,0) of A_1 is positive; its tilt by u_1 rounds to 0"
    assert (code, out, err) == (1, "", f"PatternMismatchError: {expected}\n")


def test_tilt_detect_recovers_a_tilt_below_the_relative_cut(tmp_path, capsys):
    # Every entry of the (1, 1e14) tilt is positive, the smallest 2.5e-15 of the largest.
    mat = write(tmp_path / "p.csv", TWO_STATE)
    vec = write(tmp_path / "u.csv", "1.0,1e14\n")
    code, out, _ = run(capsys, ["tilt", "--matrix", mat, "--vector", vec])
    assert code == 0
    tilted = write(tmp_path / "t.csv", out)
    code, out, err = run(capsys, ["tilt-detect", "--matrix", tilted, "--base", mat])
    assert (code, err) == (0, "")
    assert np.abs(parse_vector(out) / [1e-14, 1.0] - 1.0).max() <= 1e-12


def test_error_messages_print_plain_floats(tmp_path, capsys):
    cases = [
        ("1,2\n3,4\n", "RowSumError: row 1 sums to 7.0, off by more than tol=1e-09\n"),
        ("0.5,-0.5,1.0\n0.2,0.3,0.5\n0.1,0.1,0.8\n",
         "NegativeEntryError: entry (0,1) = -0.5 is below -tol\n"),
    ]
    for text, expected in cases:
        mat = write(tmp_path / "m.csv", text)
        code, out, err = run(capsys, ["stationary", "--matrix", mat])
        assert (code, out, err) == (1, "", expected)
    mat = write(tmp_path / "p.csv", TWO_STATE)
    vec = write(tmp_path / "u.csv", "1.0\n0.0\n")
    code, _, err = run(capsys, ["tilt", "--matrix", mat, "--vector", vec])
    expected = "ZeroComponentError: u must be strictly positive; component 1 is 0.0\n"
    assert (code, err) == (1, expected)


def test_argparse_failures_exit_2(capsys):
    assert main(["tilt", "--no-such-flag"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_points(tmp_path):
    mat = write(tmp_path / "p.csv", TWO_STATE)
    env = dict(os.environ)
    src = str(Path(tiltmat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("tiltmat", "tiltmat.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "spectral", "--matrix", mat],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        pairs = parse_matrix(done.stdout)
        assert sorted(np.round(pairs[:, 0], 10).tolist()) == [0.7, 1.0]
        bare = subprocess.run(
            [sys.executable, "-m", module], capture_output=True, text=True,
            env=env, timeout=60,
        )
        assert bare.returncode == 2
