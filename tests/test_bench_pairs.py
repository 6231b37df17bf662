"""``tools/bench_pairs.py``'s summary on synthetic pairs: no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}


def pairs_of(metric, parent, change):
    """Ten pairs with one metric's runs on each side."""
    return [
        {"parent": {"values": {metric["name"]: p}}, "change": {"values": {metric["name"]: c}}}
        for p, c in zip(parent, change)
    ]


def verdict(metric, parent, change):
    return bench_pairs.summarise(pairs_of(metric, parent, change), [metric])[metric["name"]]


TIGHT = [100.0 + k for k in range(10)]  # interquartile range 4.5 over a median of 104.5


@pytest.mark.parametrize(
    "metric,parent,change,expected",
    [
        # 2% slower, tight on both sides.
        (HIGHER, TIGHT, [v - 2.0 for v in TIGHT], "within_bound"),
        # A gain is within the bound too.
        (HIGHER, TIGHT, [v + 50.0 for v in TIGHT], "within_bound"),
        # The median falls by 30% of the parent's, past the 25% bound.
        (HIGHER, TIGHT, [v - 31.35 for v in TIGHT], "worse"),
        # Just inside the bound: a fall of 26 is 24.9% of 104.5.
        (HIGHER, TIGHT, [v - 26.0 for v in TIGHT], "within_bound"),
        # Lower is better: a 30% rise is worse, a 30% fall is not.
        (LOWER, TIGHT, [1.3 * v for v in TIGHT], "worse"),
        (LOWER, TIGHT, [0.7 * v for v in TIGHT], "within_bound"),
        # The parent spreads too widely to tell, and the sides overlap.
        (HIGHER, [60.0, 140.0] * 5, TIGHT, "unresolved"),
        # The change spreads too widely to tell.
        (LOWER, TIGHT, [60.0, 140.0] * 5, "unresolved"),
        # Both spread, but every run of the change beats every run of the parent.
        (HIGHER, [60.0, 140.0] * 5, [200.0, 400.0] * 5, "within_bound"),
        (LOWER, [200.0, 400.0] * 5, [60.0, 140.0] * 5, "within_bound"),
    ],
)
def test_regression_verdict(metric, parent, change, expected):
    assert verdict(metric, parent, change)["regression"] == expected


def test_regression_verdict_on_shares():
    ok_share = {"name": "ok_share", "better": "higher", "bound": 0.001}
    assert verdict(ok_share, [1.0] * 10, [1.0] * 10)["regression"] == "within_bound"
    assert verdict(ok_share, [1.0] * 10, [0.99] * 10)["regression"] == "worse"
    # A spread over a zero median is infinite.
    assert verdict(ok_share, [0.0] * 10, [0.0] * 6 + [1.0] * 4)["regression"] == "unresolved"
    assert verdict(ok_share, [0.0] * 10, [0.0] * 10)["regression"] == "within_bound"
    assert verdict(ok_share, [0.0] * 10, [0.0] * 10)["ratio_change_over_parent"] is None


def test_a_metric_without_a_bound_gets_no_verdict():
    host = {"name": "host.ref_ms", "better": "lower"}
    summary = verdict(host, TIGHT, TIGHT)
    assert "regression" not in summary
    assert summary["parent"]["median"] == 104.5


def test_gain_by_rule_is_kept():
    summary = verdict(HIGHER, TIGHT, [v + 10.0 for v in TIGHT])
    assert (summary["change_wins"], summary["parent_wins"]) == (10, 0)
    assert summary["gain_by_rule"]
    assert not verdict(HIGHER, TIGHT, [v + 4.0 for v in TIGHT])["gain_by_rule"]
