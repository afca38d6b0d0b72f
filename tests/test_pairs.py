"""The paired-run verdict of tools/pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]  # IQR 1.0


@pytest.mark.parametrize("change,better,expected", [
    # 9 of 10 pairs won and the median moved 3 > IQR: a gain, either direction
    ([103, 104, 102, 103, 105, 101, 103, 104, 102, 99], "higher", (9, "gain")),
    ([97, 98, 96, 97, 99, 95, 97, 98, 96, 101], "lower", (9, "gain")),
    # 8 of 10 won: not a gain, and well inside a 25% bound
    ([103, 104, 102, 103, 105, 101, 103, 104, 99, 99], "higher", (8, "within bound")),
    # every pair won, but by less than the parent's IQR
    ([100.5, 101.5, 99.5, 100.5, 102.5, 98.5, 100.5, 101.5, 99.5, 100.5], "higher",
     (10, "within bound")),
    # 30% worse than the parent's median
    ([70.0] * 10, "higher", (0, "worse")),
    ([130.0] * 10, "lower", (0, "worse")),
    # ties count for neither side
    (PARENT, "higher", (0, "within bound")),
])
def test_verdict(change, better, expected):
    assert pairs.verdict(PARENT, [float(c) for c in change], better, 0.25) == expected


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [60.0, 100.0, 140.0, 80.0, 120.0]  # IQR 40, 40% of the median
    assert pairs.verdict(parent, [95.0, 100.0, 130.0, 85.0, 110.0], "higher", 0.25) \
        == (2, "unresolved")
    # unless every run of the change reads better than every run of the parent
    assert pairs.verdict([0.5, 1.0, 100.0, 100.0, 101.0], [102.0] * 5, "higher", 0.25) \
        == (5, "within bound")
    assert pairs.verdict(parent, [141.0, 150.0, 142.0, 145.0, 143.0], "lower", 0.25)[1] == "worse"
    assert pairs.verdict(parent, [50.0, 55.0, 52.0, 58.0, 59.0], "lower", 0.25) == (5, "gain")
