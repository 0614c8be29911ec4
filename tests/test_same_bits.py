"""``tools/same_bits.py``'s verdict on crafted columns."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "same_bits", Path(__file__).resolve().parents[1] / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)

# (a, b, verdict): per-entry ulps, then ulps of the column's largest finite |a|
VERDICTS = {
    "equal": ([1.0, -0.0, math.inf], [1.0, -0.0, math.inf], "equal"),
    # 2^-60 -> 2^-59 is 2^52 ulps of that entry, and 2^-60 / spacing(1) = 2^-8 at the scale of 1
    "near-zero-entry": ([1.0, 2.0 ** -60], [1.0, 2.0 ** -59],
                        "differs by up to 4503599627370496 ulps, 0.00391 ulps of max|a| = 1"),
    # one ulp of 3 (2^-51), the shared infinity counting as no difference
    "one-ulp-at-the-scale": ([math.inf, 3.0, 0.0], [math.inf, 3.0 + 2.0 ** -51, 0.0],
                             "differs by up to 1 ulps, 1 ulps of max|a| = 3"),
    # 2^-40 on 1 is 2^12 ulps of that entry and 2^11 of the largest magnitude, 2
    "scale-from-another-entry": ([2.0, 1.0], [2.0, 1.0 + 2.0 ** -40],
                                 "differs by up to 4096 ulps, 2.05e+03 ulps of max|a| = 2"),
    "nan-in-one-tree": ([1.0, math.nan], [1.0, 2.0],
                        "differs: NaN at 1 places in one tree only"),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_verdict_gives_ulps_per_entry_and_at_the_column_scale(case):
    a, b, want = VERDICTS[case]
    assert same_bits.verdict(np.array(a), np.array(b)) == want


def test_verdict_on_integers_and_mismatched_columns():
    assert same_bits.verdict(np.array([3, 7]), np.array([3, 4])) == "differs by up to 3"
    assert same_bits.verdict(np.zeros(2), np.zeros(3)) == \
        "differs: float64[2] against float64[3]"
