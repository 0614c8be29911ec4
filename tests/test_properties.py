"""Randomized property tests; skipped where ``hypothesis`` is not installed."""

import re

import numpy as np
import numpy.linalg as la
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pdfp import diff_op_2d  # noqa: E402
from pdfp.prox import _group_ids  # noqa: E402
from test_linops import (  # noqa: E402
    diff_adjoint_reference,
    diff_forward_reference,
    with_signed_zeros,
)
from test_prox import group_ids_reference  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(h=st.integers(2, 12), w=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_diff_op_adjoint_identity_and_reference_at_random_sizes(h, w, seed):
    rng = np.random.default_rng(seed)
    D = diff_op_2d(h, w)
    x = with_signed_zeros(rng, h * w)
    u = with_signed_zeros(rng, 2 * h * w)
    Dx, Dt_u = D.forward(x), D.adjoint(u)
    assert Dx.tobytes() == diff_forward_reference(h, w, x).tobytes()
    assert Dt_u.tobytes() == diff_adjoint_reference(h, w, u).tobytes()
    lhs, rhs = float(Dx @ u), float(x @ Dt_u)
    assert abs(lhs - rhs) <= 1e-12 * (la.norm(Dx) * la.norm(u) + la.norm(x) * la.norm(Dt_u))


# Groups of 0 to 3 indices drawn from -1..6 for a space of 6, so draws cover
# valid partitions, out-of-range indices, overlaps, repeats inside a group,
# empty groups and gaps; permutations split in two give valid partitions.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-1, 6), max_size=3), min_size=1, max_size=5)
       | st.permutations(range(6)).flatmap(
           lambda p: st.integers(0, 6).map(lambda k: [p[:k], p[k:]])))
def test_group_ids_matches_loop(groups):
    try:
        want = group_ids_reference(6, groups)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _group_ids(6, groups)
    else:
        np.testing.assert_array_equal(_group_ids(6, groups), want)
