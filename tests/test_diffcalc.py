"""Difference calculus: deltas, alternating collapse, reconstruction.

The column and row differences are ``np.diff`` with a zero prepended
along axis 0 and axis 1, the steps ``alternating_betti_from_hilbert``
repeats; ``delta_c`` and ``delta_r`` name them here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vreslab.cli import _csv
from vreslab.diffcalc import alternating_betti_from_hilbert, dh_p1p2
from vreslab.vres import NTooSmall

from oracles import (
    hilbert_from_betti,
    int_matrix_at,
    int_matrix_from_csv,
    matrix_diff_report,
    nr_decomposition,
    predicted_dh_generic,
)


def delta_c(mat):
    """Column-direction difference: (i,j) minus (i-1,j), zero-extended."""
    return np.diff(mat, axis=0, prepend=0)


def delta_r(mat):
    """Row-direction difference: (i,j) minus (i,j-1), zero-extended."""
    return np.diff(mat, axis=1, prepend=0)


def test_delta_of_constant_matrix():
    m = np.full((3, 4), 7, dtype=np.int64)
    dc = delta_c(m)
    assert dc[0].tolist() == [7, 7, 7, 7]
    assert not dc[1:].any()
    dr = delta_r(m)
    assert dr[:, 0].tolist() == [7, 7, 7]
    assert not dr[:, 1:].any()


def test_deltas_commute():
    rng = np.random.default_rng(3)
    m = rng.integers(-9, 9, size=(6, 5))
    a = delta_c(delta_r(m))
    b = delta_r(delta_c(m))
    assert np.array_equal(a, b)


def test_zero_extension_at_edges():
    m = np.array([[5, 1], [2, 0]], dtype=np.int64)
    assert int_matrix_at(m, -1, 0) == 0
    assert int_matrix_at(m, 0, -3) == 0
    assert int_matrix_at(delta_c(m), 0, 0) == 5  # 5 - 0


def test_one_point_collapse():
    # H of a single point is identically 1; hand expansion of the collapse:
    # row 0 gets the third differences of 1,1,1,... and row 1 their negative
    h = np.ones((4, 4), dtype=np.int64)
    b = alternating_betti_from_hilbert(h, 1, 2)
    expect = np.zeros((4, 4), dtype=np.int64)
    expect[0, :3] = [1, -2, 1]
    expect[1, :3] = [-1, 2, -1]
    assert np.array_equal(b, expect)
    assert np.array_equal(dh_p1p2(h), expect)


def test_collapse_of_free_ring_hilbert():
    # H of the full ring: products of binomials; collapse is 1 at the origin
    vals = [[(i + 1) * (j + 2) * (j + 1) // 2 for j in range(5)] for i in range(5)]
    b = alternating_betti_from_hilbert(np.array(vals, dtype=np.int64), 1, 2)
    expect = np.zeros((5, 5), dtype=np.int64)
    expect[0, 0] = 1
    assert np.array_equal(b, expect)


def test_reconstruction_roundtrip_random_sparse():
    rng = np.random.default_rng(17)
    for _ in range(25):
        b = np.zeros((11, 6), dtype=np.int64)
        for _ in range(8):
            b[rng.integers(0, 11), rng.integers(0, 6)] = int(rng.integers(-9, 10))
        for n, m in [(1, 1), (1, 2), (2, 1)]:
            h = hilbert_from_betti(b, n, m)
            back = alternating_betti_from_hilbert(h, n, m)
            assert np.array_equal(back, b)


def test_nr_decomposition_examples():
    d = nr_decomposition(31)
    assert (d.q, d.r, d.qp, d.rp) == (5, 1, 10, 1)
    d = nr_decomposition(12)
    assert (d.q, d.r, d.qp, d.rp) == (2, 0, 4, 0)
    assert 6 * d.q + d.r == 12 and 3 * d.qp + d.rp == 12


def test_predicted_dh_small_n_rejected():
    with pytest.raises(NTooSmall):
        predicted_dh_generic(11)


def test_predicted_dh_n13_entries():
    m = predicted_dh_generic(13)
    assert int_matrix_at(m, 0, 0) == 1
    assert int_matrix_at(m, 2, 2) == 1 - 6  # q=2, r=1
    assert int_matrix_at(m, 3, 2) == -1
    assert int_matrix_at(m, 4, 1) == 1 - 3  # q'=4, r'=1
    assert int_matrix_at(m, 4, 2) == 6
    assert int_matrix_at(m, 5, 1) == -1
    assert int_matrix_at(m, 5, 2) == 3
    assert [int_matrix_at(m, 13, j) for j in range(3)] == [-1, 3, -3]
    # sparse elsewhere
    assert int(np.abs(m).sum()) == 1 + 5 + 1 + 2 + 6 + 1 + 3 + 1 + 3 + 3


def test_csv_roundtrip():
    m = np.array([[1, -2, 3], [0, 5, -6]], dtype=np.int64)
    text = _csv(m)
    assert text.splitlines()[0] == "i\\j,0,1,2"
    assert np.array_equal(int_matrix_from_csv(text), m)


def test_matrix_diff_report():
    a = np.array([[1, 2], [3, 4]], dtype=np.int64)
    b = np.array([[1, 0], [3, 4]], dtype=np.int64)
    rep = matrix_diff_report(a, b)
    assert rep == [{"cell": [0, 1], "expected": 2, "actual": 0}]
    assert matrix_diff_report(a, a) == []


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_delta_then_sum_is_identity(rows, cols):
    rng = np.random.default_rng(rows * 31 + cols)
    m = rng.integers(-20, 20, size=(rows, cols))
    d = delta_c(m)
    assert np.array_equal(np.cumsum(d, axis=0), m)
