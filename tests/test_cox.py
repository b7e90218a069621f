"""Monomial bases and multiplication maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vreslab.cox import (
    NegativeDegree,
    count_monomials,
    monomials,
    mult_map,
    t_binom,
)
from vreslab.fp import DEFAULT_PRIME, rank

from oracles import dense_mult_map, monomial_row, poly_mult_matrix

P = DEFAULT_PRIME


def test_t_binom_values():
    assert t_binom(0, 1) == 1
    assert t_binom(2, 2) == 6
    assert t_binom(3, 1) == 4
    assert t_binom(-1, 2) == 0
    assert t_binom(-5, 1) == 0
    # first values of the quadratic family: 1, 3, 6, 10, 15, 21, 28, 36
    assert [t_binom(a, 2) for a in range(8)] == [1, 3, 6, 10, 15, 21, 28, 36]


def test_monomials_p1p1_degree_1_1():
    basis = monomials(1, 1, (1, 1))
    # graded-lex with x-block major: x0y0, x0y1, x1y0, x1y1
    assert basis.tolist() == [
        [1, 0, 1, 0],
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, 0, 1],
    ]
    assert basis.dtype == np.int64
    assert not basis.flags.writeable
    assert monomials(1, 1, (1, 1)) is basis  # cached


def test_monomials_first_and_last():
    basis = monomials(2, 1, (2, 1))
    assert basis[0].tolist() == [2, 0, 0, 1, 0]
    assert basis[-1].tolist() == [0, 0, 2, 0, 1]
    assert len(basis) == count_monomials(2, 1, (2, 1)) == 6 * 2


def test_monomials_count_exhaustive():
    for n in range(4):
        for m in range(4):
            for i in range(0, 13, 3):
                for j in range(0, 13, 4):
                    assert len(monomials(n, m, (i, j))) == t_binom(i, n) * t_binom(j, m)


def test_monomials_negative_degree():
    with pytest.raises(NegativeDegree):
        monomials(1, 2, (-1, 0))


def test_mult_map_single_one_per_column():
    # the index map names one target row per source monomial; as a dense
    # matrix that is a single 1 in each column
    idx = mult_map(0, (1, 1), 1, 2)
    assert idx.shape == (len(monomials(1, 2, (1, 1))),)
    assert idx.min() >= 0 and idx.max() < len(monomials(1, 2, (2, 1)))
    assert not idx.flags.writeable
    mm = dense_mult_map(0, (1, 1), 1, 2)
    assert mm.shape == (len(monomials(1, 2, (2, 1))), len(monomials(1, 2, (1, 1))))
    assert np.all(mm.sum(axis=0) == 1)
    assert set(np.unique(mm)) <= {0, 1}
    assert np.array_equal(mm.argmax(axis=0), idx)


def test_mult_map_injective():
    idx = mult_map(2, (2, 1), 1, 2)  # y0 on the (2,1) piece
    assert len(np.unique(idx)) == len(idx)
    mm = dense_mult_map(2, (2, 1), 1, 2)
    assert rank(mm, P) == mm.shape[1]


def test_mult_maps_commute():
    # x0 then y1 equals y1 then x0 out of the (1,1) piece of P^1 x P^2
    a = mult_map(3, (2, 1), 1, 2)[mult_map(0, (1, 1), 1, 2)]
    b = mult_map(0, (1, 2), 1, 2)[mult_map(3, (1, 1), 1, 2)]
    assert np.array_equal(a, b)
    a = dense_mult_map(3, (2, 1), 1, 2) @ dense_mult_map(0, (1, 1), 1, 2)
    b = dense_mult_map(0, (1, 2), 1, 2) @ dense_mult_map(3, (1, 1), 1, 2)
    assert np.array_equal(a, b)


def test_x_mult_images_span_target():
    # images of all x-variables span the whole next piece when i >= 1
    hit = np.union1d(mult_map(0, (1, 2), 1, 2), mult_map(1, (1, 2), 1, 2))
    assert hit.tolist() == list(range(len(monomials(1, 2, (2, 2)))))
    stacked = np.hstack([dense_mult_map(v, (1, 2), 1, 2) for v in range(2)])
    assert rank(stacked, P) == len(monomials(1, 2, (2, 2)))


def test_poly_mult_matrix_against_variable():
    # multiplying by the form "x1" must agree with the variable map
    basis = monomials(1, 2, (1, 0))
    coeffs = np.zeros(len(basis), dtype=np.int64)
    coeffs[monomial_row((0, 1, 0, 0, 0), 1, 2)] = 1
    a = poly_mult_matrix(coeffs, (1, 0), (1, 1), 1, 2, P)
    b = dense_mult_map(1, (1, 1), 1, 2)
    assert np.array_equal(a, b)
    assert np.array_equal(a.argmax(axis=0), mult_map(1, (1, 1), 1, 2))


def test_poly_mult_matrix_binomial_square():
    # (x0 + x1)^2 on P^1: coefficients 1, 2, 1 in the (2,0) basis
    basis1 = monomials(1, 0, (1, 0))
    coeffs = np.ones(len(basis1), dtype=np.int64)
    mat = poly_mult_matrix(coeffs, (1, 0), (1, 0), 1, 0, P)
    one = np.ones((len(basis1), 1), dtype=np.int64)  # x0 + x1
    sq = mat @ one % P
    assert sq.flatten().tolist() == [1, 2, 1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 5), st.integers(0, 5))
def test_monomial_order_is_strictly_decreasing(n, m, i, j):
    exps = [tuple(e) for e in monomials(n, m, (i, j)).tolist()]
    assert len(set(exps)) == len(exps)
    for a, b in zip(exps, exps[1:]):
        assert a > b  # descending lex on the full exponent vector


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 4),
       st.data())
def test_mult_map_equals_dense_oracle(n, m, i, j, data):
    # the ranked index map and the looked-up dense matrix agree entry by entry
    var = data.draw(st.integers(0, n + m + 1))
    dense = dense_mult_map(var, (i, j), n, m)
    want = np.zeros(dense.shape, dtype=np.int64)
    want[mult_map(var, (i, j), n, m), np.arange(dense.shape[1])] = 1
    assert np.array_equal(want, dense)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3), st.integers(0, 4), st.integers(0, 4))
def test_y0_free_monomials_are_the_smaller_ring(n, m, i, j):
    # S's y0-free monomials, y0 dropped, are those of P^n x P^(m-1) in order
    full = monomials(n, m, (i, j))
    free = full[full[:, n + 1] == 0]
    assert np.array_equal(np.delete(free, n + 1, axis=1), monomials(n, m - 1, (i, j)))


def test_no_variables_in_a_block():
    # P^n x P^(m-1) at m = 0 has no y-variables: only y-degree 0 survives
    assert t_binom(0, -1) == 1 and t_binom(2, -1) == 0
    assert monomials(1, -1, (2, 0)).tolist() == [[2, 0], [1, 1], [0, 2]]
    assert monomials(1, -1, (2, 1)).shape == (0, 2)
    assert mult_map(1, (1, 0), 1, -1).tolist() == [1, 2]
