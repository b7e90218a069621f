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

from oracles import poly_mult_matrix

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
    assert basis.exponents == (
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
    )


def test_monomials_first_and_last():
    basis = monomials(2, 1, (2, 1))
    assert basis.exponents[0] == (2, 0, 0, 1, 0)
    assert basis.exponents[-1] == (0, 0, 2, 0, 1)
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
    mm = mult_map(0, (1, 1), 1, 2)
    assert mm.shape == (len(monomials(1, 2, (2, 1))), len(monomials(1, 2, (1, 1))))
    assert np.all(mm.sum(axis=0) == 1)
    assert set(np.unique(mm)) <= {0, 1}


def test_mult_map_injective():
    mm = mult_map(2, (2, 1), 1, 2)  # y0 on the (2,1) piece
    assert rank(mm, P) == mm.shape[1]


def test_mult_maps_commute():
    # x0 then y1 equals y1 then x0 out of the (1,1) piece of P^1 x P^2
    a = mult_map(3, (2, 1), 1, 2) @ mult_map(0, (1, 1), 1, 2)
    b = mult_map(0, (1, 2), 1, 2) @ mult_map(3, (1, 1), 1, 2)
    assert np.array_equal(a, b)


def test_x_mult_images_span_target():
    # images of all x-variables span the whole next piece when i >= 1
    cols = []
    for v in range(2):
        cols.append(mult_map(v, (1, 2), 1, 2))
    stacked = np.hstack(cols)
    assert rank(stacked, P) == len(monomials(1, 2, (2, 2)))


def test_poly_mult_matrix_against_variable():
    # multiplying by the form "x1" must agree with the variable map
    basis = monomials(1, 2, (1, 0))
    coeffs = np.zeros(len(basis), dtype=np.int64)
    coeffs[basis.index((0, 1, 0, 0, 0))] = 1
    a = poly_mult_matrix(coeffs, (1, 0), (1, 1), 1, 2, P)
    b = mult_map(1, (1, 1), 1, 2)
    assert np.array_equal(a, b)


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
    basis = monomials(n, m, (i, j))
    exps = basis.exponents
    assert len(set(exps)) == len(exps)
    for a, b in zip(exps, exps[1:]):
        assert a > b  # descending lex on the full exponent vector
