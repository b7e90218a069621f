"""Field core: RREF, rank, kernels, subspace calculus.

Expected values for the small examples were worked out by hand before the
implementation existed; randomized checks compare against the independent
fraction-free oracle in conftest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ff_rank, random_fp_matrix
from oracles import ContainmentViolated, quotient_dim, rank_by_columns, rref_by_columns
from vreslab.fp import (
    DEFAULT_PRIME,
    FieldPrime,
    _rounds,
    kernel_basis,
    matmul,
    normalize,
    rank,
    rref,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)

P = DEFAULT_PRIME
# the largest prime FieldPrime accepts (p < 2**26)
LARGEST_PRIME = 67108859


def test_field_prime_validation():
    assert FieldPrime().p == 32003
    assert FieldPrime(101).p == 101
    with pytest.raises(ValueError):
        FieldPrime(32004)
    with pytest.raises(ValueError):
        FieldPrime(2)


def test_rref_identity_fixed():
    eye = np.eye(3, dtype=np.int64)
    R, piv = rref(eye, P)
    assert np.array_equal(R, eye)
    assert piv == [0, 1, 2]


def test_rref_zero_matrix():
    z = np.zeros((2, 4), dtype=np.int64)
    R, piv = rref(z, P)
    assert np.array_equal(R, z)
    assert piv == []


def test_rref_dependent_rows_mod5():
    # hand reduction: row2 = 2*row1, so [[1,2],[2,4]] -> [[1,2],[0,0]]
    R, piv = rref([[1, 2], [2, 4]], 5)
    assert np.array_equal(R, [[1, 2], [0, 0]])
    assert piv == [0]


def test_rref_stops_once_the_rows_below_vanish():
    # hand reduction mod 7: the rows below the first pivot clear to zero at
    # column 0, and columns 1 and 2 still hold the pivot row's nonzeros
    R, piv = rref([[2, 4, 6], [1, 2, 3], [3, 6, 2]], 7)
    assert piv == [0]
    assert np.array_equal(R, [[1, 2, 3], [0, 0, 0], [0, 0, 0]])


def test_rref_pivots_scaled_and_cleared():
    # hand reduction mod 7: [[2,1,3],[4,2,1]] -> [[1,4,0],[0,0,1]]
    R, piv = rref([[2, 1, 3], [4, 2, 1]], 7)
    assert piv == [0, 2]
    assert np.array_equal(R, [[1, 4, 0], [0, 0, 1]])


def test_rref_round_falls_back_past_a_singular_minor():
    # rows 0 and 1 agree, so the leading 3 x 3 and 2 x 2 minors are
    # singular: column 0 is cleared alone, column 1 then holds no pivot
    # below row 0, and column 2 takes row 2 as its pivot row
    a = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    R, piv = rref(a, P)
    assert piv == [0, 2]
    assert np.array_equal(R, [[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert rank(a, P) == 2


def test_kernel_single_row():
    # kernel of [1 1] mod 5 is spanned by (4, 1), the canonical RREF vector
    k = kernel_basis([[1, 1]], 5)
    assert k.shape == (1, 2)
    assert np.array_equal(k, [[4, 1]])


def test_kernel_of_zero_matrix_is_identity():
    k = kernel_basis(np.zeros((2, 3), dtype=np.int64), P)
    assert np.array_equal(k, np.eye(3, dtype=np.int64))


def test_kernel_of_identity_is_empty():
    k = kernel_basis(np.eye(4, dtype=np.int64), P)
    assert k.shape == (0, 4)


def test_quotient_dim_examples():
    V = np.eye(3, dtype=np.int64)
    W = np.array([[1, 0, 0]], dtype=np.int64)
    assert quotient_dim(V, W, P) == 2
    assert quotient_dim(V, np.zeros((0, 3), dtype=np.int64), P) == 3
    with pytest.raises(ContainmentViolated):
        quotient_dim(W, V, P)


def test_subspace_intersection_planes():
    # two planes in GF(p)^3 meeting in the line spanned by (0,1,0)
    u = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    w = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    got = subspace_intersection(u, w, P)
    assert got.shape == (1, 3)
    assert subspace_equal(got, [[0, 1, 0]], P)


def test_subspace_contains_basic():
    u = np.array([[1, 2, 3]], dtype=np.int64)
    big = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert subspace_contains(big, u, P)
    assert not subspace_contains(u, big, P)


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_fraction_free_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    rows = int(rng.integers(1, 12))
    cols = int(rng.integers(1, 12))
    cap = int(rng.integers(0, min(rows, cols) + 1))
    a = random_fp_matrix(rng, rows, cols, P, rank_cap=cap)
    assert rank(a, P) == ff_rank(a, P)


@pytest.mark.parametrize("p", (P, LARGEST_PRIME))
def test_blocked_rank_agrees_with_pivot_rank(p):
    # sizes large enough that every pivot updates a wide trailing block
    rng = np.random.default_rng(7)
    for cap in (30, 97, 150, None):
        a = random_fp_matrix(rng, 150, 211, p, rank_cap=cap)
        expect = cap if cap is not None else 150
        assert rank(a, p) == ff_rank(a, p) == expect
    # and a structured low-rank wide case cross-checked with the oracle
    a = random_fp_matrix(rng, 130, 70, 101, rank_cap=41)
    assert rank(a, 101) == ff_rank(a, 101) == 41


@pytest.mark.parametrize("p", (P, LARGEST_PRIME))
def test_blocked_rank_with_zero_columns_and_repeats(p):
    rng = np.random.default_rng(11)
    a = random_fp_matrix(rng, 140, 90, p, rank_cap=50)
    a[:, ::3] = 0
    a[70:] = a[:70]
    assert rank(a, p) == ff_rank(a, p)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (9, 3), (3, 9), (12, 1)])
def test_kernels_take_edge_shapes_and_leave_the_input_alone(shape):
    # the sweep hands out read-only bases, and a kernel may not write into
    # any caller's array, transposed, unreduced or read-only
    rng = np.random.default_rng(5)
    a = rng.integers(-2 * P, 2 * P, size=shape)
    a[rng.random(shape) < 0.5] = 0
    readonly = a.copy()
    readonly.flags.writeable = False
    for arr in (a, readonly, np.asfortranarray(a)):
        before = arr.copy()
        R, piv = rref(arr, P)
        r = rank(arr, P)
        assert np.array_equal(arr, before)
        R0, piv0 = rref_by_columns(before, P)
        assert R.shape == shape and np.array_equal(R, R0) and piv == piv0
        assert r == len(piv) == rank_by_columns(before, P) == ff_rank(before, P)


def test_matmul_exact_past_int64_headroom():
    # 2049 products of (p-1)**2 overflow one int64 dot product at this prime
    a = np.full((2, 2049), LARGEST_PRIME - 1, dtype=np.int64)
    b = np.full((2049, 3), LARGEST_PRIME - 1, dtype=np.int64)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % LARGEST_PRIME
             for col in b.T] for row in a]
    assert matmul(a, b, LARGEST_PRIME).tolist() == want == [[2049] * 3] * 2


small = st.integers(min_value=0, max_value=6)


@st.composite
def fp_matrices(draw, p):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    data = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64)


# every property runs at a small prime and at the largest one accepted
primes = st.sampled_from([257, LARGEST_PRIME])


@settings(max_examples=120, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), fp_matrices(p))))
def test_rank_nullity_property(case):
    p, a = case
    r = rank(a, p)
    k = kernel_basis(a, p)
    assert r + k.shape[0] == a.shape[1]
    if k.shape[0]:
        assert not np.any(a @ k.T % p)
        assert rank(k, p) == k.shape[0]


@settings(max_examples=120, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), fp_matrices(p))))
def test_rref_idempotent_and_rank_transpose(case):
    p, a = case
    R, piv = rref(a, p)
    R2, piv2 = rref(R, p)
    assert np.array_equal(R, R2)
    assert piv == piv2
    assert rank(a, p) == rank(a.T, p) == len(piv)


@st.composite
def strand_like_matrices(draw, p):
    """Mostly zero, with zero rows and columns and rows repeated up to a
    scalar, tall or wide up to 12 x 12, like the Koszul strands.

    Uniform dense draws almost never need a row swap or clear several rows
    at one pivot; these do both often.
    """
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    a = np.where(rng.random((rows, cols)) < density,
                 rng.integers(1, p, size=(rows, cols)), 0)
    a[draw(st.lists(st.integers(0, rows - 1), max_size=3))] = 0
    a[:, draw(st.lists(st.integers(0, cols - 1), max_size=3))] = 0
    pairs = st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1), st.integers(1, p - 1))
    for src, dst, scale in draw(st.lists(pairs, max_size=4)):
        a[dst] = a[src] * scale % p
    return a


@st.composite
def residue_like_matrices(draw, p):
    """Wide blocks like the sweep's flag residues: 1 to 36 rows, up to 60
    columns, the leading columns zero (the residues vanish at the flag's
    older pivots, which come first) and rows that are combinations of
    others, so that most rows clear to zero.

    A whole-block update touches every row at each pivot; these inputs
    have many rows already zero in the pivot column, and many pivots.
    """
    rows, cols = draw(st.integers(1, 36)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank_cap = draw(st.integers(0, min(rows, cols)))
    a = random_fp_matrix(rng, rows, cols, p, rank_cap=rank_cap)
    a[:, : draw(st.integers(0, cols - 1))] = 0
    return a


@st.composite
def rank_deficient_tall_matrices(draw, p):
    """2k rows of rank at most k + 1, like the flag residues of a P^2
    factor, some leading columns zero: the rows from the pivot row down
    vanish before the last column that holds a nonzero, so ``rref`` and
    ``rank`` meet pivotless columns after the rows vanish."""
    k, cols = draw(st.integers(1, 20)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_fp_matrix(rng, 2 * k, cols, p, rank_cap=draw(st.integers(0, k + 1)))
    a[:, : draw(st.integers(0, cols - 1))] = 0
    return a


@st.composite
def round_matrices(draw, p):
    """Up to 9 x 12, aimed at the rounds of ``rref`` and ``rank``, which
    clear up to three pivots at once through the minor on the next rows.

    Some rows are combinations of the one or two rows above them, so a
    leading minor is singular while its columns may stay independent
    through the rows below; some columns are combinations of earlier ones,
    so they hold a nonzero in the input but a round before them clears
    them on every row left; zero columns split the candidates of a round;
    shapes leave fewer than three rows or columns for the last round; and
    many entries are p - 1, the largest residue.
    """
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.5, 0.8, 1.0]))
    a = np.where(rng.random((rows, cols)) < density,
                 rng.integers(1, p, size=(rows, cols)), 0)
    a[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = p - 1
    for d in draw(st.lists(st.integers(1, rows - 1), max_size=3) if rows > 1 else st.just([])):
        s, t = rng.integers(0, p, size=2)
        a[d] = (s * a[d - 1] + t * a[max(d - 2, 0)]) % p
    for d in draw(st.lists(st.integers(1, cols - 1), max_size=3) if cols > 1 else st.just([])):
        src = rng.integers(0, d, size=2)
        s, t = rng.integers(0, p, size=2)
        a[:, d] = (s * a[:, src[0]] + t * a[:, src[1]]) % p
    a[:, draw(st.lists(st.integers(0, cols - 1), max_size=2))] = 0
    return a


# a zero lead at row 0 over rows 0 and 1, which are zero in columns 1 and 2
ZERO_LEAD = [[0, 0, 0, -1, -1], [0, 0, 0, -1, 1], [-1, 0, 0, -1, -1],
             [0, -1, 0, 1, -1], [0, 0, -1, -1, 1]]
# round cases in signed entries, so that -1 is p - 1 at every prime: 1, 2
# and 3 rows with an invertible leading minor (one round takes every row);
# 3 rows whose columns 0 and 2 agree, so the round falls back to two
# pivots and still updates row 2; 5 rows whose lower rows all hold a
# nonzero in the first round's columns, and then one that does not; and
# the zero lead
ROUND_CASES = [
    [[-1, 0, -1, -1]],
    [[-1, -1, -1], [-1, 1, -1]],
    [[-1, -1, -1, -1], [-1, 1, -1, 0], [-1, -1, 1, -1]],
    [[-1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, -1, 1]],
    [[-1, -1, -1, -1, -1, -1], [-1, 1, -1, -1, 1, 0], [-1, -1, 1, -1, 0, -1],
     [-1, -1, -1, 1, -1, -1], [-1, 0, -1, -1, 1, -1]],
    [[-1, -1, -1, -1, -1, -1], [-1, 1, -1, -1, 1, 0], [-1, -1, 1, -1, 0, -1],
     [0, 0, 0, -1, -1, 1], [-1, -1, -1, -1, 1, -1]],
    ZERO_LEAD,
]


def round_examples(test):
    for p in (7, P, LARGEST_PRIME):
        for a in ROUND_CASES:
            test = example((p, np.array(a, dtype=np.int64) % p))(test)
    return test


@settings(max_examples=400, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(
    st.just(p), st.one_of(strand_like_matrices(p), residue_like_matrices(p),
                          rank_deficient_tall_matrices(p), round_matrices(p)))))
@round_examples
def test_kernels_match_column_loop_oracle(case):
    p, a = case
    R, piv = rref(a, p)
    R0, piv0 = rref_by_columns(a, p)
    assert np.array_equal(R, R0)
    assert piv == piv0
    assert (rank(a, p) == rank(a.T, p) == ff_rank(a, p) == rank_by_columns(a, p)
            == len(piv))


def test_zero_lead_round_takes_the_rows_that_hold_its_columns():
    # the rows under the swapped-in row 2 are zero in columns 1 and 2, so a
    # round on them would clear column 0 alone; rows 3 and 4 hold those
    # columns, and the first round takes all three.  The lower left of the
    # input is zero, so the rounds need no update between them.
    rounds = [piv for *_, piv, _ in _rounds(normalize(ZERO_LEAD, P), P)]
    assert rounds == [[0, 1, 2], [3, 4]]


@settings(max_examples=60, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(st.just(p), fp_matrices(p), fp_matrices(p))))
def test_intersection_is_contained_in_both(case):
    p, u, w = case
    if u.shape[1] != w.shape[1]:
        cols = min(u.shape[1], w.shape[1])
        u, w = u[:, :cols], w[:, :cols]
    got = subspace_intersection(u, w, p)
    assert subspace_contains(u, got, p)
    assert subspace_contains(w, got, p)
