"""Point sets, evaluation, ideal pieces, Hilbert matrices, fibers."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vreslab import points as points_module
from vreslab.cox import count_monomials, t_binom
from vreslab.fp import rank, rref, subspace_contains
from vreslab.points import (
    GenericityExhausted,
    PointSet,
    decomposition_check,
    evaluation_matrix,
    function_space_bases,
    generic_hilbert_matrix,
    hilbert_matrix,
    hilbert_window,
    ideal_piece,
    is_generic_hilbert,
    min_cover_degree,
    pi1_fibers,
    random_points,
)

from conftest import fibered_633, fibered_sets, ff_rank
from oracles import (
    decomposition_check_in_full,
    dense_mult_map,
    int_matrix_at,
    intersected_piece,
    y0_nonzerodivisor,
)


class TestPointSetValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PointSet(1, 1, 7, np.array([[2, 1]]), np.array([[1, 0]]))

    def test_rejects_duplicates(self):
        xs = np.array([[1, 3], [1, 3]])
        ys = np.array([[1, 4], [1, 4]])
        with pytest.raises(ValueError):
            PointSet(1, 1, 7, xs, ys)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            PointSet(2, 1, 7, np.array([[1, 3]]), np.array([[1, 4]]))

    def test_coordinates_are_read_only(self):
        ps = random_points(1, 2, 4, seed=5)
        with pytest.raises(ValueError):
            ps.xs[0, 1] = 3
        with pytest.raises(ValueError):
            ps.ys[1, 2] = 3

    def test_equality_compares_points_only(self):
        a = random_points(1, 2, 3, seed=1)
        b = random_points(1, 2, 3, seed=1)
        function_space_bases(a, (3, 3))
        assert a == b
        assert a == PointSet(a.n, a.m, a.p, a.xs, a.ys)  # no seed
        b.rejections = 4
        assert a == b
        assert a != a.to_json()

    def test_reordered_set_differs(self):
        a = random_points(1, 2, 3, seed=1)
        assert a != PointSet(a.n, a.m, a.p, a.xs[::-1], a.ys[::-1])

    def test_other_prime_differs(self):
        xs = np.array([[1, 2], [1, 3]])
        ys = np.array([[1, 4], [1, 5]])
        assert PointSet(1, 1, 7, xs, ys) != PointSet(1, 1, 11, xs, ys)

    def test_json_roundtrip(self):
        ps = random_points(1, 2, 4, seed=5)
        back = PointSet.from_json(ps.to_json())
        assert np.array_equal(back.xs, ps.xs)
        assert np.array_equal(back.ys, ps.ys)
        assert back.seed == ps.seed
        payload = json.loads(ps.to_json())
        assert set(payload) == {"n", "m", "p", "seed", "points"}


class TestRandomPoints:
    def test_same_seed_same_points(self):
        a = random_points(1, 2, 5, seed=99)
        b = random_points(1, 2, 5, seed=99)
        assert a.to_json() == b.to_json()

    def test_distinctness_and_normalization(self):
        ps = random_points(2, 2, 12, seed=3)
        assert ps.N == 12
        assert np.all(ps.xs[:, 0] == 1) and np.all(ps.ys[:, 0] == 1)
        pairs = {(tuple(a), tuple(b)) for a, b in zip(ps.xs, ps.ys)}
        assert len(pairs) == 12

    def test_field_too_small(self):
        with pytest.raises(ValueError):
            random_points(1, 1, 5, seed=0, p=5)

    def test_single_point_always_generic(self):
        ps = random_points(1, 2, 1, seed=123)
        assert is_generic_hilbert(ps)

    def test_rejection_recorded_gf5(self):
        # seed 0 over GF(5) draws nine non-generic 4-point sets first
        ps = random_points(1, 2, 4, seed=0, p=5, require_generic=True)
        assert ps.rejections == 9
        assert is_generic_hilbert(ps)

    def test_rejection_cap_exhausts(self):
        # seed 1 over GF(11) draws no generic 10-point set in MAX_DRAWS tries
        with pytest.raises(GenericityExhausted):
            random_points(1, 2, 10, seed=1, p=11, require_generic=True)


class TestEvaluation:
    def test_frozen_single_point_row(self):
        ps = PointSet(1, 2, 7, np.array([[1, 2]]), np.array([[1, 3, 4]]))
        E = evaluation_matrix(ps, (1, 1))
        # graded-lex order: x0y0, x0y1, x0y2, x1y0, x1y1, x1y2
        assert E.tolist() == [[1, 3, 4, 2, 6, 1]]

    def test_degree_zero_is_ones_column(self):
        ps = random_points(1, 2, 6, seed=1)
        E = evaluation_matrix(ps, (0, 0))
        assert E.shape == (6, 1) and np.all(E == 1)

    def test_three_generic_points_rank(self):
        ps = random_points(1, 2, 3, seed=4)
        assert rank(evaluation_matrix(ps, (1, 1)), ps.p) == 3

    def test_ideal_piece_vanishes_on_points(self):
        ps = random_points(2, 1, 4, seed=8)
        for d in [(1, 1), (2, 0), (2, 2)]:
            E = evaluation_matrix(ps, d)
            K = ideal_piece(ps, d)
            assert K.shape[0] == count_monomials(2, 1, d) - rank(E, ps.p)
            if K.size:
                assert not np.any(E @ K.T % ps.p)

    def test_one_point_linear_form(self):
        ps = PointSet(1, 1, 11, np.array([[1, 4]]), np.array([[1, 9]]))
        K = ideal_piece(ps, (1, 0))
        assert K.shape == (1, 2)
        # the form vanishes at (1, 4)
        assert (K[0, 0] + 4 * K[0, 1]) % 11 == 0


class TestHilbertSweep:
    @pytest.mark.parametrize("n,m,N", [(1, 1, 3), (1, 2, 5), (2, 1, 4), (2, 2, 6)])
    def test_sweep_matches_direct_ranks(self, n, m, N):
        ps = random_points(n, m, N, seed=100 + n * 10 + m + N)
        H = hilbert_matrix(ps, (4, 4))
        for i in range(5):
            for j in range(5):
                assert int_matrix_at(H, i, j) == ff_rank(evaluation_matrix(ps, (i, j)), ps.p)

    def test_rref_pivot_structure(self):
        ps = random_points(1, 2, 5, seed=21)
        fs = function_space_bases(ps, (3, 3))
        for key, V in fs.bases.items():
            piv = fs.pivots[key]
            assert V.shape[0] == len(piv) == fs.dims[key]
            sub = V[:, piv]
            assert np.array_equal(sub, np.eye(len(piv), dtype=np.int64))

    def test_n2_corner_values(self):
        ps = random_points(1, 2, 2, seed=7)
        H = hilbert_matrix(ps, (1, 1))
        assert [int_matrix_at(H, i, j) for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))] \
            == [1, 2, 2, 2]

    def test_n31_saturation_values(self):
        ps = random_points(1, 2, 31, seed=20260814, require_generic=True)
        H = hilbert_matrix(ps, hilbert_window(31, 1, 2))
        assert int_matrix_at(H, 30, 0) == 31
        assert int_matrix_at(H, 0, 7) == 31
        assert int_matrix_at(H, 4, 2) == 30  # 5 * 6 < 31
        assert int_matrix_at(H, 5, 2) == 31

    def test_stabilized_rows_when_x_parts_distinct(self):
        ps = random_points(1, 2, 6, seed=13)
        assert pi1_fibers(ps).ell == 6
        H = hilbert_matrix(ps, hilbert_window(6, 1, 2))
        assert np.all(H[6:] == H[5])

    def test_generic_matrix_closed_form(self):
        G = generic_hilbert_matrix(6, 1, 2, (2, 3))
        assert G[0].tolist() == [1, 3, 6, 6]
        assert G[1].tolist() == [2, 6, 6, 6]
        G1 = generic_hilbert_matrix(1, 2, 2, (3, 3))
        assert np.all(G1 == 1)

    def test_min_cover_degree(self):
        assert min_cover_degree(31, 2) == 7
        assert min_cover_degree(1, 2) == 0
        assert min_cover_degree(4, 1) == 3
        assert hilbert_window(31, 1, 2) == (32, 10)
        # t_binom(r, 0) = 1 for every r, so no r covers two or more points
        with pytest.raises(ValueError):
            min_cover_degree(3, 0)

    def test_constructed_nongeneric(self):
        # three points with one x-part and collinear y-parts
        xs = np.array([[1, 2]] * 3)
        ys = np.array([[1, 0, 0], [1, 1, 0], [1, 2, 0]])
        ps = PointSet(1, 2, 32003, xs, ys)
        assert int_matrix_at(hilbert_matrix(ps, (1, 1)), 0, 1) == 2
        assert not is_generic_hilbert(ps)

    def test_ideal_pieces_closed_under_multiplication(self):
        ps = random_points(1, 2, 4, seed=31)
        for d in [(1, 1), (2, 1)]:
            K = ideal_piece(ps, d)
            for var in range(ps.n + ps.m + 2):
                tgt = (d[0] + 1, d[1]) if var <= ps.n else (d[0], d[1] + 1)
                moved = dense_mult_map(var, d, ps.n, ps.m) @ K.T % ps.p
                assert subspace_contains(ideal_piece(ps, tgt), moved.T, ps.p)


class TestSweepMemo:
    @pytest.mark.parametrize("seed, first, second", [
        (61, (5, 5), (2, 2)),   # covered by the memo: nothing to compute
        (62, (2, 2), (6, 3)),   # extends the memo past the first window
    ])
    def test_reused_memo_equals_fresh_sweep(self, seed, first, second):
        ps = random_points(1, 2, 9, seed=seed)
        function_space_bases(ps, first)
        got = function_space_bases(ps, second)
        want = function_space_bases(PointSet(ps.n, ps.m, ps.p, ps.xs, ps.ys), second)
        assert np.array_equal(got.dims, want.dims)
        assert got.bases.keys() == want.bases.keys() == got.pivots.keys()
        for d in want.bases:
            assert np.array_equal(got.bases[d], want.bases[d])
            assert np.array_equal(got.pivots[d], want.pivots[d])

    def test_covered_window_runs_no_elimination(self, monkeypatch):
        ps = random_points(2, 1, 7, seed=63)
        want = function_space_bases(ps, (5, 5))

        def no_rref(*args):
            raise AssertionError("rref called on a memoized window")

        monkeypatch.setattr(points_module, "rref", no_rref)
        got = function_space_bases(ps, (3, 4))
        assert np.array_equal(got.dims, want.dims[:4, :5])

    def test_saturated_cells_skip_elimination(self, monkeypatch):
        ps = random_points(1, 2, 5, seed=64)
        calls = []

        def counting_rref(a, p):
            calls.append(a.shape)
            return rref(a, p)

        monkeypatch.setattr(points_module, "rref", counting_rref)
        H = function_space_bases(ps, (6, 4)).dims
        unsaturated = sum(
            1 for i in range(7) for j in range(5)
            if not (i and H[i - 1, j] == ps.N) and not (j and H[i, j - 1] == ps.N))
        assert len(calls) == unsaturated < H.size


# random sets of every shape, from one point up, at the largest prime too
point_sets = st.builds(
    lambda shape, N, seed, p: random_points(*shape, N, seed=seed, p=p),
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
    st.integers(1, 8), st.integers(0, 2**32 - 1),
    st.sampled_from([101, 32003, 67108859]))


@settings(max_examples=30, deadline=None)
@given(point_sets)
@example(fibered_633())
@example(random_points(2, 2, 1, seed=65))
@example(random_points(1, 2, 7, seed=66, p=67108859))
def test_sweep_cells_equal_rref_of_evaluation(ps):
    """Every cell, saturated or not, is the RREF of the evaluated monomials."""
    fs = function_space_bases(ps, (4, 3))
    for d, V in fs.bases.items():
        R, piv = rref(evaluation_matrix(ps, d).T, ps.p)
        assert np.array_equal(V, R[: len(piv)])
        assert fs.pivots[d].tolist() == piv


def fibered_31() -> PointSet:
    """Four points over two x-parts, a fiber of size 3 and one of size 1."""
    xs = np.array([[1, 5]] * 3 + [[1, 9]])
    ys = np.array([[1, 0, 1], [1, 2, 3], [1, 4, 9], [1, 1, 7]])
    return PointSet(1, 2, 32003, xs, ys)


@settings(max_examples=100, deadline=None)
@given(fibered_sets(primes=(7, 101, 32003, 67108859)), st.integers(0, 3),
       st.integers(0, 4), st.integers(0, 3))
@example(fibered_633(), 0, 4, 3)
@example(fibered_633(), 1, 4, 3)
@example(fibered_31(), 0, 2, 2)  # a size-3 fiber; fails at t = 0
def test_decomposition_check_matches_full_oracle(ps, t, wi, wj):
    """The rank test in k^N answers as the comparison in all of S_(i,j)."""
    args = (ps, t, (wi, wj))
    assert decomposition_check(*args) == decomposition_check_in_full(*args)
    # the left-to-right containment holds at every t
    assert decomposition_check_in_full(*args, containment_only=True)


def fiber_sizes(fib):
    return tuple(len(idx) for _, idx in fib.fibers)


class TestFibers:
    def test_all_distinct(self):
        ps = random_points(1, 2, 5, seed=41)
        fib = pi1_fibers(ps)
        assert fib.ell == 5 and fiber_sizes(fib) == (1,) * 5

    def test_all_equal(self):
        xs = np.array([[1, 3]] * 4)
        ys = np.array([[1, 0, 1], [1, 2, 3], [1, 4, 9], [1, 1, 7]])
        fib = pi1_fibers(PointSet(1, 2, 32003, xs, ys))
        assert fib.ell == 1 and fiber_sizes(fib) == (4,)

    def test_mixed_partition(self):
        ps = fibered_633()
        fib = pi1_fibers(ps)
        assert fib.ell == 3
        assert fiber_sizes(fib) == (2, 2, 2)
        members = sorted(i for _, idx in fib.fibers for i in idx)
        assert members == list(range(6))

    def test_fibered_hilbert_column(self):
        H = hilbert_matrix(fibered_633(), (5, 3))
        assert H[:, 0].tolist() == [1, 2, 3, 3, 3, 3]
        assert not is_generic_hilbert(fibered_633())


class TestIntersectedPiece:
    def test_t_zero_equals_ideal(self):
        ps = random_points(1, 2, 3, seed=6)
        for d in [(0, 1), (1, 1), (2, 2)]:
            assert np.array_equal(intersected_piece(ps, 0, d), ideal_piece(ps, d))

    def test_below_threshold_zero(self):
        ps = random_points(1, 2, 3, seed=6)
        Z = intersected_piece(ps, 2, (1, 3))
        assert Z.shape == (0, count_monomials(1, 2, (1, 3)))

    def test_negative_t(self):
        ps = random_points(1, 2, 3, seed=6)
        with pytest.raises(ValueError):
            intersected_piece(ps, -1, (1, 1))


class TestDecomposition:
    def test_fibered_at_bound(self):
        assert decomposition_check(fibered_633(), 2, (6, 4))

    def test_fibered_above_bound(self):
        assert decomposition_check(fibered_633(), 3, (5, 3))

    def test_fails_below_bound(self):
        assert not decomposition_check(fibered_633(), 0, (4, 3))
        assert not decomposition_check(fibered_633(), 1, (4, 3))
        assert not decomposition_check(fibered_31(), 0, (2, 2))

    def test_containment_any_t(self):
        # computed in all of S_(i,j), also where the identity fails
        for t in (0, 1, 2):
            assert decomposition_check_in_full(fibered_633(), t, (4, 3),
                                               containment_only=True)

    def test_single_fiber_any_t(self):
        xs = np.array([[1, 3]] * 4)
        ys = np.array([[1, 0, 1], [1, 2, 3], [1, 4, 9], [1, 1, 7]])
        one = PointSet(1, 2, 32003, xs, ys)
        for t in (0, 1, 3):
            assert decomposition_check(one, t, (4, 3))

    def test_generic_set(self):
        g = random_points(1, 2, 3, seed=11)
        assert pi1_fibers(g).ell == 3
        assert decomposition_check(g, 2, (5, 3))

    @pytest.mark.parametrize("t, window", [
        (-1, (3, 3)),
        (3, (-1, 5)),
        (3, (4, -1)),
    ])
    def test_negative_input_rejected_before_work(self, monkeypatch, t, window):
        def no_work(*args):
            raise AssertionError("evaluation before the input check")

        monkeypatch.setattr(points_module, "evaluation_matrix", no_work)
        monkeypatch.setattr(points_module, "function_space_bases", no_work)
        with pytest.raises(ValueError):
            decomposition_check(random_points(1, 2, 4, seed=3), t, window)

    def test_y0_nonzerodivisor(self):
        assert y0_nonzerodivisor(fibered_633(), (3, 3))
        assert y0_nonzerodivisor(random_points(2, 1, 4, seed=17), (3, 3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1, 1), (1, 2), (2, 1)]),
       st.integers(1, 5))
def test_hilbert_monotone_and_bounded(seed, shape, N):
    n, m = shape
    ps = random_points(n, m, N, seed=seed, p=101)
    H = hilbert_matrix(ps, (3, 3))
    for i in range(4):
        for j in range(4):
            assert H[i, j] <= min(N, t_binom(i, n) * t_binom(j, m))
            if i:
                assert H[i, j] >= H[i - 1, j]
            if j:
                assert H[i, j] >= H[i, j - 1]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rank_nullity_per_piece(seed):
    ps = random_points(1, 2, 4, seed=seed, p=101)
    for d in [(1, 1), (2, 1), (0, 2)]:
        total = count_monomials(1, 2, d)
        E = evaluation_matrix(ps, d)
        assert ideal_piece(ps, d).shape[0] + rank(E, ps.p) == total
