"""Point sets, evaluation, ideal pieces, Hilbert matrices, fibers."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from vreslab.vres import pair_vres, predicted_pair_shape

from conftest import (
    collinear_y_part_sets,
    collinear_y_parts,
    fibered_633,
    fibered_sets,
    ff_rank,
    grid_sets,
    line_fibered_sets,
    shared_part_sets,
)
from oracles import (
    decomposition_check_in_full,
    dense_mult_map,
    flag_step_all_residues,
    int_matrix_at,
    intersected_piece,
    is_generic_on_window,
    x_fibers,
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

    @pytest.mark.parametrize("p", [9, 2**31 - 1, 4294967311])
    def test_rejects_a_prime_the_field_cannot_hold(self, p):
        # 9 is no prime; 2**31 - 1 and 4294967311 are primes past 2**26,
        # where int64 elimination is no longer exact
        with pytest.raises(ValueError, match=r"not prime|2\*\*26"):
            random_points(1, 2, 5, seed=1, p=p)
        with pytest.raises(ValueError, match=r"not prime|2\*\*26"):
            PointSet(1, 1, p, np.array([[1, 3]]), np.array([[1, 4]]))

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

    def test_negative_and_empty_factors_rejected(self):
        # with no coordinate to draw every draw repeats the first, so N > 1
        # points of P^0 x P^0 would never be found; run in a fresh
        # interpreter, so that a hang fails on the timeout
        src = str(Path(points_module.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("from vreslab.points import random_points\n"
                "try:\n    random_points(1, -1, 3, seed=1)\n"
                "except ValueError:\n    print('rejected')")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "rejected"
        for n, m in [(-1, 2), (2, -1), (0, 0)]:
            with pytest.raises(ValueError):
                random_points(n, m, 3, seed=1)
        assert random_points(0, 0, 1, seed=1).N == 1
        assert random_points(1, 0, 3, seed=1).N == random_points(0, 1, 3, seed=1).N == 3

    def test_single_point_always_generic(self):
        ps = random_points(1, 2, 1, seed=123)
        assert is_generic_hilbert(ps)

    def test_rejection_recorded_gf5(self):
        # seed 0 over GF(5) draws nine non-generic 4-point sets first
        ps = random_points(1, 2, 4, seed=0, p=5, require_generic=True)
        assert ps.rejections == 9
        assert is_generic_hilbert(ps)

    def test_repeated_part_rejected_before_any_sweep(self, monkeypatch):
        # a generic matrix reaches N on column 0 and row 0, which a set with
        # fewer than N distinct x-parts or y-parts cannot
        def no_sweep(*args):
            raise AssertionError("swept a set with a repeated part")

        monkeypatch.setattr(points_module, "_flag_step", no_sweep)
        assert not is_generic_hilbert(fibered_633())  # three x-parts
        xs = np.array([[1, 2], [1, 3], [1, 4]])
        ys = np.array([[1, 5, 6], [1, 7, 8], [1, 5, 6]])
        assert not is_generic_hilbert(PointSet(1, 2, 101, xs, ys))

    @pytest.mark.parametrize("n, m, N, p, seed, rejections, digest", [
        (1, 1, 4, 7, 0, 8, "80d630675a31d660bd9894d9f845b56e93e6f2feb4f366bbb669b29f5ec764be"),
        (1, 2, 8, 17, 0, 20, "94cab22941ffe9903c771bf93e1fb05d51490ab01f9ca4e40983137fea9be0fc"),
        (2, 1, 6, 13, 1, 3, "39f8d703943e69b734507ed75d30f0535f951b36d6a280c1c34e47ff34371870"),
    ])
    def test_redraws_are_pinned(self, n, m, N, p, seed, rejections, digest):
        # the repeated-part check rejects only draws the sweep rejects too,
        # so the draw sequence and the rejection count stay as they were
        ps = random_points(n, m, N, seed=seed, p=p, require_generic=True)
        assert ps.rejections == rejections
        assert hashlib.sha256(ps.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, m, N, p, seed, digest", [
        # five repeated draws of x1 over GF(7)
        (1, 0, 6, 7, 3, "c9f961363a49c21007293496e5cc420c4c53cfbb0ce44bf8cd489a969036186e"),
        # three repeated draws of y1 over GF(7)
        (0, 1, 6, 7, 5, "4a58864d89cd6c21175241d903724512e0d11bec7b3df2bcde2c02e2e05a24b0"),
    ])
    def test_repeated_draws_are_pinned(self, n, m, N, p, seed, digest):
        # a repeated draw is dropped and the stream moves on to the next
        ps = random_points(n, m, N, seed=seed, p=p)
        assert hashlib.sha256(ps.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("p, rejections, digest", [
        (101, 83, "1aee8686a0a159156b682212ef6d35e653618d431c91355fcef32f157e6cfdbf"),
        (32003, 0, "f6fb987952d74a89fcff38f9e053091d9a3b026e538a85c1703d12ede5af6344"),
    ])
    def test_draws_are_pinned(self, p, rejections, digest):
        # every set of five shapes, N = 1..12 and seeds 0..2, drawn with and
        # without the genericity check, and its rejection count
        h, total = hashlib.sha256(), 0
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
            for N, seed, generic in itertools.product(range(1, 13), range(3), (False, True)):
                ps = random_points(n, m, N, seed=seed, p=p, require_generic=generic)
                total += ps.rejections
                h.update(f"{ps.to_json()}|{ps.rejections}\n".encode())
        assert total == rejections
        assert h.hexdigest() == digest

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
        # over the whole window: cells past the box are read through the clamp
        ps = random_points(1, 2, 5, seed=21)
        fs, H = function_space_bases(ps, (3, 3)), hilbert_matrix(ps, (3, 3))
        for key in np.ndindex(H.shape):
            V, piv = fs.cell(key)
            assert V.shape[0] == len(piv) == H[key]
            sub = V[:, piv]
            assert np.array_equal(sub, np.eye(len(piv), dtype=np.int64))

    @pytest.mark.parametrize("window", [(-1, 3), (3, -1)])
    def test_negative_window_rejected(self, window):
        with pytest.raises(ValueError):
            hilbert_matrix(random_points(1, 2, 4, seed=1), window)

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

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("N", [1, 4, 31])
    @pytest.mark.parametrize("window", [(0, 0), (3, 0), (0, 5), (4, 6), (9, 2)])
    def test_generic_matrix_equals_cellwise_minimum(self, n, m, N, window):
        want = [[min(N, count_monomials(n, m, (i, j))) for j in range(window[1] + 1)]
                for i in range(window[0] + 1)]
        G = generic_hilbert_matrix(N, n, m, window)
        assert G.dtype == np.int64 and G.tolist() == want
        # memoized: the array is shared, so it is read-only
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0] = 0

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
        assert np.array_equal(got.dims, want.dims) and got.box == want.box
        for d in np.ndindex(second[0] + 1, second[1] + 1):
            for a, b in zip(got.cell(d), want.cell(d)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, m, N, seed", [
        (1, 1, 6, 70), (1, 2, 7, 71), (2, 1, 6, 72), (2, 2, 8, 73), (3, 1, 9, 74),
    ])
    def test_cells_read_after_the_genericity_check_equal_an_eager_sweep(self, n, m, N, seed):
        # the genericity check builds only the blocks it reads; the cells
        # read after it, the deepest first, equal those of a fresh sweep
        # whose every cell is read top down, each from the one before it
        ps = random_points(n, m, N, seed=seed, require_generic=True)
        rx, ry = points_module.regularity_box(ps)
        eager = function_space_bases(PointSet(n, m, ps.p, ps.xs, ps.ys), (rx, ry))
        want = {d: eager.cell(d) for d in np.ndindex(rx + 1, ry + 1)}
        lazy = function_space_bases(ps, (rx, ry))
        for d in sorted(want, reverse=True):
            for a, b in zip(lazy.cell(d), want[d], strict=True):
                assert np.array_equal(a, b)

    def test_repeated_window_reads_the_stored_block(self, monkeypatch):
        # a window cut at the box to a block read before returns that
        # block, read-only, with no call to the sweep
        ps = random_points(1, 2, 12, seed=65, require_generic=True)
        rx, ry = points_module.regularity_box(ps)
        first = function_space_bases(ps, (rx, ry)).dims

        def no_sweep(*args):
            raise AssertionError("sweep on a stored block")

        monkeypatch.setattr(points_module, "_sweep", no_sweep)
        for window in [(rx, ry), (rx + 5, ry + 5)]:
            again = function_space_bases(ps, window).dims
            assert np.array_equal(again, first) and not again.flags.writeable

    def test_covered_window_runs_no_elimination(self, monkeypatch):
        ps = random_points(2, 1, 7, seed=63)
        want = hilbert_matrix(ps, (5, 5))

        def no_step(*args):
            raise AssertionError("flag step on a memoized window")

        monkeypatch.setattr(points_module, "_flag_step", no_step)
        assert np.array_equal(hilbert_matrix(ps, (3, 4)), want[:4, :5])

    def test_saturated_cells_skip_elimination(self, monkeypatch):
        ps = random_points(1, 2, 5, seed=64)
        calls = count_extensions(monkeypatch)
        H = hilbert_matrix(ps, (6, 4))
        assert len(calls) == sweep_eliminations(H, ps) < H.size

    def test_stalled_column_runs_no_elimination(self, monkeypatch):
        # three fibers of two points: column 0 stops at 3 < N = 6 from row
        # 2 = r_x, so the cells below are read from the box's cell (2, 0)
        ps = fibered_633()
        function_space_bases(ps, (3, 0))

        def no_step(*args):
            raise AssertionError("flag step on a stalled column")

        monkeypatch.setattr(points_module, "_flag_step", no_step)
        fs = function_space_bases(ps, (7, 0))
        # the block ends at the box row r_x = 2, which every later row reads
        assert fs.dims[:, 0].tolist() == [1, 2, 3]
        assert hilbert_matrix(ps, (7, 0))[:, 0].tolist() == [1, 2, 3, 3, 3, 3, 3, 3]
        for d in np.ndindex(8, 1):
            V, pivots = fs.cell(d)
            R, piv = rref(evaluation_matrix(ps, d).T, ps.p)
            assert np.array_equal(V, R[: len(piv)])
            assert pivots.tolist() == piv

    @pytest.mark.parametrize("ps", [
        fibered_633(),
        random_points(2, 1, 9, seed=65),
        random_points(1, 2, 7, seed=66),
    ])
    def test_rereading_a_held_cell_runs_no_sweep(self, monkeypatch, ps):
        # once a column's flag reaches row i, or has stopped, its cell at
        # row i is read off the flag, with no call to the sweep
        fs = function_space_bases(ps, (0, 0))
        rx, ry = fs.box
        first = {d: fs.cell(d) for d in np.ndindex(rx + 1, ry + 1)}

        def no_sweep(*args):
            raise AssertionError("sweep on a held cell")

        monkeypatch.setattr(points_module, "_sweep", no_sweep)
        for d, cell in first.items():
            assert fs.cell(d) is cell

    def test_fibered_sweep_counts_one_elimination_per_growing_source(self, monkeypatch):
        ps = fibered_633()
        calls = count_extensions(monkeypatch)
        fs, H = function_space_bases(ps, (6, 4)), hilbert_matrix(ps, (6, 4))
        stalled = [(i, 0) for i in range(4, 7)]
        assert all(H[i - 1, j] == H[i - 2, j] < ps.N for i, j in stalled)
        # only the box's cells are swept: H(2, 0) = ell = 3 and H(0, 2) = N
        assert fs.box == (2, 2) and np.array_equal(fs.dims, H[:3, :3])
        assert len(calls) == sweep_eliminations(H[:3, :3], ps)


def count_extensions(monkeypatch) -> list:
    """Record the size of the block each flag step of the sweep grows from."""
    calls = []
    step = points_module._flag_step

    def counting_step(flag, p):
        calls.append(len(flag.blocks[-1][1]))
        return step(flag, p)

    monkeypatch.setattr(points_module, "_flag_step", counting_step)
    return calls


def sweep_eliminations(H: np.ndarray, ps: PointSet) -> int:
    """Flag steps of a fresh sweep, one per growing block: the unsaturated
    cells other than the origin whose predecessor in its flag (the cell
    above it, or on row 0 the cell to its left) added a nonempty block,
    that is, has more dimensions than the cell before it.  A flag along a
    P^1 factor (column 0 when n = 1, row 0 when m = 1) is built in closed
    form and takes no step."""
    N = ps.N

    def dim(i, j):
        return H[i, j] if i >= 0 and j >= 0 else 0

    count = 0
    for i, j in np.ndindex(H.shape):
        saturated = (i and H[i - 1, j] == N) or (j and H[i, j - 1] == N)
        closed = (ps.n == 1 and not j) or (ps.m == 1 and not i)
        if saturated or closed or not (i or j):
            continue
        fresh = dim(i - 1, j) - dim(i - 2, j) if i else dim(0, j - 1) - dim(0, j - 2)
        count += fresh > 0
    return count


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
    for d in np.ndindex(5, 4):
        V, pivots = fs.cell(d)
        R, piv = rref(evaluation_matrix(ps, d).T, ps.p)
        assert np.array_equal(V, R[: len(piv)])
        assert pivots.tolist() == piv


@settings(max_examples=40, deadline=None)
@given(st.one_of(point_sets, fibered_sets(), shared_part_sets()),
       st.tuples(*[st.one_of(st.integers(0, 9), st.just(10**11))] * 2))
@example(fibered_633(), (10**11, 0))
def test_dims_are_the_window_cut_at_the_box(ps, window):
    """``dims`` is the box-cut block, whatever the window's size, and its
    last cell is the window corner's clamped cell; ``hilbert_matrix`` alone
    widens it to the window."""
    (wi, wj), (rx, ry) = window, points_module.regularity_box(ps)
    fs = function_space_bases(ps, window)
    assert fs.dims.shape == (min(wi, rx) + 1, min(wj, ry) + 1)
    assert fs.dims[-1, -1] == rank(evaluation_matrix(ps, (min(wi, rx), min(wj, ry))), ps.p)
    if max(window) < 10**11:
        assert np.array_equal(hilbert_matrix(ps, window)[:rx + 1, :ry + 1], fs.dims)


@st.composite
def raw_draws(draw):
    """A draw with no genericity check, over every (n, m) with n, m in 1..3
    and with a P^0 factor; small primes make many draws with distinct
    parts whose Hilbert matrix is not generic."""
    n, m = draw(st.sampled_from([*itertools.product((1, 2, 3), repeat=2), (0, 2), (3, 0)]))
    p = draw(st.sampled_from([5, 7, 11, 101]))
    N = draw(st.integers(1, min(p - 1, 8)))
    return random_points(n, m, N, seed=draw(st.integers(0, 2**32 - 1)), p=p)


@st.composite
def graph_sets(draw):
    """Points (x, A x) on the graph of a linear map A: P^n --> P^m, n and m
    in 1..3: distinct parts as a rule, but on the (1,1)-forms
    y_k (Ax)_l - y_l (Ax)_k, so H(1, 1) falls short of the generic value
    once N is large enough, with the box at the generic corner."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = draw(st.sampled_from([7, 11, 101]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, p, size=(m + 1, n + 1))
    xs = np.unique(np.hstack([np.ones((12, 1), dtype=np.int64),
                              rng.integers(0, p, size=(12, n))]), axis=0)
    ys = xs @ A.T % p
    # only the points whose image has y0 != 0 can be normalized
    N, keep = draw(st.integers(2, 9)), ys[:, 0] != 0
    xs, ys = xs[keep][:N], ys[keep][:N]
    assume(len(xs))
    inverses = np.array([pow(int(c), -1, p) for c in ys[:, 0]])
    return PointSet(n, m, p, xs, ys * inverses[:, None] % p)


def diagonal_p1p1(N: int) -> PointSet:
    """N points (v, v) of P^1 x P^1 on the (1,1)-curve x0*y1 = x1*y0: distinct
    parts and the box at the generic corner, but H(1, 1) = 3 < min(N, 4)."""
    vs = np.array([(1, v) for v in range(N)])
    return PointSet(1, 1, 101, vs, vs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(raw_draws(), fibered_sets(primes=(5, 7, 11, 101)), grid_sets(),
                 shared_part_sets(), collinear_y_part_sets(), graph_sets()))
@example(diagonal_p1p1(4))
@example(diagonal_p1p1(1))
@example(collinear_y_parts(4))
@example(random_points(0, 2, 1, seed=1))
@example(random_points(3, 0, 1, seed=2))
@example(random_points(0, 0, 1, seed=3))
@example(random_points(0, 2, 4, seed=4))
@example(random_points(3, 0, 4, seed=2))
@example(random_points(1, 0, 5, seed=2, p=7))
# three collinear points of P^2 x P^0: distinct parts, H(1, 0) = 2 < 3
@example(PointSet(2, 0, 101, np.array([[1, 0, 0], [1, 1, 1], [1, 2, 2]]), np.ones((3, 1))))
def test_box_rule_matches_default_window_oracle(ps):
    """``is_generic_hilbert`` reads the box; the oracle compares the whole
    window (N + n, N + m) of a fresh copy of the set, so no memo is shared."""
    fresh = PointSet(ps.n, ps.m, ps.p, ps.xs, ps.ys)
    assert is_generic_hilbert(ps) == is_generic_on_window(fresh)


@st.composite
def flag_sets(draw):
    """Generic sets, sets whose x-parts repeat (fibers, as ``fibered_633``)
    and sets whose x-parts and y-parts both repeat, on six shapes, at a
    small prime and at the largest one, where x_k - x_k(q) spans (-p, p)."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]))
    p = draw(st.sampled_from([101, 67108859]))
    kind = draw(st.sampled_from(["generic", "fibered", "shared"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "generic":
        return random_points(n, m, draw(st.integers(1, 7)), seed=seed, p=p)
    rng = np.random.default_rng(seed)

    def parts(count, width):
        drawn: set[tuple] = set()
        while len(drawn) < count:
            drawn.add((1, *map(int, rng.integers(0, p, size=width))))
        return sorted(drawn)

    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 3)) if kind == "shared" else 7
    N = draw(st.integers(1, min(7, a * b)))
    xparts, yparts = parts(a, n), parts(b, m)
    if kind == "shared":
        # N distinct cells of the a x b grid of parts
        pairs = rng.choice(a * b, size=N, replace=False)
        xs, ys = [xparts[k % a] for k in pairs], [yparts[k // a] for k in pairs]
    else:
        # a fibers over the x-parts, every y-part distinct
        xs, ys = [xparts[k % a] for k in range(N)], yparts[:N]
    return PointSet(n, m, p, np.array(xs), np.array(ys))


@settings(max_examples=80, deadline=None)
@given(flag_sets())
@example(fibered_633())
def test_flag_cells_equal_rref_of_evaluation_past_the_box(ps):
    """The flag step against direct elimination: on a window two past the
    box, every cell is the RREF of the evaluated monomials and every
    dimension their rank."""
    rx, ry = points_module.regularity_box(ps)
    fs = function_space_bases(ps, (rx + 2, ry + 2))
    H = hilbert_matrix(ps, (rx + 2, ry + 2))
    for d in np.ndindex(H.shape):
        V, pivots = fs.cell(d)
        R, piv = rref(evaluation_matrix(ps, d).T, ps.p)
        assert H[d] == len(piv)
        assert np.array_equal(V, R[: len(piv)])
        assert pivots.tolist() == piv


class TestLineFlags:
    def test_p1_factors_take_no_flag_step(self, monkeypatch):
        # the flag along a P^1 factor is built in closed form: on P^1 x P^2
        # only row 0 steps, and on P^1 x P^1 nothing does
        stepped = []
        step = points_module._flag_step

        def recording_step(flag, p):
            stepped.append(flag)
            return step(flag, p)

        drawn = [random_points(n, m, 12, seed=69, require_generic=True) for n, m in [(1, 2), (1, 1)]]
        # fresh sets, with no sweep memoized by the genericity check
        ps12, ps11 = (PointSet(d.n, d.m, d.p, d.xs, d.ys) for d in drawn)
        monkeypatch.setattr(points_module, "_flag_step", recording_step)
        assert points_module.regularity_box(ps12) == (11, 4)
        assert stepped and all(flag is ps12._row for flag in stepped)
        stepped.clear()
        assert points_module.regularity_box(ps11) == (11, 11)
        assert stepped == []


@st.composite
def p1_sets(draw):
    """Sets with a P^1 factor: generic draws over four shapes at primes from
    5 to the largest, and sets whose parts repeat or lie on a line."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3)]))
    p = draw(st.sampled_from([5, 7, 11, 101, 67108859]))
    generic = st.builds(lambda N, seed: random_points(n, m, N, seed=seed, p=p),
                        st.integers(1, min(p - 1, 12)), st.integers(0, 2**32 - 1))
    return draw(st.one_of(generic, line_fibered_sets(), shared_part_sets()))


@settings(max_examples=100, deadline=None)
@given(p1_sets())
@example(fibered_633())
def test_line_flag_equals_stepped_flag(ps):
    """The closed-form flag along each P^1 factor against one grown by
    ``_flag_step`` from a fresh flag: same blocks, pivots, dimensions and
    box corner."""
    box = points_module.regularity_box(ps)
    for k, (values, flag) in enumerate([(ps.xs, ps._columns[0]), (ps.ys, ps._row)]):
        if values.shape[1] != 2:
            continue
        origin = (np.ones((1, ps.N), dtype=np.int64), np.zeros(1, dtype=np.int64))
        want = points_module._Flag(values, [origin], [1])
        while want.dims[-1] < len(np.unique(values[:, 1])):
            points_module._flag_step(want, ps.p)
        assert flag.dims == want.dims
        assert box[k] == len(want.dims) - 1
        for (rows, pivots), (want_rows, want_pivots) in zip(flag.blocks, want.blocks, strict=True):
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(pivots, want_pivots)


def stepped_prefixes(ps: PointSet):
    """Every flag of the set's sweep over its box, cut before each block a
    flag step built or would build: (values, blocks, dims) of the flag up
    to the newest block, from which the sweep steps.  A flag along a P^1
    factor, built in closed form, is stepped too."""
    rx, ry = points_module.regularity_box(ps)
    function_space_bases(ps, (rx, ry))
    for flag in [ps._row, *ps._columns]:
        for k in range(1, min(len(flag.blocks), len(flag.dims)) + 1):
            if flag.dims[k - 1] == ps.N or not len(flag.blocks[k - 1][1]):
                break  # saturated, or stalled on an empty block
            yield flag.values, flag.blocks[:k], flag.dims[:k]


@st.composite
def step_sets(draw):
    """Generic sets on P^1, P^2 and P^3 factors, fibered, grid, shared-part
    and collinear-y sets; columns grow from g = H(0, j) > 1 rows, row 0 and
    column 0 from g = 1."""
    p = draw(st.sampled_from([7, 101, 32003, 67108859]))
    generic = st.builds(
        lambda shape, N, seed: random_points(*shape, N, seed=seed, p=p),
        st.sampled_from([(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 2)]),
        st.integers(1, min(p - 1, 24)), st.integers(0, 2**32 - 1))
    return draw(st.one_of(generic, fibered_sets(primes=(p,)), grid_sets(), shared_part_sets(),
                          collinear_y_part_sets()))


@settings(max_examples=120, deadline=None)
@given(step_sets())
# a subset short of B, so every residue is eliminated: a P^1 column with
# g = 2, row 0 on P^2, and P^3 columns with g = 1 and g = 2
@example(random_points(1, 1, 3, seed=6, p=7))
@example(random_points(1, 2, 2, seed=4, p=7))
@example(random_points(3, 1, 3, seed=18, p=7))
# the cut at N - d at a last step: row 0 on P^2 and P^1 columns with g = 3
# and g = 6, and a P^2 column with g = 2
@example(random_points(1, 2, 8, seed=2, require_generic=True))
@example(random_points(2, 1, 3, seed=7, p=7))
def test_bounded_flag_step_matches_all_residues(ps):
    """The step from a subset of at most B residues against the step from
    every residue: the same block, pivots and dimensions."""
    for values, blocks, dims in stepped_prefixes(ps):
        got = points_module._Flag(values, list(blocks), list(dims))
        want = points_module._Flag(values, list(blocks), list(dims))
        points_module._flag_step(got, ps.p)
        flag_step_all_residues(want, ps.p)
        assert got.dims == want.dims
        assert np.array_equal(got.blocks[-1][0], want.blocks[-1][0])
        assert np.array_equal(got.blocks[-1][1], want.blocks[-1][1])


def test_generic_flag_steps_take_no_fallback(monkeypatch):
    """On a generic set of P^1 x P^2 every step eliminates one subset: a
    row-0 step from block j takes j + 2 residues, and N - d at its last
    step, and a column step the block's rows, cut to N - d."""
    drawn = random_points(1, 2, 40, seed=1, require_generic=True)
    ps = PointSet(drawn.n, drawn.m, drawn.p, drawn.xs, drawn.ys)
    steps, real_step, real_rref = [], points_module._flag_step, points_module.rref

    def recording_rref(a, p):
        steps[-1][-1].append(len(a))
        return real_rref(a, p)

    def recording_step(flag, p):
        steps.append((flag, len(flag.blocks) - 1, flag.dims[-1], len(flag.blocks[-1][1]), []))
        return real_step(flag, p)

    monkeypatch.setattr(points_module, "rref", recording_rref)
    monkeypatch.setattr(points_module, "_flag_step", recording_step)
    function_space_bases(ps, points_module.regularity_box(ps))
    assert steps and all(len(eliminated) == 1 for *_, eliminated in steps)
    for flag, j, d, r, eliminated in steps:
        want = min(j + 2, ps.N - d) if flag is ps._row else min(r, ps.N - d)
        assert eliminated == [want]
    assert any(flag is ps._row and eliminated[0] < j + 2 for flag, j, _, _, eliminated in steps)


def test_stalled_flag_step_fails_fast(monkeypatch):
    # a step that adds no block below ell would leave regularity_box's
    # loop running forever
    drawn = random_points(2, 1, 8, seed=1, require_generic=True)
    ps = PointSet(drawn.n, drawn.m, drawn.p, drawn.xs, drawn.ys)

    def empty_step(flag, p):
        flag.blocks.append((np.zeros((0, ps.N), dtype=np.int64), np.zeros(0, dtype=np.int64)))
        flag.dims.append(flag.dims[-1])

    monkeypatch.setattr(points_module, "_flag_step", empty_step)
    with pytest.raises(AssertionError, match=r"along the x factor stalled: dims \[1, 1\] below ell = 8"):
        points_module.regularity_box(ps)


def reduced_block(cell: tuple, vectors: np.ndarray, p: int) -> tuple:
    """The RREF of vectors reduced to vanish at an RREF cell's pivots: a
    block that a merge onto the cell takes."""
    basis, pivots = cell
    R, fresh = rref((vectors - vectors[:, pivots] @ basis) % p, p)
    return R[: len(fresh)], np.array(fresh)


@pytest.mark.parametrize("skip, in_order", [(0, True), (3, False)])
def test_merge_equals_rref_of_the_stacked_rows(skip, in_order):
    """A merge against ``rref`` of the cell and block rows stacked, with the
    fresh pivots all after the cell's, which the merge stacks without a
    sort, and interleaved with them."""
    p, rng = 101, np.random.default_rng(skip)
    spanning = rng.integers(0, p, size=(3, 9))
    spanning[:, :skip] = 0  # the cell's pivots start at column ``skip``
    R, piv = rref(spanning, p)
    cell = (R[: len(piv)], np.array(piv))
    block = reduced_block(cell, rng.integers(0, p, size=(3, 9)), p)
    assert (block[1][0] > cell[1][-1]) == in_order
    basis, pivots = points_module._merge(cell, block, p)
    want, want_pivots = rref(np.vstack([cell[0], block[0]]), p)
    assert np.array_equal(basis, want[: len(want_pivots)])
    assert pivots.tolist() == want_pivots


class TestBoxRule:
    def test_genericity_reads_no_hilbert_matrix(self, monkeypatch):
        # the rule compares the box-cut block, never a window-sized matrix
        def no_matrix(*args):
            raise AssertionError("read a Hilbert matrix")

        monkeypatch.setattr(points_module, "hilbert_matrix", no_matrix)
        monkeypatch.setattr(points_module, "hilbert_window", no_matrix)
        for n, m in itertools.product((1, 2, 3), repeat=2):
            ps = random_points(n, m, 9, seed=n + 3 * m, p=101, require_generic=True)
            assert is_generic_hilbert(ps)
        for ps in (fibered_633(), collinear_y_parts(6), diagonal_p1p1(5),
                   random_points(0, 1, 1, seed=1)):
            assert is_generic_hilbert(ps) == (ps.N == 1)

    def test_box_off_the_corner_grows_no_column_past_it(self):
        # twelve collinear y-parts put r_y at 11, past c_y = 4: the rule
        # grows columns 0..4 only, and row 0 already differs from G there
        ps = collinear_y_parts(12)
        assert not is_generic_hilbert(ps)
        assert points_module.regularity_box(ps) == (11, 11)
        assert len(ps._columns) == min_cover_degree(12, 2) + 1 == 5

    def test_part_counts_are_taken_when_the_set_is_made(self):
        assert fibered_633().parts == (3, 6)
        assert collinear_y_parts(5).parts == (5, 5)
        xs = np.array([[1, 2], [1, 3], [1, 2]])
        ys = np.array([[1, 5, 6], [1, 5, 6], [1, 7, 8]])
        assert PointSet(1, 2, 101, xs, ys).parts == (2, 2)
        assert random_points(0, 2, 5, seed=1).parts == (1, 5)


def built_cells(ps: PointSet) -> set[tuple[int, int]]:
    """The degrees (i, j) of the RREF cells the sweep has built, read off
    the flags: cell j of row 0 is (0, j), and cell i of column j is (i, j),
    its cell 0 being row 0's."""
    row = {(0, j) for j in range(len(ps._row.cells))}
    return row | {(i, j) for j, flag in enumerate(ps._columns) for i in range(len(flag.cells))}


class TestCellsOnDemand:
    def test_genericity_check_builds_no_cell_below_row_0(self):
        ps = random_points(1, 2, 20, seed=67)
        assert is_generic_hilbert(ps)
        assert built_cells(ps) and all(i == 0 for i, _ in built_cells(ps))

    def test_decomposition_check_from_r_x_builds_no_column_0_block(self, monkeypatch):
        # on P^1 x P^2 column 0 is a P^1 flag whose dimensions 1..N come
        # from the part count; at t = N - 1 = r_x the check reads no cell
        # below row 0, so none of its blocks is built
        def no_block(*args):
            raise AssertionError("built a block of column 0")

        monkeypatch.setattr(points_module, "_line_blocks", no_block)
        for N in (3, 4, 5, 6):
            ps = random_points(1, 2, N, seed=80 + N, require_generic=True)
            assert points_module.regularity_box(ps)[0] == N - 1
            assert decomposition_check(ps, N - 1, (N + 3, 5))
            assert all(i == 0 for i, _ in built_cells(ps))

    def test_genericity_check_builds_row_0_cells_only_for_stepping_columns(self):
        # on six generic points of P^1 x P^1, H(i, j) = min(6, (i+1)(j+1)):
        # columns 1 and 2 take flag steps, which start from their row-0
        # cells; columns 3 and 4 are saturated by their left neighbours at
        # row 1 and column 5 at row 0, so no merge builds their cells
        ps = random_points(1, 1, 6, seed=75, require_generic=True)
        assert points_module.regularity_box(ps) == (5, 5)
        assert built_cells(ps) == {(0, 0), (0, 1), (0, 2)}
        fs = function_space_bases(ps, (5, 5))
        for d in [(1, 3), (0, 4)]:
            V, pivots = fs.cell(d)
            R, piv = rref(evaluation_matrix(ps, d).T, ps.p)
            assert np.array_equal(V, R[: len(piv)]) and pivots.tolist() == piv

    def test_trim_builds_cells_only_in_the_columns_it_reads(self):
        # the trim at (39, 0) presents the window (40, 2): columns 0..2
        ps = random_points(1, 2, 40, seed=68)
        assert pair_vres(ps, (39, 0)) == predicted_pair_shape(40)
        assert {j for _, j in built_cells(ps)} == {0, 1, 2}
        # the genericity check adds the row-0 cells of the other columns
        assert is_generic_hilbert(ps)
        assert all(i == 0 for i, j in built_cells(ps) if j >= 3)


def fibered_31() -> PointSet:
    """Four points over two x-parts, a fiber of size 3 and one of size 1."""
    xs = np.array([[1, 5]] * 3 + [[1, 9]])
    ys = np.array([[1, 0, 1], [1, 2, 3], [1, 4, 9], [1, 1, 7]])
    return PointSet(1, 2, 32003, xs, ys)


@st.composite
def decomposition_cases(draw):
    """A fibered, grid or shared-part set, t up to r_x + 1 and a window up
    to two past the box."""
    ps = draw(st.one_of(fibered_sets(primes=(7, 101, 32003, 67108859)), grid_sets(),
                        shared_part_sets()))
    rx, ry = points_module.regularity_box(ps)
    return ps, draw(st.integers(0, rx + 1)), (draw(st.integers(0, rx + 2)),
                                              draw(st.integers(0, ry + 2)))


@settings(max_examples=200, deadline=None)
@given(decomposition_cases())
@example((fibered_633(), 0, (4, 3)))
@example((fibered_633(), 1, (4, 3)))
@example((fibered_31(), 0, (2, 2)))  # a size-3 fiber; fails at t = 0
def test_decomposition_check_matches_full_oracle(case):
    """The rank test in k^N answers as the comparison in all of S_(i,j)."""
    assert decomposition_check(*case) == decomposition_check_in_full(*case)
    # the left-to-right containment holds at every t
    assert decomposition_check_in_full(*case, containment_only=True)


def fiber_sizes(ps):
    return tuple(map(len, x_fibers(ps)))


class TestFibers:
    def test_all_distinct(self):
        ps = random_points(1, 2, 5, seed=41)
        assert pi1_fibers(ps).ell == 5 and fiber_sizes(ps) == (1,) * 5

    def test_all_equal(self):
        xs = np.array([[1, 3]] * 4)
        ys = np.array([[1, 0, 1], [1, 2, 3], [1, 4, 9], [1, 1, 7]])
        ps = PointSet(1, 2, 32003, xs, ys)
        assert pi1_fibers(ps).ell == 1 and fiber_sizes(ps) == (4,)

    def test_mixed_partition(self):
        ps = fibered_633()
        assert pi1_fibers(ps).ell == 3
        assert fiber_sizes(ps) == (2, 2, 2)
        members = sorted(i for idx in x_fibers(ps) for i in idx)
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

    @pytest.mark.parametrize("ps", [
        fibered_633(),
        random_points(1, 2, 6, seed=11),
        random_points(2, 1, 7, seed=12),
    ], ids=["fibered_633", "generic_12", "generic_21"])
    def test_no_cell_below_row_0_from_r_x(self, ps):
        # rows past r_x hold without a rank, so nothing is read below row 0
        rx = points_module.regularity_box(ps)[0]
        for t in (rx, rx + 1):
            assert decomposition_check(ps, t, (rx + 3, 5))
        assert all(i == 0 for i, _ in built_cells(ps))

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
