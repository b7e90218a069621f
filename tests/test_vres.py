"""Virtual resolution constructions: trims, intersections, predictions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vreslab import vres
from vreslab.betti import (
    WindowTooSmall,
    betti_box,
    betti_numbers,
    betti_window,
    point_presentation,
)
from vreslab.fp import rank
from vreslab.points import (
    PointSet,
    decomposition_check,
    evaluation_matrix,
    hilbert_matrix,
    pi1_fibers,
    random_points,
    regularity_box,
)
from vreslab.vres import (
    FreeComplexShape,
    NotInRegularity,
    NTooSmall,
    euler_quadrant_check,
    intersect_vres,
    intersect_window,
    pair_vres,
    predicted_pair_shape,
    regularity_contains,
)

from conftest import fibered_633, fibered_sets, grid_set, grid_sets, shared_part_sets
from oracles import (
    Beta2Report,
    beta2_first_positive_check,
    intersected_presentation_in_full,
    koszul_homology,
    pretty,
    shape_length,
    stored_pair_shape,
    total_by_stage,
    trim_table,
)

P = 32003


class TestRegularity:
    def test_origin_not_regular_for_two_points(self):
        ps = random_points(1, 2, 2, seed=9, require_generic=True)
        value = regularity_contains(ps, (0, 0))
        assert value == 1 and value != ps.N

    def test_stable_degree_is_regular(self):
        ps = random_points(1, 2, 5, seed=2, require_generic=True)
        assert regularity_contains(ps, (4, 0)) == ps.N

    def test_mixed_degree(self):
        # T(2,1) * T(4,2) = 3 * 15 = 45 >= 31, so generic H is 31 there
        ps = random_points(1, 2, 31, seed=20260814, require_generic=True)
        assert regularity_contains(ps, (2, 4)) == ps.N

    def test_negative_degree_rejected(self):
        ps = random_points(1, 2, 2, seed=9)
        with pytest.raises(ValueError):
            regularity_contains(ps, (-1, 0))

    @pytest.mark.parametrize("N, seed", [(5, 2), (12, 5), (31, 20260814)])
    def test_witness_matches_evaluation_rank(self, N, seed):
        # oracle: H(d) as the rank of the evaluation matrix at d, on a set
        # swept for genericity and on a fresh copy with an empty memo
        ps = random_points(1, 2, N, seed=seed, require_generic=True)
        fresh = PointSet(1, 2, P, ps.xs, ps.ys)
        values = set()
        for d in [(0, 0), (0, 1), (1, 1), (2, 2), (2, 4), (N - 1, 0), (N + 2, 1)]:
            want = rank(evaluation_matrix(ps, d), P)
            assert regularity_contains(ps, d) == want
            assert regularity_contains(fresh, d) == want
            values.add(want == N)
        assert values == {True, False}  # saturated and unsaturated degrees


class TestPredictedShapes:
    def test_small_n_rejected(self):
        with pytest.raises(NTooSmall):
            predicted_pair_shape(1)

    def test_twelve(self):
        s = predicted_pair_shape(12)
        assert s.stages == ({(0, 0): 1},
                            {(2, 2): 6, (4, 1): 3, (12, 0): 1},
                            {(4, 2): 9, (12, 1): 3},
                            {(12, 2): 3})

    def test_thirteen(self):
        s = predicted_pair_shape(13)
        assert s.stages[1] == {(2, 2): 5, (3, 2): 1, (4, 1): 2,
                               (5, 1): 1, (13, 0): 1}
        assert s.stages[2] == {(4, 2): 6, (5, 2): 3, (13, 1): 3}
        assert s.stages[3] == {(13, 2): 3}

    def test_six_table(self):
        s = predicted_pair_shape(6)
        assert s.stages == ({(0, 0): 1},
                            {(1, 2): 6, (2, 1): 3, (6, 0): 1},
                            {(2, 2): 9, (6, 1): 3},
                            {(6, 2): 3})

    def test_one_formula_reproduces_stored_tables(self):
        for N in range(2, 12):
            assert predicted_pair_shape(N) == stored_pair_shape(N)
        # past N = 11 stages 1 and 2 share no twist, so nothing cancels
        for N in range(12, 61):
            s = predicted_pair_shape(N)
            assert not s.stages[1].keys() & s.stages[2].keys()

    def test_alternating_rank_sum_vanishes(self):
        # any length-3 complex resolving a torsion-free rank-0 quotient
        # has alternating total rank zero
        for N in range(2, 41):
            totals = total_by_stage(predicted_pair_shape(N))
            assert sum((-1) ** k * c for k, c in enumerate(totals)) == 0


class TestEulerQuadrant:
    def test_predicted_shapes_pass(self):
        for N in (6, 12, 13, 31):
            assert euler_quadrant_check(predicted_pair_shape(N), N, 1, 2)

    def test_perturbed_shape_fails(self):
        stages = tuple(dict(s) for s in predicted_pair_shape(12).stages)
        del stages[1][(4, 1)]
        assert not euler_quadrant_check(FreeComplexShape(stages), 12, 1, 2)

    def test_full_table_passes(self):
        ps = random_points(1, 2, 4, seed=11)
        bt = betti_numbers(point_presentation(ps, betti_window(4, 1, 2)))
        assert euler_quadrant_check(FreeComplexShape.from_betti(bt), 4, 1, 2)


class TestVirtualOfPair:
    # the trim of a computed table, in the oracles, and the trimmed route
    def test_huge_degree_is_identity(self):
        ps = random_points(1, 2, 4, seed=11)
        bt = betti_numbers(point_presentation(ps, betti_window(4, 1, 2)))
        assert trim_table(bt, (50, 50)) == FreeComplexShape.from_betti(bt)

    def test_monotone_in_degree(self):
        ps = random_points(1, 2, 6, seed=3, require_generic=True)
        bt = betti_numbers(point_presentation(ps, betti_window(6, 1, 2)))
        small = trim_table(bt, (5, 0))
        big = trim_table(bt, (5, 3))
        for k, stage in enumerate(small.stages):
            for tw, c in stage.items():
                assert big.stages[k][tw] == c

    def test_uncertified_degree_rejected(self):
        ps = random_points(1, 2, 5, seed=2, require_generic=True)
        with pytest.raises(NotInRegularity):
            pair_vres(ps, (0, 0))

    def test_dirty_window_rejected_when_kept_region_exceeds(self):
        ps = random_points(1, 2, 6, seed=3, require_generic=True)
        bt = betti_numbers(point_presentation(ps, (4, 3)))
        assert not bt.boundary_clean
        with pytest.raises(WindowTooSmall):
            trim_table(bt, (9, 9))

    @pytest.mark.parametrize("n, m, N, seed, d", [
        (1, 2, 5, 2, (1, 2)),
        (1, 2, 6, 106, (5, 0)),
        (1, 2, 6, 3, (2, 1)),
        (1, 2, 8, 2, (3, 1)),
        (2, 1, 5, 4, (2, 0)),
    ])
    def test_pair_vres_is_trim_of_full_table(self, n, m, N, seed, d):
        # resolving only d + (n, m) gives the trim of the whole table
        ps = random_points(n, m, N, seed=seed, require_generic=True)
        bt = betti_numbers(point_presentation(ps, betti_window(N, n, m)))
        assert pair_vres(ps, d) == trim_table(bt, d)


class TestPairVres:
    def test_six_points_matches_table(self):
        ps = random_points(1, 2, 6, seed=106, require_generic=True)
        assert pair_vres(ps, (5, 0)) == predicted_pair_shape(6)

    def test_closed_form_spot_checks(self):
        for N, seed in ((12, 5), (19, 77), (23, 8)):
            ps = random_points(1, 2, N, seed=seed, require_generic=True)
            assert pair_vres(ps, (N - 1, 0)) == predicted_pair_shape(N)

    def test_thirty_one_at_stable_degree(self):
        ps = random_points(1, 2, 31, seed=20260814, require_generic=True)
        assert pair_vres(ps, (30, 0)) == predicted_pair_shape(31)

    def test_thirty_one_at_mixed_degree(self):
        ps = random_points(1, 2, 31, seed=20260814, require_generic=True)
        shape = pair_vres(ps, (2, 4))
        assert total_by_stage(shape) == (1, 34, 66, 39, 6)
        assert shape.stages[1] == {(3, 3): 9, (2, 4): 14, (1, 5): 11}
        assert shape.stages[2] == {(3, 4): 26, (2, 5): 32, (1, 6): 8}
        assert shape.stages[3] == {(3, 5): 24, (2, 6): 15}
        assert shape.stages[4] == {(3, 6): 6}


class TestIntersect:
    def test_two_points_line_times_line(self):
        bt, length = intersect_vres(random_points(1, 1, 2, seed=1), 1)
        assert length == 2

    def test_five_points_line_times_plane(self):
        ps = random_points(1, 2, 5, seed=2, require_generic=True)
        bt, length = intersect_vres(ps, 4)
        assert length == 3

    def test_five_points_plane_times_line_small_t(self):
        # generic: H(2, 0) = min(5, T(2, 2)) = 5 = ell, so r = 2 < ell - 1 = 4
        ps = random_points(2, 1, 5, seed=4, require_generic=True)
        bt, length = intersect_vres(ps, 2)
        assert length == 3

    def test_fibered_set(self):
        bt, length = intersect_vres(fibered_633(), 2)
        assert length == 3

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            intersect_vres(random_points(1, 1, 2, seed=1), 0)

    def test_window_below_t_rejected(self):
        # a window ending below row t misses the Betti box
        ps = random_points(1, 2, 3, seed=1, require_generic=True)
        with pytest.raises(WindowTooSmall):
            intersect_vres(ps, 2, window=(1, 5))

    def test_small_window_flagged(self):
        # the Betti box is (max(4, r_x = 4) + 1, r_y + 2) = (5, 4)
        ps = random_points(1, 2, 5, seed=2, require_generic=True)
        with pytest.raises(WindowTooSmall):
            intersect_vres(ps, 4, window=(5, 2))

    @pytest.mark.parametrize("t, window", [(1, None), (4, (8, 3))])
    def test_p_n_x_p_0_rejected_before_any_sweep(self, monkeypatch, t, window):
        # pd S/<x>^t = n + 1 exceeds n + m at m = 0: at t = 4 > ell = 3,
        # J = F * <x> and S/J has length 2, which the length contract would
        # refuse only after the ranks
        def no_work(*args):
            raise AssertionError("a window or presentation before the check of m")

        monkeypatch.setattr(vres, "intersect_window", no_work)
        monkeypatch.setattr(vres, "intersected_presentation", no_work)
        ps = random_points(1, 0, 3, seed=1)
        with pytest.raises(ValueError, match="m >= 1"):
            intersect_vres(ps, t, window)
        assert ps._row is None  # no sweep

    @pytest.mark.parametrize("m, N, t", [(1, 2, 1), (2, 5, 1), (2, 5, 3)])
    def test_p_0_x_p_m_has_length_m(self, m, N, t):
        # <x0>^t is principal, of pd 1 <= m, so the length is n + m = m
        ps = random_points(0, m, N, seed=1)
        bt, length = intersect_vres(ps, t)
        assert length == m
        window = intersect_window(ps, t)
        assert bt.entries == koszul_homology(intersected_presentation_in_full(ps, t, window)).entries


def two_per_fiber(n, xparts):
    """Two points in P^n x P^1 over each x-part, with distinct y-parts."""
    xs, ys = [], []
    for k, x in enumerate(xparts):
        xs += [x, x]
        ys += [(1, 2 * k), (1, 2 * k + 1)]
    return PointSet(n, 1, P, np.array(xs), np.array(ys))


def random_xparts(n, count, seed):
    rng = np.random.default_rng(seed)
    return [(1, *map(int, rng.integers(0, P, size=n))) for _ in range(count)]


def drawn_fibered_set(seed):
    """Random x-parts (ell of them, 2..5) with 1..3 points in each fiber."""
    rng = np.random.default_rng(seed)
    n, m = [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2)][rng.integers(5)]
    ell = int(rng.integers(2, 6))
    xparts = set()
    while len(xparts) < ell:
        xparts.add((1, *map(int, rng.integers(0, P, size=n))))
    xs, ys = [], []
    for x in sorted(xparts):
        size, fiber = int(rng.integers(1, 4)), set()
        while len(fiber) < size:
            fiber.add((1, *map(int, rng.integers(0, P, size=m))))
        xs += [x] * size
        ys += sorted(fiber)
    return PointSet(n, m, P, np.array(xs), np.array(ys))


class TestIntersectSharpBound:
    # the least t giving length n + m is r, the least i with H(i, 0) = ell
    # (the regularity index of the x-parts), the bound intersect_vres
    # asserts
    @pytest.mark.parametrize("n, xparts, r", [
        (2, random_xparts(2, 6, seed=1), 2),
        (2, [(1, k, 2 * k + 1) for k in range(5)], 4),  # collinear
        (2, [(1, k, k * k) for k in range(6)], 3),      # on a conic
        (3, random_xparts(3, 5, seed=2), 2),
    ])
    def test_length_is_n_plus_m_from_r(self, n, xparts, r):
        ps = two_per_fiber(n, xparts)
        ell = pi1_fibers(ps).ell
        column = hilbert_matrix(ps, (ell, 0))[:, 0]
        assert int(np.argmax(column == ell)) == r
        assert intersect_vres(ps, r - 1)[1] == ps.n + ps.m + 1
        for t in range(r, ell):
            assert intersect_vres(ps, t)[1] == ps.n + ps.m

    @pytest.mark.parametrize("seed", range(30))
    def test_length_survey_over_drawn_fibered_sets(self, seed):
        ps = drawn_fibered_set(seed)
        ell = pi1_fibers(ps).ell
        r = int(np.argmax(hilbert_matrix(ps, (ell, 0))[:, 0] == ell))
        assert intersect_vres(ps, r)[1] == ps.n + ps.m
        if r >= 2:
            assert intersect_vres(ps, r - 1)[1] == ps.n + ps.m + 1
        # the fibers split every row from r on, so the identity holds there
        assert decomposition_check(ps, r, (ell + 3, 5))

    def test_length_is_asserted_from_r(self, monkeypatch):
        # r = 2 < ell - 1 = 5: a wrong length at t = r must raise, and
        # t = r - 1 is below the bound, where none is asserted
        ps = two_per_fiber(2, random_xparts(2, 6, seed=1))
        monkeypatch.setattr(vres, "pdim", lambda bt: ps.n + ps.m + 1)
        with pytest.raises(AssertionError):
            intersect_vres(ps, 2)
        assert intersect_vres(ps, 1)[1] == ps.n + ps.m + 1

    @pytest.mark.parametrize("xparts, yparts", [
        ([(1,), (2,), (3,)], [(1,), (2,), (3,)]),           # r_x = 2
        ([(a,) for a in range(1, 6)], [(1,), (2,)]),        # r_x = 4
        ([(1,), (2,), (3,)], [(v, v * v) for v in range(1, 5)]),
    ], ids=["3x3", "5x2", "3x4_conic"])
    def test_grids_hold_below_r(self, xparts, yparts):
        # t >= r is sufficient, not necessary: on a grid the identity holds
        # and the length is n + m at every 1 <= t < r
        ps = grid_set(P, xparts, yparts)
        rx, ry = regularity_box(ps)
        assert rx == len(xparts) - 1
        for t in range(1, rx):
            assert decomposition_check(ps, t, (ps.N + 3, ry + 3))
            assert intersect_vres(ps, t)[1] == ps.n + ps.m

    def test_non_acm_set_holds_from_t_2_below_r(self):
        # eight points of P^1 x P^1 over p = 101, not a grid and not
        # arithmetically Cohen-Macaulay: length 3 = n + m + 1 at t = 1, and
        # n + m from t = 2 on, below r_x = 3, where decomposition_check
        # agrees with the length
        ps = non_acm_set()
        assert regularity_box(ps) == (3, 2)
        assert intersect_vres(ps, 1)[1] == 3
        assert not decomposition_check(ps, 1, intersect_window(ps, 1))
        for t in range(2, 6):
            assert intersect_vres(ps, t)[1] == 2
            assert decomposition_check(ps, t, intersect_window(ps, t))


def non_acm_set() -> PointSet:
    """Eight points of P^1 x P^1 over GF(101) with r_x = 3 whose intersect
    length drops to n + m at t = 2."""
    return PointSet(1, 1, 101, np.array([(1, v) for v in (25, 32, 60, 60, 7, 25, 25, 7)]),
                    np.array([(1, v) for v in (34, 34, 34, 18, 34, 50, 18, 50)]))


@st.composite
def below_r_cases(draw):
    """A fibered, grid or shared-part set with r_x >= 2, and 1 <= t < r_x:
    at t >= r_x neither table has an entry past row t + n."""
    sets = st.one_of(fibered_sets(), grid_sets(), shared_part_sets())
    ps = draw(sets.filter(lambda ps: regularity_box(ps)[0] >= 2))
    return ps, draw(st.integers(1, regularity_box(ps)[0] - 1))


@settings(max_examples=100, deadline=None)
@given(below_r_cases())
@example((fibered_633(), 1))
@example((non_acm_set(), 1))
@example((non_acm_set(), 2))
def test_rows_past_t_plus_n_are_those_of_the_points(case):
    """Step (e) of the module docstring: on a window that holds both Betti
    boxes, rows i >= t + n + 1 of the table of S/J, J = I_X ∩ <x>^t, from
    every strand of S/J ranked, equal those of S/I_X."""
    ps, t = case
    window = betti_box(ps, t)  # max(t, r_x) + n >= r_x + n: it holds both
    want = betti_numbers(point_presentation(ps, window)).entries
    got = koszul_homology(intersected_presentation_in_full(ps, t, window)).entries
    assert ({e: b for e, b in got.items() if e[1] > t + ps.n}
            == {e: b for e, b in want.items() if e[1] > t + ps.n})


@st.composite
def up_to_r_cases(draw):
    """A fibered, grid or shared-part set with r_x >= 1, and 1 <= t <= r_x."""
    sets = st.one_of(fibered_sets(), grid_sets(), shared_part_sets())
    ps = draw(sets.filter(lambda ps: regularity_box(ps)[0] >= 1))
    return ps, draw(st.integers(1, regularity_box(ps)[0]))


@settings(max_examples=100, deadline=None)
@given(up_to_r_cases())
@example((fibered_633(), 1))
@example((non_acm_set(), 1))
@example((non_acm_set(), 2))
def test_length_is_n_plus_m_exactly_without_a_top_betti_number_past_row_t_plus_n(case):
    """Steps (e) and (f) of the module docstring: S/J, J = I_X ∩ <x>^t, has
    length n + m exactly when the table of S/I_X, on a window that holds
    both Betti boxes, has no beta_{n+m+1} in a row i >= t + n + 1."""
    ps, t = case
    top = ps.n + ps.m + 1
    points = betti_numbers(point_presentation(ps, betti_box(ps, t))).entries
    length = intersect_vres(ps, t)[1]
    assert (length == top - 1) == all(i <= t + ps.n for k, i, _ in points if k == top)


class TestBeta2Rows:
    def test_twelve(self):
        ps = random_points(1, 2, 12, seed=5, require_generic=True)
        rep = beta2_first_positive_check(ps)
        assert isinstance(rep, Beta2Report) and rep.passed
        triples = {(r.i, r.j): r.dh for r in rep.rows}
        assert triples[(4, 2)] == 9
        assert triples[(12, 1)] == 3

    def test_thirteen(self):
        ps = random_points(1, 2, 13, seed=6, require_generic=True)
        rep = beta2_first_positive_check(ps)
        assert rep.passed
        triples = {(r.i, r.j): r.dh for r in rep.rows}
        assert triples[(5, 2)] == 3
        assert triples[(13, 1)] == 3

    def test_wrong_ambient_rejected(self):
        with pytest.raises(ValueError):
            beta2_first_positive_check(random_points(1, 1, 3, seed=0))


class TestShapeApi:
    def test_json_roundtrip(self):
        s = predicted_pair_shape(7)
        assert FreeComplexShape.from_json(s.to_json()) == s

    def test_pretty(self):
        assert pretty(predicted_pair_shape(6)) == (
            "S\n"
            "  <- S(-1,-2)^6 + S(-2,-1)^3 + S(-6,0)\n"
            "  <- S(-2,-2)^9 + S(-6,-1)^3\n"
            "  <- S(-6,-2)^3\n"
            "  <- 0")

    def test_accessors(self):
        s = predicted_pair_shape(12)
        assert shape_length(s) == 3
        assert s.max_twist() == (12, 2)
        assert total_by_stage(s) == (1, 10, 12, 3)
