"""Betti engine checks against tables derivable by independent means.

The small cases (one point, zero ideal, residue field, complete
intersection) have closed-form Koszul answers.  Larger cases are pinned
down by dimension counts on the ideal pieces, by the difference-matrix
collapse identity, and by a second generator-count routine that never
builds a Koszul strand.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vreslab import betti
from vreslab.betti import (
    BettiTable,
    WindowTooSmall,
    betti_numbers,
    betti_window,
    intersected_presentation,
    mrc_check,
    mrc_window,
    pdim,
    point_presentation,
)
from vreslab.cox import count_monomials, monomials
from vreslab.diffcalc import alternating_betti_from_hilbert
from vreslab.fp import rank, subspace_equal
from vreslab.points import (
    PointSet,
    evaluation_matrix,
    function_space_bases,
    hilbert_matrix,
    ideal_piece,
    random_points,
)
from vreslab.vres import intersect_vres

from conftest import (
    fibered_633,
    fibered_sets,
    grid_set,
    grid_sets,
    line_fibered_sets,
    shared_part_sets,
)
from oracles import (
    ClosureViolated,
    beta1_from_ideal,
    beta1_table,
    betti_entry,
    betti_total_by_stage,
    ideal_pieces_from_generators,
    intersected_presentation_in_full,
    kernel_map_through_m,
    koszul_homology,
    monomial_row,
    predicted_intersect_column_0,
    quotient_presentation,
    row_quotient_map_by_gather,
    signed_collapse,
    window_presentation,
)

P = 32003


def one_point():
    return PointSet(1, 2, P, np.array([[1, 4]]), np.array([[1, 7, 9]]))


def collinear_x_parts(N):
    """N points of P^2 x P^1 whose x-parts lie on one line."""
    return PointSet(2, 1, P, np.array([(1, k, 2 * k + 1) for k in range(N)]),
                    np.array([(1, k * k + 3) for k in range(N)]))


def form_row(coeffs, degree, n, m):
    basis = monomials(n, m, degree)
    row = np.zeros(len(basis), dtype=np.int64)
    for e, c in coeffs.items():
        row[monomial_row(e, n, m)] = c % P
    return row


class TestKoszulOracles:
    def test_one_point_table(self):
        # vanishing ideal is a regular sequence of degrees (1,0),(0,1),(0,1),
        # so the resolution is the Koszul complex on those twists
        bt = betti_numbers(point_presentation(one_point(), (3, 4)))
        assert bt.entries == {
            (0, 0, 0): 1,
            (1, 1, 0): 1, (1, 0, 1): 2,
            (2, 1, 1): 2, (2, 0, 2): 1,
            (3, 1, 2): 1,
        }
        assert bt.boundary_clean
        assert pdim(bt) == 3
        assert betti_total_by_stage(bt) == (1, 3, 3, 1)

    def test_zero_ideal_is_free(self):
        pres = quotient_presentation({}, 1, 2, P, (3, 3))
        bt = koszul_homology(pres)
        assert bt.entries == {(0, 0, 0): 1}

    def test_residue_field_binomials(self):
        # quotient by everything of positive degree: beta_k totals C(5, k)
        pieces = {}
        for i in range(3):
            for j in range(4):
                if (i, j) != (0, 0):
                    pieces[(i, j)] = np.eye(count_monomials(1, 2, (i, j)),
                                            dtype=np.int64)
        bt = betti_numbers(quotient_presentation(pieces, 1, 2, P, (2, 3)))
        totals = {}
        for (k, i, j), b in bt.entries.items():
            totals[k] = totals.get(k, 0) + b
        assert totals == {k: comb(5, k) for k in range(6)}

    def test_complete_intersection_table(self):
        gens = [((2, 0), form_row({(2, 0, 0, 0, 0): 1}, (2, 0), 1, 2)),
                ((0, 2), form_row({(0, 0, 2, 0, 0): 1}, (0, 2), 1, 2)),
                ((0, 3), form_row({(0, 0, 0, 3, 0): 1}, (0, 3), 1, 2))]
        pieces = ideal_pieces_from_generators(gens, 1, 2, P, (3, 6))
        bt = betti_numbers(quotient_presentation(pieces, 1, 2, P, (3, 6)))
        assert bt.entries == {
            (0, 0, 0): 1,
            (1, 2, 0): 1, (1, 0, 2): 1, (1, 0, 3): 1,
            (2, 2, 2): 1, (2, 2, 3): 1, (2, 0, 5): 1,
            (3, 2, 5): 1,
        }


class TestPresentationRoutes:
    def test_point_and_quotient_routes_agree(self):
        ps = random_points(1, 2, 4, seed=11)
        win = betti_window(4, 1, 2)
        pieces = {(i, j): ideal_piece(ps, (i, j))
                  for i in range(win[0] + 1) for j in range(win[1] + 1)}
        bt_pt = betti_numbers(point_presentation(ps, win))
        bt_qt = betti_numbers(quotient_presentation(pieces, 1, 2, P, win))
        assert bt_pt.entries == bt_qt.entries

    def test_generator_propagation_matches_evaluation_kernel(self):
        # one point: ideal generated by its three linear forms
        ps = one_point()
        gens = [((1, 0), form_row({(0, 1, 0, 0, 0): 1, (1, 0, 0, 0, 0): -4},
                                  (1, 0), 1, 2)),
                ((0, 1), form_row({(0, 0, 0, 1, 0): 1, (0, 0, 1, 0, 0): -7},
                                  (0, 1), 1, 2)),
                ((0, 1), form_row({(0, 0, 0, 0, 1): 1, (0, 0, 1, 0, 0): -9},
                                  (0, 1), 1, 2))]
        pieces = ideal_pieces_from_generators(gens, 1, 2, P, (2, 2))
        for i in range(3):
            for j in range(3):
                assert subspace_equal(pieces[(i, j)],
                                      ideal_piece(ps, (i, j)), P)

    def test_closure_violation_raises(self):
        bad = {(1, 0): np.array([[1, 0]], dtype=np.int64)}
        with pytest.raises(ClosureViolated):
            quotient_presentation(bad, 1, 2, P, (2, 1))

    def test_validate_false_skips_closure_check(self):
        bad = {(1, 0): np.array([[1, 0]], dtype=np.int64)}
        pres = quotient_presentation(bad, 1, 2, P, (2, 1), validate=False)
        assert pres.dim((1, 0)) == 1
        assert pres.dim((2, 0)) == 3


class TestCertificates:
    # the engine on the presentation modulo z, against the all-ranks oracle
    # on the presentation over all n+m+2 variables

    @staticmethod
    def assert_matches_oracle(ps, t, window):
        want = koszul_homology(intersected_presentation_in_full(ps, t, window))
        assert betti_numbers(intersected_presentation(ps, t, window)).entries == want.entries

    def test_generic_set_on_off(self):
        ps = random_points(1, 2, 6, seed=3, require_generic=True)
        self.assert_matches_oracle(ps, 0, betti_window(6, 1, 2))

    def test_fibered_set_on_off(self):
        self.assert_matches_oracle(fibered_633(), 0, (7, 5))

    def test_intersected_presentation_on_off(self):
        self.assert_matches_oracle(fibered_633(), 2, (5, 5))

    def test_region_restricts_output(self):
        # the strand at d reads only pieces at degrees <= d, so a window's
        # table is a larger window's restricted to it; pair_vres rests on it
        ps = random_points(1, 2, 4, seed=11)
        full = betti_numbers(point_presentation(ps, (5, 6)))
        reg = betti_numbers(point_presentation(ps, (3, 2)))
        want = {key: v for key, v in full.entries.items()
                if key[1] <= 3 and key[2] <= 2}
        assert reg.entries == want


class TestGeneratorLayers:
    # generator counts forced by piece dimensions: a cell (i,j) whose
    # incoming multiplication images are zero contributes exactly
    # dim I_(i,j) minimal generators

    def test_six_points(self):
        ps = random_points(1, 2, 6, seed=3, require_generic=True)
        bt = betti_numbers(point_presentation(ps, betti_window(6, 1, 2)))
        assert bt.layer(1) == {(0, 3): 4, (1, 2): 6, (2, 1): 3, (6, 0): 1}

    def test_twelve_points(self):
        ps = random_points(1, 2, 12, seed=5, require_generic=True)
        b1 = beta1_table(ps, betti_window(12, 1, 2))
        assert b1 == {(0, 4): 3, (1, 3): 8, (2, 2): 6, (4, 1): 3, (12, 0): 1}

    def test_beta1_oracle_agreement(self):
        ps = random_points(1, 2, 12, seed=5, require_generic=True)
        b1 = beta1_table(ps, betti_window(12, 1, 2))
        for d, v in b1.items():
            assert beta1_from_ideal(ps, d) == v
        for d in [(1, 1), (3, 2), (5, 0), (2, 3)]:
            assert beta1_from_ideal(ps, d) == 0


class TestMrc:
    def test_windows(self):
        assert mrc_window(2) == (3, 2)
        assert mrc_window(12) == (13, 5)

    def test_two_points(self):
        rep = mrc_check(random_points(1, 2, 2, seed=9, require_generic=True))
        assert rep.generic and rep.passed
        assert rep.beta1 == {(0, 1): 1, (0, 2): 1, (1, 1): 2, (2, 0): 1}
        assert rep.predicted == rep.beta1
        assert rep.mismatches == []

    def test_twelve_points(self):
        rep = mrc_check(random_points(1, 2, 12, seed=5, require_generic=True))
        assert rep.generic and rep.passed
        assert rep.predicted == rep.beta1

    def test_twenty_five_points_at_large_prime(self):
        # a prime near 2**25, where products of two residues reach 2**50
        ps = random_points(1, 2, 25, seed=1, p=33554393, require_generic=True)
        rep = mrc_check(ps)
        assert rep.generic and rep.passed

    def test_non_generic_short_circuits(self):
        rep = mrc_check(fibered_633())
        assert not rep.generic
        assert not rep.passed
        assert rep.predicted == {} and rep.beta1 == {}

    def test_wrong_ambient_rejected(self):
        ps = random_points(1, 1, 2, seed=0)
        with pytest.raises(ValueError):
            mrc_check(ps)


class TestThirtyOnePoints:
    # window (32, 11)

    def test_full_table_and_trim(self):
        ps = random_points(1, 2, 31, seed=20260814, require_generic=True)
        bt = betti_numbers(point_presentation(ps, betti_window(31, 1, 2)))
        assert bt.boundary_clean
        assert pdim(bt) == 4
        assert betti_entry(bt, 1, 31, 0) == 1
        assert betti_entry(bt, 1, 0, 7) == 5
        # keeping twists at most (3, 6) leaves the short complex
        keep = {}
        for (k, i, j), b in bt.entries.items():
            if i <= 3 and j <= 6:
                keep.setdefault(k, {})[(i, j)] = b
        assert keep[1] == {(3, 3): 9, (2, 4): 14, (1, 5): 11}
        assert keep[2] == {(3, 4): 26, (2, 5): 32, (1, 6): 8}
        assert keep[3] == {(3, 5): 24, (2, 6): 15}
        assert keep[4] == {(3, 6): 6}
        totals = tuple(sum(keep[k].values()) for k in range(5))
        assert totals == (1, 34, 66, 39, 6)


class TestTableApi:
    def test_beta_defaults_to_zero(self):
        bt = betti_numbers(point_presentation(one_point(), (3, 4)))
        assert betti_entry(bt, 1, 2, 2) == 0
        assert betti_entry(bt, 9, 0, 0) == 0

    def test_negative_kmax_rejected(self):
        # a table with no beta_0 is no table of the module
        with pytest.raises(ValueError):
            betti_numbers(point_presentation(one_point(), (1, 2)), kmax=-1)

    def test_json_roundtrip(self):
        bt = betti_numbers(point_presentation(one_point(), (3, 4)))
        back = BettiTable.from_json(bt.to_json())
        assert back.entries == bt.entries
        assert back.window == bt.window
        assert back.kmax == bt.kmax
        assert back.boundary_clean == bt.boundary_clean
        assert (back.n, back.m) == (bt.n, bt.m)

    def test_dirty_boundary_blocks_pdim(self):
        # one point: r_x = r_y = 0, so the Betti box is (1, 2) and the
        # window (1, 2) holds the whole Koszul table
        bt = betti_numbers(point_presentation(one_point(), (1, 2)))
        assert bt.boundary_clean and bt.max_stage() == pdim(bt) == 3
        bt = betti_numbers(point_presentation(one_point(), (0, 2)))
        assert not bt.boundary_clean
        with pytest.raises(WindowTooSmall):
            pdim(bt)


class TestBettiBox:
    @staticmethod
    def collinear_y_parts(N):
        rng = np.random.default_rng(N)
        xs = [(1, int(v)) for v in rng.choice(P, size=N, replace=False)]
        return PointSet(1, 2, P, np.array(xs), np.array([(1, k, 2 * k + 1) for k in range(N)]))

    @pytest.mark.parametrize("N", [8, 10])
    def test_collinear_y_parts_miss_the_default_window(self, N):
        # distinct y-parts on a line in P^2: H(0, j) = min(j + 1, N), so
        # r_y = N - 1 and the Betti box (N, N + 1) reaches past
        # betti_window's column min_cover_degree(N, 2) + 4, where six
        # entries lie although the window's outer strip holds none
        ps = self.collinear_y_parts(N)
        window = betti_window(N, 1, 2)
        bt = betti_numbers(point_presentation(ps, window))
        assert not bt.boundary_clean
        assert not any(i == window[0] or j == window[1] for _, i, j in bt.entries)
        full = betti_numbers(point_presentation(ps, (N, N + 1)))
        assert full.boundary_clean
        assert len([e for e in full.entries if e[2] > window[1]]) == 6

    @pytest.mark.parametrize("N", [8, 10])
    def test_default_intersect_window_holds_the_box(self, N):
        # the same sets at t = N - 1: the Betti box (N, N + 1) lies past the
        # N-only window (N + 2, 7), so the default window takes the box's
        ps = self.collinear_y_parts(N)
        bt, length = intersect_vres(ps, N - 1)
        assert length == 3 and bt.boundary_clean
        assert bt.window == (N + 2, N + 1)


@pytest.mark.parametrize("window", [mrc_window(25), (25, 2)])
def test_tail_cells_build_no_strand_and_k1_is_never_ranked(monkeypatch, window):
    # 25 generic points in P^1 x P^2, modulo x0 over x1, y0, y1, y2: column 0
    # stays 1-dimensional up to row 24 while columns 1 and 2 die near row
    # 8.  Row 0 comes from the strands of C/y0C over y1, y2, and rows
    # i >= 1 from the strands of the kernels Z_i of x1, each strand
    # credited to the cell (i, j) it gives; x1 loses no dimension in
    # columns 1 and 2 of the long tails, so no strand lies there.  K_1 ->
    # K_0 is onto off the origin, on M and on C/y0C alike, so no cell of
    # theirs assembles or ranks it.  The maps of x1 taken for the kernels
    # are not blocks of any strand of M
    ps = random_points(1, 2, 25, seed=1, require_generic=True)
    pres = point_presentation(ps, window)
    # the pieces on the whole window: the engine holds them only up to the
    # Betti box (25, 8), and mrc_window(25) is (26, 7)
    wide = window_presentation(ps, 0, window)
    dims, quotient = wide.dims, pres.row_quotient
    tail = {(i, j) for i in range(1, window[0] + 1) for j in range(1, min(3, window[1]) + 1)
            if not dims[i - 1:i + 1, 1:j + 1].any()}
    assert len(tail) > 20
    cells, shapes, targets, rows = [], [], [], {}
    homology, kernel_presentation = betti._homology, betti._kernel_presentation
    rank, build, build_row_0 = betti.rank, pres.map, quotient.map

    def counted_kernel_presentation(module, i):
        rows[id(zpres := kernel_presentation(module, i))] = i
        return zpres

    def counted_homology(module, d, kmax, onto):
        own = module is pres or module is quotient
        cells.append((own, d if own else (rows[id(module)], d[1])))
        return homology(module, d, kmax, onto)

    def counted_rank(mat, p):
        shapes.append((cells[-1][1], mat.shape))
        return rank(mat, p)

    def counted_map(var, d):
        targets.append((cells[-1], (d[0] + (var <= 1), d[1] + (var > 1))))
        return build(var, d)

    def counted_row_0_map(var, d):
        targets.append((cells[-1], (0, d[1] + 1)))
        return build_row_0(var, d)

    monkeypatch.setattr(betti, "_kernel_presentation", counted_kernel_presentation)
    monkeypatch.setattr(betti, "_homology", counted_homology)
    monkeypatch.setattr(betti, "rank", counted_rank)
    monkeypatch.setattr(pres, "map", counted_map)
    monkeypatch.setattr(quotient, "map", counted_row_0_map)
    bt = betti_numbers(pres)
    assert cells and not tail & {d for d, _ in shapes}
    assert not tail & {cell for (_, cell), _ in targets}
    assert all(cell != tgt for (own, cell), tgt in targets if own)

    def dim(i, j):
        return int(dims[i, j]) if i >= 0 and j >= 0 else 0

    def row_0_dim(j):
        return int(quotient.dims[0, j]) if j >= 0 else 0

    for (i, j), shape in shapes:
        # the K_1 -> K_0 block: dim M_d rows, one column per K_1 coordinate,
        # and in row 0 the same block of C/y0C over two variables
        assert shape != (dim(i, j), dim(i - 1, j) + 3 * dim(i, j - 1))
        assert i or shape != (row_0_dim(j), 2 * row_0_dim(j - 1))
    assert bt.entries == koszul_homology(wide).entries


def test_rows_without_a_drop_build_no_map(monkeypatch):
    # 40 generic points in P^1 x P^2 at (40, 2): x1 maps row i - 1 of S/I_X
    # modulo x0 onto row i, and only rows 6, 7, 13, 14 and 40 lose
    # dimension, so only the kernels of x1 under them cost anything, and
    # the cyclic strands are built in row 0 alone, over y1, y2 on C/y0C
    ps = random_points(1, 2, 40, seed=1, require_generic=True)
    pres = point_presentation(ps, (40, 2))
    drops = {i for i in range(1, 41) if (pres.dims[i - 1] > pres.dims[i]).any()}
    assert drops == {6, 7, 13, 14, 40}
    cells, betti_cell = [], betti._betti_cell

    def counted_cell(module, d, kmax):
        cells.append((module, d))
        return betti_cell(module, d, kmax)

    monkeypatch.setattr(betti, "_betti_cell", counted_cell)
    bt = betti_numbers(pres)
    assert cells and all(module is pres.row_quotient and i == 0 for module, (i, _) in cells)
    # each kernel is at most four wide and these strands of Z_i have one
    # nonzero term, so they build no map at all (the table is pinned by the
    # CLI digest of betti --N 40 --seed 1)
    assert all(d[0] + 1 in drops for _, d in pres._maps) and len(pres._maps) <= 2
    assert {i for _, i, _ in bt.entries} == {0} | drops


def test_row_0_rank_inputs_are_row_flag_blocks(monkeypatch):
    # row 0 runs the strands of C/y0C over y1, y2, whose pieces are the
    # row flag's blocks (j + 1 rows for generic points of P^2), so no side
    # of a row-0 rank input passes twice the largest block; M's row-0
    # strands over y0, y1, y2 read V(0, j), up to N wide, and K_1 alone
    # reached 3N
    ps = random_points(1, 2, 40, seed=1, require_generic=True)
    pres = point_presentation(ps, mrc_window(40))
    shapes, row_0, homology, rank = [], [], betti._homology, betti.rank

    def counted_homology(module, d, kmax, onto):
        row_0.append(module is pres.row_quotient)
        return homology(module, d, kmax, onto)

    def counted_rank(mat, p):
        if row_0[-1]:
            shapes.append(mat.shape)
        return rank(mat, p)

    monkeypatch.setattr(betti, "_homology", counted_homology)
    monkeypatch.setattr(betti, "rank", counted_rank)
    bt = betti_numbers(pres)
    # piece j of C/y0C is as wide as block j of the row flag
    largest = int(pres.row_quotient.dims.max())
    assert shapes and max(max(shape) for shape in shapes) <= 2 * largest < ps.N
    assert bt.layer(1) == mrc_check(ps).beta1


def test_point_tables_on_p1_build_only_x1_maps_of_m():
    # row 0 comes from C/y0C and rows i >= 1 from the kernels of x1, whose
    # y-maps apply y to the kernel's functions: M itself builds only the
    # maps of x1 whose kernels are taken
    ps = random_points(1, 2, 25, seed=1, require_generic=True)
    pres = point_presentation(ps, mrc_window(25))
    betti_numbers(pres)
    assert len(pres._maps) == 3 and all(var == 1 for var, _ in pres._maps)


@settings(max_examples=100, deadline=None)
@given(st.one_of(fibered_sets(), grid_sets(), shared_part_sets()).filter(lambda ps: ps.n == 1))
@example(fibered_633())
@example(random_points(1, 2, 7, seed=1, require_generic=True))
def test_row_quotient_and_kernel_maps_match_their_oracles(ps):
    """Every y-map of C/y0C equals the row flag's gather, and every y-map of
    each kernel Z_i of the row split equals M's y-map at the target
    kernel's free columns times the source kernel, at t = 0 on P^1 x P^m
    over the Betti box."""
    wi, wj = betti.betti_box(ps, 0)
    pres = point_presentation(ps, (wi, wj))
    quotient = pres.row_quotient
    for var in quotient.variables:  # y1..ym
        for j in range(min(wj, function_space_bases(ps, (0, 0)).box[1])):
            assert np.array_equal(quotient.map(var, (0, j)),
                                  row_quotient_map_by_gather(ps, var, j))
    for i in range(1, wi + 1):
        zpres = betti._kernel_presentation(pres, i)
        for var in zpres.variables:  # y0..ym
            for b in range(wj):
                if zpres.dims[0, b] and zpres.dims[0, b + 1]:
                    assert np.array_equal(zpres.map(var, (0, b)),
                                          kernel_map_through_m(pres, i, var, b))


@st.composite
def collinear_y_part_sets(draw):
    """Up to eight points of P^n x P^m, n and m in 1..3, whose y-parts lie
    on one line of P^m and may repeat."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p = draw(st.sampled_from([5, 7, 101]))
    coords = st.integers(0, p - 1)
    a, b = (draw(st.tuples(*[coords] * m)) for _ in range(2))
    steps = draw(st.lists(coords, min_size=1, max_size=8))
    xs = draw(st.lists(st.tuples(*[coords] * n), min_size=len(steps), max_size=len(steps),
                       unique=True))
    ys = [tuple((u + s * v) % p for u, v in zip(a, b)) for s in steps]
    return PointSet(n, m, p, np.array([(1, *x) for x in xs]), np.array([(1, *y) for y in ys]))


@st.composite
def row_0_cases(draw):
    """A set with n in 1..3 and m in 0..3, a window whose column reaches
    short of, to or past the Betti box, and a kmax from 0 to the default."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    generic = st.builds(lambda N, seed, p: random_points(n, m, N, seed=seed, p=p,
                                                         require_generic=m > 0),
                        st.integers(1, 8 if m else 1), st.integers(0, 2**32 - 1),
                        st.sampled_from([101, 32003]))
    ps = draw(st.one_of(generic, shared_part_sets(), line_fibered_sets(),
                        collinear_y_part_sets()))
    box = betti.betti_box(ps, 0)
    window = (draw(st.integers(0, 2)), max(0, box[1] + draw(st.integers(-2, 1))))
    kmax = draw(st.one_of(st.none(), st.integers(0, ps.n + ps.m + 2)))
    return ps, window, kmax


@settings(max_examples=150, deadline=None)
@given(row_0_cases())
@example((fibered_633(), (1, 6), None))
# generic sets whose row-0 ranks a wrong y-map changes
@example((random_points(1, 2, 4, seed=1, require_generic=True), (1, 5), None))
@example((random_points(1, 3, 5, seed=1, require_generic=True), (2, 6), 2))
def test_row_0_from_the_row_flag_matches_all_ranks_oracle(case):
    """Row 0 read off the row flag modulo y0 against every strand of the
    same presentation ranked over y0..ym."""
    ps, window, kmax = case
    got = betti_numbers(point_presentation(ps, window), kmax).entries
    want = koszul_homology(window_presentation(ps, 0, window), kmax).entries
    assert ({e: b for e, b in got.items() if not e[1]}
            == {e: b for e, b in want.items() if not e[1]})


@pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (1, 2), (2, 1), (3, 2)])
def test_free_row_dims_count_the_monomials_of_r(n, m):
    # the presentation is <x>^t M, zero below row t: its dims start at row
    # t and end at the Betti box, and hold the sweep's H(i, j) - H(i, j - 1),
    # the quotient by y0; every piece below row t reads as zero
    t, window = 5, (7, 6)
    ps = random_points(n, m, 3, seed=1)
    pres = intersected_presentation(ps, t, window)
    region = [min(w, b) for w, b in zip(window, pres.box)]
    assert pres.dims.shape == (region[0] - t + 1, region[1] + 1)
    H = hilbert_matrix(ps, window)[t:region[0] + 1, :region[1] + 1]
    assert np.array_equal(pres.dims, np.diff(H, axis=1, prepend=0))
    assert all(pres.dim((i, j)) == 0 for i in range(t) for j in range(window[1] + 1))


def test_free_row_dims_past_int64_raise():
    # dim R_(2, 200) on P^1 x P^20 is 3 * C(219, 19), past 2**63, but no
    # piece of R is stored: dims start at row t = 3, and end at the Betti
    # box's column r_y + m = 21
    ps = random_points(1, 20, 2, seed=1)
    pres = intersected_presentation(ps, 3, (3, 200))
    assert pres.box == (4, 21)
    assert pres.dims.tolist() == [[2] + [0] * 21]
    assert pres.dim((2, 5)) == 0


@settings(max_examples=40, deadline=None)
@given(st.one_of(fibered_sets(), shared_part_sets()), st.sampled_from([0, 1, 2, 3, 10**11]),
       st.tuples(*[st.one_of(st.integers(0, 8), st.just(10**11))] * 2))
@example(fibered_633(), 10**11, (10**11 + 1, 10**11))
def test_presentation_holds_rows_t_to_the_betti_box(ps, t, window):
    """The presentation holds the pieces of rows t..min(wi, box row) and
    columns up to min(wj, box column), whatever the window's size: a piece
    below row t reads as zero, and one past that region is refused."""
    pres = intersected_presentation(ps, t, window)
    top, right = (min(w, b) for w, b in zip(window, pres.box))
    assert pres.dims.shape == (max(top - t + 1, 0), right + 1)
    assert pres.dim((t - 1, right)) == 0
    for d in [(max(top, t - 1) + 1, 0), (t, right + 1)]:
        with pytest.raises(IndexError):
            pres.dim(d)


def test_free_row_maps_are_column_0_monomial_blocks():
    # seven generic points in P^2 x P^1 at t = 2 < r_x = 3: the presentation
    # holds only rows >= 2, and column 0's step ranks the crossing
    # differentials from k[x]_1, the only maps built below row t
    n, t = 2, 2
    ps = random_points(n, 1, 7, seed=2, require_generic=True)
    assert function_space_bases(ps, (0, 0)).box[0] == 3
    window = (3 + n + 1, 4)
    pres = intersected_presentation(ps, t, window)
    bt = betti_numbers(pres)
    assert sorted(key for key in pres._maps if key[1][0] < t) == [(v, (t - 1, 0))
                                                                  for v in range(n + 1)]
    assert bt.entries == koszul_homology(intersected_presentation_in_full(ps, t, window)).entries


def test_sequence_route_builds_only_the_crossing_below_row_t(monkeypatch):
    # four generic points in P^2 x P^1 at t = r_x = 2, n >= 2: the table is
    # read off the long exact Tor sequence with column 0 ranked on the
    # crossing differentials, so below row t only the crossing maps from
    # (t - 1, 0) are built, and no strand of S/J is assembled
    n, t = 2, 2
    ps = random_points(n, 1, 4, seed=2, require_generic=True)
    assert function_space_bases(ps, (0, 0)).box[0] == t
    window = (t + n + 2, 4)
    pres = intersected_presentation(ps, t, window)
    cells, betti_cell = [], betti._betti_cell

    def counted(pres, d, kmax):
        cells.append(d)
        return betti_cell(pres, d, kmax)

    monkeypatch.setattr(betti, "_betti_cell", counted)
    bt = betti_numbers(pres)
    assert cells == []
    assert sorted(key for key in pres._maps if key[1][0] < t) == [(v, (t - 1, 0))
                                                                  for v in range(n + 1)]
    assert bt.entries == koszul_homology(intersected_presentation_in_full(ps, t, window)).entries


@pytest.mark.parametrize("ps,t", [
    # four generic points in P^2 x P^1 at t = 3 > r_x = 2
    (random_points(2, 1, 4, seed=2, require_generic=True), 3),
    # three fibers of two points in P^1 x P^2, r_x = 2: on P^1 at t = r_x,
    # and past it
    (fibered_633(), 2),
    (fibered_633(), 3),
    # four generic x-parts of P^2 times two y-parts of P^2, t = 3 > r_x = 2
    (grid_set(P, [(0, 0), (1, 0), (0, 1), (2, 3)], [(1, 4), (5, 2)]), 3),
])
def test_sequence_route_builds_no_map_below_row_t(monkeypatch, ps, t):
    # column 0 is a closed form at t > r_x, and on P^1 at t >= r_x (step (d)
    # of The sequence route): no map below row t is built, no monomial is
    # evaluated, and every rank is that of a strand of row t over y1..ym
    n, m = ps.n, ps.m
    rx = function_space_bases(ps, (0, 0)).box[0]
    assert t > rx or n == 1 and t == rx
    window = betti.betti_box(ps, t)
    pres = intersected_presentation(ps, t, window)
    strands, ranks = [], []
    differential, rank = betti._differential, betti.rank

    def recorded(module, src, tgt):
        strands.append(module.variables)
        return differential(module, src, tgt)

    def counted(mat, p):
        ranks.append(mat.shape)
        return rank(mat, p)

    def refused(ps, d):
        raise AssertionError(f"monomials of {d} evaluated")

    with monkeypatch.context() as mp:
        mp.setattr(betti, "_differential", recorded)
        mp.setattr(betti, "rank", counted)
        mp.setattr(betti, "evaluation_matrix", refused)
        bt = betti_numbers(pres)
    assert all(d[0] == t for _, d in pres._maps)
    assert set(strands) <= {tuple(range(n + 2, n + m + 2))}
    assert len(ranks) == len(strands)
    assert bt.entries == koszul_homology(intersected_presentation_in_full(ps, t, window)).entries
    ell = len({*map(tuple, ps.xs)})
    assert {e: b for e, b in bt.entries.items() if not e[2]} == predicted_intersect_column_0(
        ell, n, t)


@pytest.mark.parametrize("ps", [
    # three fibers of two points in P^1 x P^2, r_x = 2
    fibered_633(),
    # six generic points in P^1 x P^2, r_x = 5
    random_points(1, 2, 6, seed=1, require_generic=True),
    # a grid of three x-parts by two y-parts in P^1 x P^1, r_x = 2
    grid_set(P, [(0,), (1,), (4,)], [(2,), (7,)]),
])
def test_p1_column_0_evaluates_no_monomial(monkeypatch, ps):
    # on P^1, I_(π1 X) is principal of degree ell, so rho_1 is t at
    # t <= r_x = ell - 1 and ell past it (step (d) of The sequence route):
    # at no t >= 1 is a monomial evaluated or a map built below row t
    ell = len({*map(tuple, ps.xs)})

    def refused(ps, d):
        raise AssertionError(f"monomials of {d} evaluated")

    for t in range(1, ell + 2):
        window = betti.betti_box(ps, t)
        pres = intersected_presentation(ps, t, window)
        with monkeypatch.context() as mp:
            mp.setattr(betti, "evaluation_matrix", refused)
            bt = betti_numbers(pres)
        assert all(d[0] >= t for _, d in pres._maps)
        assert bt.entries == koszul_homology(
            intersected_presentation_in_full(ps, t, window)).entries
        assert {e: b for e, b in bt.entries.items() if not e[2]} == predicted_intersect_column_0(
            ell, 1, t)


@st.composite
def intersect_cases(draw):
    """A fibered, grid or shared-part set, t in [1, ell + 1], a kmax, and a
    window that may stop short of row t or of row t + n."""
    ps = draw(st.one_of(fibered_sets(), grid_sets(), shared_part_sets()))
    ry = function_space_bases(ps, (0, 0)).box[1]
    ell = len({*map(tuple, ps.xs)})
    t = draw(st.integers(1, ell + 1))
    wi = draw(st.integers(0, t + ps.n + 1))
    wj = draw(st.integers(0, ry + ps.m + 1))
    kmax = draw(st.one_of(st.none(), st.integers(0, ps.n + ps.m + 2)))
    return ps, t, (wi, wj), kmax


@settings(max_examples=80, deadline=None)
@given(intersect_cases())
@example((fibered_633(), 2, (5, 5), None))
@example((fibered_633(), 3, (4, 5), 2))
# windows that stop below row t, and between rows t and t + n
@example((random_points(2, 2, 4, seed=5, require_generic=True), 3, (2, 4), None))
@example((random_points(2, 2, 4, seed=5, require_generic=True), 3, (4, 4), None))
# P^3 x P^1 at t = r_x = 2, on the crossing's rank, and at t = 3 > r_x; and
# P^1 x P^3 at t = r_x = 3
@example((random_points(3, 1, 5, seed=1, require_generic=True), 2, (5, 5), None))
@example((random_points(3, 1, 5, seed=1, require_generic=True), 3, (6, 5), None))
@example((random_points(1, 3, 4, seed=1, require_generic=True), 3, (4, 4), None))
# below r_x, on the truncated strands: P^2 x P^1 at t = 2 < r_x = 3, with
# column 0 ranked on the crossing, and P^1 x P^2 at t = 2 < r_x = 5
@example((random_points(2, 1, 7, seed=2, require_generic=True), 2, (6, 4), None))
@example((random_points(2, 1, 7, seed=2, require_generic=True), 2, (3, 4), 2))
@example((random_points(1, 2, 6, seed=1, require_generic=True), 2, (6, 4), None))
def test_intersect_table_matches_all_ranks_oracle(case):
    """At every t >= 1 the table of S/J, from A' = <x>^t M and the column-0
    step, equals the one from every strand of S/J ranked over S."""
    ps, t, window, kmax = case
    pres = intersected_presentation(ps, t, window)
    want = koszul_homology(intersected_presentation_in_full(ps, t, window), kmax)
    assert betti_numbers(pres, kmax).entries == want.entries


class TestCollapseIdentity:
    def test_four_points(self):
        ps = random_points(1, 2, 4, seed=11)
        win = betti_window(4, 1, 2)
        bt = betti_numbers(point_presentation(ps, win))
        lhs = alternating_betti_from_hilbert(hilbert_matrix(ps, win), 1, 2)
        assert np.array_equal(lhs, signed_collapse(bt))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_collapse_identity_randomized(npts, seed):
    # alternating collapse of the table equals the difference transform
    # of the dimension matrix, cell by cell, for any point set
    ps = random_points(1, 1, npts, seed=seed, p=101)
    win = (3, 3)
    pres = point_presentation(ps, win)
    bt = betti_numbers(pres)
    lhs = alternating_betti_from_hilbert(hilbert_matrix(ps, win), 1, 1)
    assert np.array_equal(lhs, signed_collapse(bt))


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_beta1_routes_agree_randomized(npts, seed):
    ps = random_points(1, 2, npts, seed=seed)
    win = betti_window(npts, 1, 2)
    b1 = beta1_table(ps, win)
    for d, v in b1.items():
        assert beta1_from_ideal(ps, d) == v


@settings(max_examples=200, deadline=None)
@given(st.one_of(fibered_sets(primes=(7, 101, 32003, 67108859)), line_fibered_sets()),
       st.integers(0, 3), st.integers(0, 6), st.integers(0, 5),
       st.one_of(st.none(), st.integers(0, 5)))
@example(fibered_633(), 0, 7, 5, None)
@example(fibered_633(), 2, 5, 5, None)
# a factor with no variable left once z is dropped: y0 alone (m = 0), x0
# alone (n = 0)
@example(PointSet(1, 0, 101, np.array([[1, 3], [1, 5], [1, 9]]), np.ones((3, 1))), 2, 5, 4, None)
@example(PointSet(0, 1, 101, np.ones((3, 1)), np.array([[1, 3], [1, 5], [1, 9]])), 0, 5, 4, None)
# the intersect bench's generic (2,2) sets at t = ell - 1, and factor pairs
# it never runs
@example(random_points(2, 2, 4, seed=5, require_generic=True), 3, 7, 6, None)
@example(random_points(1, 3, 4, seed=4, require_generic=True), 1, 6, 5, None)
@example(random_points(1, 3, 4, seed=4, require_generic=True), 2, 6, 5, None)
@example(random_points(3, 1, 4, seed=4, require_generic=True), 1, 6, 5, None)
@example(random_points(3, 1, 4, seed=4, require_generic=True), 2, 6, 5, None)
# P^1 x P^m at t = 0, where rows i >= 1 come from the kernels of x1: three
# points of P^1 x P^3 that share an x-part and a y-part, and P^1 x P^0
@example(PointSet(1, 3, 5, np.array([[1, 0], [1, 0], [1, 2]]),
                  np.array([[1, 0, 1, 2], [1, 1, 2, 3], [1, 1, 2, 3]])), 0, 6, 5, 2)
@example(PointSet(1, 0, 7, np.array([[1, 3], [1, 5], [1, 6]]), np.ones((3, 1))), 0, 6, 2, 1)
def test_mod_z_presentation_matches_full_oracle(ps, t, wi, wj, kmax):
    """The strand over S/z gives the Betti table of the module over S."""
    got = betti_numbers(intersected_presentation(ps, t, (wi, wj)), kmax)
    want = koszul_homology(intersected_presentation_in_full(ps, t, (wi, wj)), kmax)
    assert got.entries == want.entries


@st.composite
def generic_sets(draw):
    """Generic sets of up to seven points over six factor pairs."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]))
    return random_points(n, m, draw(st.integers(1, 7)), seed=draw(st.integers(0, 10**6)),
                         p=draw(st.sampled_from([101, 32003])), require_generic=True)


@settings(max_examples=60, deadline=None)
@given(shared_part_sets())
@example(fibered_633())
@example(one_point())
def test_regularity_box_bounds_sweep_and_tables(ps):
    """Past the box (r_x, r_y) the sweep is constant, and no Betti number of
    S/I_X or of S/(I_X ∩ <x>^t) lies outside its Betti box, by the all-ranks
    oracle.  r_x and r_y are read from evaluation ranks, not the sweep."""
    n, m = ps.n, ps.m
    ell_x, ell_y = (len({*map(tuple, a)}) for a in (ps.xs, ps.ys))
    rx = next(i for i in range(ell_x) if rank(evaluation_matrix(ps, (i, 0)), ps.p) == ell_x)
    ry = next(j for j in range(ell_y) if rank(evaluation_matrix(ps, (0, j)), ps.p) == ell_y)
    fs = function_space_bases(ps, (rx + 2, ry + 2))
    assert fs.box == (rx, ry) and fs.dims.shape == (rx + 1, ry + 1)
    H = hilbert_matrix(ps, (rx + 2, ry + 2))
    for d in np.ndindex(H.shape):
        assert H[d] == rank(evaluation_matrix(ps, d), ps.p)
    for t in range(ell_x + 1):
        box = (max(t, rx) + n, ry + m)
        window = (box[0] + 1, box[1] + 1)
        assert intersected_presentation(ps, t, window).box == box
        bt = koszul_homology(intersected_presentation_in_full(ps, t, window))
        assert all(i <= box[0] and j <= box[1] for _, i, j in bt.entries)


@settings(max_examples=60, deadline=None)
@given(st.one_of(generic_sets(), shared_part_sets()), st.integers(0, 3),
       st.sampled_from([1, None]))
@example(fibered_633(), 0, None)
@example(fibered_633(), 2, 1)
# generic (1,2) and (2,1) sets whose column-1 and column-2 tails hold entries
@example(random_points(1, 2, 7, seed=1, require_generic=True), 0, None)
@example(random_points(1, 2, 7, seed=1, require_generic=True), 1, None)
@example(random_points(2, 1, 7, seed=2, require_generic=True), 0, 1)
# x-parts on a line of P^2: column 1 modulo x0 dies at row 4, column 0 at
# row 6, so rows 6 and 7 of columns 1 and 2 read only column 0
@example(collinear_x_parts(6), 0, None)
def test_engine_matches_all_ranks_oracle(ps, t, kmax):
    """Masks, truncated strands and the onto K_1 -> K_0 give the table of
    every strand of the module over S ranked, on a window one past the
    Betti box."""
    rx, ry = function_space_bases(ps, (0, 0)).box
    window = (max(t, rx) + ps.n + 1, ry + ps.m + 1)
    want = koszul_homology(intersected_presentation_in_full(ps, t, window), kmax)
    assert betti_numbers(intersected_presentation(ps, t, window), kmax).entries == want.entries
