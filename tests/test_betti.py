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
    DirtyBoundary,
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
from vreslab.fp import subspace_equal
from vreslab.points import PointSet, hilbert_matrix, ideal_piece, random_points

from conftest import fibered_633, fibered_sets
from oracles import (
    ClosureViolated,
    beta1_from_ideal,
    beta1_table,
    betti_entry,
    betti_total_by_stage,
    ideal_pieces_from_generators,
    intersected_presentation_in_full,
    monomial_row,
    quotient_presentation,
    signed_collapse,
)

P = 32003


def one_point():
    return PointSet(1, 2, P, np.array([[1, 4]]), np.array([[1, 7, 9]]))


def honest_betti(pres):
    """The table with the skip mask off: every cell builds its strand."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti, "_live_cells", lambda pres, kmax: np.ones_like(pres.dims, dtype=bool))
        return betti_numbers(pres)


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
        bt = honest_betti(pres)
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
    # the library, skip certificate on and off, against the presentation
    # on all n+m+2 variables with no quotient by z, certificate off

    @staticmethod
    def assert_matches_oracle(ps, t, window):
        pres = intersected_presentation(ps, t, window)
        want = honest_betti(intersected_presentation_in_full(ps, t, window))
        assert betti_numbers(pres).entries == want.entries
        assert honest_betti(pres).entries == want.entries

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

    def test_json_roundtrip(self):
        bt = betti_numbers(point_presentation(one_point(), (3, 4)))
        back = BettiTable.from_json(bt.to_json())
        assert back.entries == bt.entries
        assert back.window == bt.window
        assert back.kmax == bt.kmax
        assert back.boundary_clean == bt.boundary_clean
        assert (back.n, back.m) == (bt.n, bt.m)

    def test_dirty_boundary_blocks_pdim(self):
        bt = betti_numbers(point_presentation(one_point(), (1, 2)))
        assert not bt.boundary_clean
        with pytest.raises(DirtyBoundary):
            pdim(bt)


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
@given(fibered_sets(primes=(7, 101, 32003, 67108859)), st.integers(0, 3),
       st.integers(0, 6), st.integers(0, 5))
@example(fibered_633(), 0, 7, 5)
@example(fibered_633(), 2, 5, 5)
# a factor with no variable left once z is dropped: y0 alone (m = 0), x0
# alone (n = 0)
@example(PointSet(1, 0, 101, np.array([[1, 3], [1, 5], [1, 9]]), np.ones((3, 1))), 2, 5, 4)
@example(PointSet(0, 1, 101, np.ones((3, 1)), np.array([[1, 3], [1, 5], [1, 9]])), 0, 5, 4)
# the intersect bench's generic (2,2) sets at t = ell - 1, and factor pairs
# it never runs
@example(random_points(2, 2, 4, seed=5, require_generic=True), 3, 7, 6)
@example(random_points(1, 3, 4, seed=4, require_generic=True), 1, 6, 5)
@example(random_points(1, 3, 4, seed=4, require_generic=True), 2, 6, 5)
@example(random_points(3, 1, 4, seed=4, require_generic=True), 1, 6, 5)
@example(random_points(3, 1, 4, seed=4, require_generic=True), 2, 6, 5)
def test_mod_z_presentation_matches_full_oracle(ps, t, wi, wj):
    """The strand over S/z gives the Betti table of the module over S."""
    got = betti_numbers(intersected_presentation(ps, t, (wi, wj)))
    want = honest_betti(intersected_presentation_in_full(ps, t, (wi, wj)))
    assert got.entries == want.entries
