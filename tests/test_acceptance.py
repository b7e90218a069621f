"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its runtime budget where one is declared.
All comparisons are exact integer equality, no tolerances anywhere.
"""

import time
from math import comb

import numpy as np

from vreslab.betti import betti_numbers, betti_window, mrc_check, point_presentation
from vreslab.cli import derive_seed
from vreslab.cox import monomials
from vreslab.diffcalc import alternating_betti_from_hilbert, dh_p1p2
from vreslab.fp import kernel_basis, rank, rref
from vreslab.points import (
    decomposition_check,
    generic_hilbert_matrix,
    hilbert_matrix,
    random_points,
    regularity_box,
)
from vreslab.vres import (
    REFERENCE_TRIM_31,
    euler_quadrant_check,
    intersect_vres,
    pair_vres,
    predicted_pair_shape,
)

from oracles import (
    betti_entry,
    hilbert_from_betti,
    ideal_pieces_from_generators,
    monomial_row,
    predicted_dh_generic,
    predicted_intersect_column_0,
    predicted_intersect_off_column_0,
    quotient_presentation,
    signed_collapse,
    stored_pair_shape,
    total_by_stage,
)

P = 32003


def report(num, ok, elapsed, detail):
    verdict = "PASS" if ok else "FAIL"
    print("[criterion %d] %s (%.1fs) %s" % (num, verdict, elapsed, detail),
          flush=True)


def test_criterion_1_stored_small_tables():
    # trimmed shape at (N-1, 0) must equal the stored tables for N = 2..11
    started = time.perf_counter()
    bad = []
    for N in range(2, 12):
        ps = random_points(1, 2, N, seed=derive_seed(1, "small", N),
                           require_generic=True)
        if pair_vres(ps, (N - 1, 0)) != stored_pair_shape(N):
            bad.append(N)
    elapsed = time.perf_counter() - started
    report(1, not bad and elapsed < 10, elapsed,
           "10 stored tables, mismatches: %s" % (bad or "none"))
    assert bad == []
    assert elapsed < 10


def test_criterion_2_closed_form_range():
    # five seeds per N in 12..40, trimmed shape == closed-form prediction,
    # and every shape passes the Euler quadrant check
    started = time.perf_counter()
    bad = []
    for N in range(12, 41):
        for trial in range(5):
            seed = derive_seed(2, N, trial)
            ps = random_points(1, 2, N, seed=seed, require_generic=True)
            shape = pair_vres(ps, (N - 1, 0))
            if shape != predicted_pair_shape(N):
                bad.append((N, trial))
            if not euler_quadrant_check(shape, N, 1, 2):
                bad.append((N, trial, "EulerQuadrant"))
    elapsed = time.perf_counter() - started
    report(2, not bad and elapsed < 120, elapsed,
           "145 point sets, mismatches or Euler failures: %s" % (bad or "none"))
    assert bad == []
    assert elapsed < 120


def test_criterion_3_thirty_one_point_trim():
    # the stored five-stage complex with stage totals (1, 34, 66, 39, 6);
    # the untrimmed table is checked at one forced cell to document that
    # the totals belong to the trimmed complex, not the full resolution
    started = time.perf_counter()
    ps = random_points(1, 2, 31, seed=20260814, require_generic=True)
    shape = pair_vres(ps, (2, 4))
    totals_ok = total_by_stage(shape) == (1, 34, 66, 39, 6)
    stages_ok = shape == REFERENCE_TRIM_31
    full = betti_numbers(point_presentation(ps, betti_window(31, 1, 2)))
    forced_ok = betti_entry(full, 1, 31, 0) == 1 and betti_entry(full, 1, 0, 7) == 5
    elapsed = time.perf_counter() - started
    ok = totals_ok and stages_ok and forced_ok and elapsed < 30
    report(3, ok, elapsed,
           "totals %s, stages %s, untrimmed sentinels %s"
           % (total_by_stage(shape), "match" if stages_ok else "DIFFER",
              "present" if forced_ok else "MISSING"))
    assert totals_ok and stages_ok and forced_ok
    assert elapsed < 30


def test_criterion_4_generator_prediction_trials():
    # 50 seeded generic sets at every N in 2..25: the generator layer must
    # match the prediction read off the difference matrix; genericity
    # rejections during sampling are counted and reported
    started = time.perf_counter()
    failures = []
    rejections = 0
    for N in range(2, 26):
        for trial in range(50):
            seed = derive_seed(7, N, trial)
            ps = random_points(1, 2, N, seed=seed, require_generic=True)
            rejections += ps.rejections
            rep = mrc_check(ps)
            if not rep.passed:
                failures.append((N, trial, rep.mismatches))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 300
    report(4, ok, elapsed,
           "1200 trials, %d resampled draws, failures: %s"
           % (rejections, failures or "none"))
    assert failures == []
    assert elapsed < 300


def test_criterion_5_collapse_identity():
    # alternating collapse of the Betti table == difference transform of
    # the dimension matrix, exactly, for 20 sets across three ambients
    started = time.perf_counter()
    cases = ([(1, 1, N, (4, 4)) for N in (1, 2, 3, 4, 6, 8, 10)]
             + [(1, 2, N, betti_window(N, 1, 2)) for N in (2, 3, 4, 5, 6, 8, 10)]
             + [(2, 1, N, (6, 6)) for N in (3, 5, 7, 8, 9, 10)])
    assert len(cases) == 20
    bad = []
    for idx, (n, m, N, win) in enumerate(cases):
        ps = random_points(n, m, N, seed=derive_seed(5, idx))
        bt = betti_numbers(point_presentation(ps, win))
        lhs = alternating_betti_from_hilbert(hilbert_matrix(ps, win), n, m)
        if not np.array_equal(lhs, signed_collapse(bt)):
            bad.append((n, m, N))
    elapsed = time.perf_counter() - started
    report(5, not bad, elapsed, "20 sets, mismatches: %s" % (bad or "none"))
    assert bad == []


def test_criterion_6_intersection_length():
    # resolving S/(I intersect <x>^t) at t = ell - 1 gives length n + m;
    # so must t = r = 2 < ell - 1 for 5 generic points in the
    # plane-times-line ambient; off column 0 every table is the closed
    # form N * C(n, a) * C(m, b) at (t + a, b), stage a + b; and column 0
    # is the closed form of rho_a wherever t > r_x or n = 1, every set but
    # the plane-times-line one, whose column 0 rests on a rank
    started = time.perf_counter()
    bad, closed = [], []

    def check(ps, t, window=None):
        bt, length = intersect_vres(ps, t, window=window)
        off = {key: b for key, b in bt.entries.items() if key[2]}
        column_0 = {key: b for key, b in bt.entries.items() if not key[2]}
        closed = t > regularity_box(ps)[0] or ps.n == 1
        if length != ps.n + ps.m or off != predicted_intersect_off_column_0(
                ps.N, ps.n, ps.m, t) or closed and column_0 != predicted_intersect_column_0(
                ps.N, ps.n, t):
            bad.append((ps.n, ps.m, ps.N, t, length))
        return closed

    for n, m, ns, windows in (
            (1, 1, range(2, 9), {}),
            (1, 2, range(2, 9), {}),
            # each window contains the Betti box (N + 1, r_y + 2), r_y = 2
            # for N = 4, 6 and 3 for N = 8
            (2, 2, (4, 6, 8), {4: (7, 4), 6: (9, 4), 8: (11, 5)})):
        for N in ns:
            ps = random_points(n, m, N, seed=derive_seed(6, n, m, N),
                               require_generic=True)
            closed.append(check(ps, N - 1, windows.get(N)))
    closed.append(check(random_points(2, 1, 5, seed=derive_seed(6, "cover"),
                                      require_generic=True), 2))
    elapsed = time.perf_counter() - started
    report(6, not bad, elapsed,
           "18 resolutions, %d with column 0 in closed form, wrong lengths or "
           "tables: %s" % (sum(closed), bad or "none"))
    assert bad == []
    assert closed == [True] * 17 + [False]


def test_criterion_7_degreewise_decomposition():
    # piecewise identity between the intersected ideal plus y0 and the
    # intersection of its per-fiber components, on window (ell + 3, 5):
    # it holds at t = N - 1 = r_x and fails at t = N - 2, as with one point
    # per fiber V(r_x, j) = k^N, so the identity along row N - 2 would keep
    # H(N - 2, j) = H(N - 2, 0) = N - 1 out to column r_y, where distinct
    # y-parts give N (r_y <= 3 for N <= 7, inside the window)
    started = time.perf_counter()
    bad = []
    count = 0
    for N in (3, 4, 5, 6, 7):
        for trial in range(2):
            ps = random_points(1, 2, N, seed=derive_seed(9, N, trial),
                               require_generic=True)
            count += 1
            if not decomposition_check(ps, N - 1, (N + 3, 5)):
                bad.append((N, trial, N - 1))
            if decomposition_check(ps, N - 2, (N + 3, 5)):
                bad.append((N, trial, N - 2))
    elapsed = time.perf_counter() - started
    report(7, not bad and count == 10, elapsed,
           "10 sets at t = N - 1 and N - 2, wrong answers: %s" % (bad or "none"))
    assert count == 10 and bad == []


def test_criterion_8_difference_closed_form():
    # pure integer identity between the closed-form difference table and
    # the transform of the generic dimension matrix, N = 12..200
    started = time.perf_counter()
    bad = []
    for N in range(12, 201):
        want = predicted_dh_generic(N)  # on its default window (N + 1, 2)
        got = dh_p1p2(generic_hilbert_matrix(N, 1, 2, (N + 1, 2)))
        if not np.array_equal(got, want):
            bad.append(N)
    elapsed = time.perf_counter() - started
    report(8, not bad and elapsed < 1, elapsed,
           "189 values of N, mismatches: %s" % (bad or "none"))
    assert bad == []
    assert elapsed < 1


def _expected_koszul(degrees):
    stages = []
    g = len(degrees)
    for k in range(g + 1):
        stage = {}
        for mask in range(1 << g):
            if bin(mask).count("1") != k:
                continue
            ti = sum(degrees[x][0] for x in range(g) if mask >> x & 1)
            tj = sum(degrees[x][1] for x in range(g) if mask >> x & 1)
            stage[(ti, tj)] = stage.get((ti, tj), 0) + 1
        stages.append(stage)
    return stages


def test_criterion_9_property_suites():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(20260814))

    # exact linear algebra: rank-nullity and projector idempotence
    linalg_bad = 0
    for _ in range(1000):
        p = int(rng.choice([2, 3, 5, 101, P]))
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        a = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
        if rank(a, p) + len(kernel_basis(a, p)) != cols:
            linalg_bad += 1
        r1, piv1 = rref(a, p)
        r2, piv2 = rref(r1, p)
        if not (np.array_equal(r1, r2) and np.array_equal(piv1, piv2)):
            linalg_bad += 1

    # difference calculus roundtrip on random sparse signed tables
    diff_bad = 0
    for _ in range(200):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        win = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        vals = np.zeros((win[0] + 1, win[1] + 1), dtype=np.int64)
        for _ in range(int(rng.integers(1, 6))):
            vals[rng.integers(0, win[0] + 1), rng.integers(0, win[1] + 1)] = \
                int(rng.integers(-5, 6))
        h = hilbert_from_betti(vals, n, m)
        if not np.array_equal(alternating_betti_from_hilbert(h, n, m), vals):
            diff_bad += 1

    # Koszul engine vs subset convolution on small complete intersections
    ci_bad = []
    for n, m in ((1, 1), (1, 2)):
        for a in (1, 2):
            for b_exp in (1, 2):
                for c_exp in (1, 2):
                    degrees = [(a, 0), (0, b_exp), (0, c_exp)]
                    gens = []
                    nm = n + m + 2
                    exp_x = [0] * nm
                    exp_x[0] = a
                    exp_y0 = [0] * nm
                    exp_y0[n + 1] = b_exp
                    exp_y1 = [0] * nm
                    exp_y1[n + 2] = c_exp
                    for deg, ex in zip(degrees,
                                       (tuple(exp_x), tuple(exp_y0), tuple(exp_y1))):
                        basis = monomials(n, m, deg)
                        row = np.zeros(len(basis), dtype=np.int64)
                        row[monomial_row(ex, n, m)] = 1
                        gens.append((deg, row))
                    window = (a + 1, b_exp + c_exp + 1)
                    pieces = ideal_pieces_from_generators(gens, n, m, P, window)
                    bt = betti_numbers(quotient_presentation(pieces, n, m, P, window))
                    expected = _expected_koszul(degrees)
                    got = [{} for _ in range(4)]
                    for (k, i, j), v in bt.entries.items():
                        got[k][(i, j)] = v
                    if got != expected:
                        ci_bad.append((n, m, a, b_exp, c_exp))
                    totals = tuple(sum(s.values()) for s in expected)
                    if totals != tuple(comb(3, k) for k in range(4)):
                        ci_bad.append(("totals", n, m, a, b_exp, c_exp))

    elapsed = time.perf_counter() - started
    ok = linalg_bad == 0 and diff_bad == 0 and not ci_bad
    report(9, ok, elapsed,
           "1000 matrices, 200 tables, 16 complete intersections; "
           "failures: linalg %d, diff %d, koszul %s"
           % (linalg_bad, diff_bad, ci_bad or "none"))
    assert linalg_bad == 0
    assert diff_bad == 0
    assert ci_bad == []
