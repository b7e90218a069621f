"""Construction and checking of short virtual resolutions of point sets.

Two routes produce a short free complex from the ideal of a point set:

* resolving S/(I intersect <x>^t): once t >= r for r the least i with
  H_X(i, 0) = ell (ell = number of distinct x-parts; r is the r_x of the
  sweep's box in ``points``), the minimal resolution of the intersected
  quotient has length n + m when m >= 1 (proved below), and
* trimming the minimal resolution of S/I itself at a degree d where the
  Hilbert value H(d) has reached N, keeping only the free summands
  generated in degree at most d + (n, m).  Those summands are the Betti
  numbers at twists inside the region d + (n, m), so the trim is the
  Betti table of the presentation on exactly that window.

The length bound.  Let X be the points, A = S/I_X, P_1..P_ell the
distinct x-parts (normalized, x0 = 1) and J = I_X ∩ <x>^t with
t >= max(r, 1) and m >= 1.  Then pd S/J = n + m:

(a) <x>^t is spanned by the monomials of x-degree at least t, so
    <x>^t / J = (<x>^t + I_X) / I_X is A_{rows >= t}, the pieces of A in
    rows i >= t, and 0 -> A_{rows >= t} -> S/J -> S/<x>^t -> 0 is exact.
    <x>^t is extended from k[x0..xn], where a power of the maximal ideal
    has a linear resolution of length n (Eagon and Northcott), so
    pd S/<x>^t = n + 1, which is at most n + m because m >= 1, and
    pd S/J <= max(pd A_{rows >= t}, n + m).  Without m >= 1 the bound
    fails: on P^1 x P^0 with t > ell, J = F * <x>^(t - ell) for F the
    product of one linear form through each x-part, and S/J has length
    2 > n + m, so ``intersect_vres`` refuses m = 0.  On P^0 x P^m, <x0>^t
    is principal, of pd 1 <= m.
(b) An x-form takes the same value at points with the same x-part, and
    for i >= r, H_X(i, 0) = ell says k[x]_i maps onto the functions on
    the ell x-parts: there is e_k in k[x]_i with e_k(P_l) = 1 if l = k
    and 0 otherwise.  Let V_(i,j) be the evaluation image of S_(i,j) in
    k^N and V^k_j that of k[y]_j on the points of fiber k.  Restricting
    f in S_(i,j) to fiber k gives f(P_k, y), in V^k_j, and e_k * g for
    g in k[y]_j gives g on fiber k and 0 elsewhere, so
    V_(i,j) = ⊕_k V^k_j for i >= r.  On the k-th summand y acts as on
    fiber k's y-parts and x_v as the scalar x_v(P_k), so
    A_{rows >= t} ≅ ⊕_k L_k(-t) ⊗ C_k, with L_k = k[x]/I_{P_k} the
    coordinate ring of the k-th x-part and C_k that of its fiber's
    y-parts.
(c) x0 is 1 at P_k and y0 is 1 at every y-part of fiber k, so x0 is a
    nonzerodivisor on L_k and y0 on C_k; as L_k ⊗ C_k is a tensor
    product over the field, x0, y0 is a regular sequence on each
    summand.  Its depth is at least 2, and by Auslander-Buchsbaum
    pd A_{rows >= t} <= n + m.
(d) The prime of each point contains I_X but not x0, so it does not
    contain <x>^t; localized there J is I_X, and the prime, minimal over
    I_X, is associated to S/J.  Its quotient has dimension 2, so
    depth S/J <= 2 and pd S/J >= n + m.
(e) At every t >= 1, rows past t + n are those of A:
    beta_{k,(i,j)}(S/J) = beta_{k,(i,j)}(A) for i >= t + n + 1.  Let
    A' = A_{rows >= t} and A_{<t} = S/(I_X + <x>^t) = A/A', whose pieces
    lie in rows below t.  A Koszul strand over S at (i, j) reads the
    pieces at (i - a, j - b), a <= n + 1 the number of x-variables in
    the subset, so for i >= t + n + 1 every summand of A_{<t}'s strand is
    zero: every Betti number of A_{<t} lies in rows <= t + n.  The long
    exact Tor sequence of 0 -> A' -> A -> A_{<t} -> 0 then gives
    Tor_k(A')_d = Tor_k(A)_d in those rows.  By the sequence of (a), S/J
    has the table of A' off column 0, and in column 0 they differ only at
    the origin and in rows t..t+n (The sequence route of the ``betti``
    docstring), so past row t + n S/J has A's table.  A's Betti box ends
    at row r + n, so these rows hold entries only at t < r.
(f) At every t >= 1 with m >= 1, S/J has no beta_{n+m+1} in rows
    i <= t + n.  y0 is a nonzerodivisor on S/J (y0*g in I_X forces g in
    I_X, and y0*g in <x>^t forces g in <x>^t), so S/J and A' have the
    tables of their quotients by y0 over R = k[x0..xn, y1..ym], n + m + 1
    variables, and pd S/J <= n + m + 1.  The top term of A''s Koszul strand
    over R at (i, j) is the one piece A'_(i-n-1, j-m), zero below row t,
    so beta_{n+m+1,(i,j)}(A') = 0 for i <= t + n.  S/J has A''s table
    but at the origin and in rows t..t+n of column 0, where the column-0
    step of the ``betti`` docstring writes only beta_a and beta_(a+1)
    with a + 1 <= n + 1 < n + m + 1.  With (d) and (e): S/J has length
    n + m exactly when S/I_X has no beta_{n+m+1} in a row i >= t + n + 1,
    which at t >= r holds for every X.

The sequence of (a) gives more than the length: ``betti_numbers`` reads
the whole Betti table off it at every t >= 1, from the table of
A_{rows >= t} and one column-0 step.  At t >= max(r, 1) the splitting of
(b) gives that table from the strands of row t over y1..ym; below r, on
P^1, the row split gives it from row t and the kernels of x1 modulo x0;
column 0 is a closed form at t > r and on P^1, and takes one rank per
row t + a at t <= r with n >= 2 (proof in The sequence route of the
``betti`` module docstring).

Both earlier sufficient conditions are cases of t >= r.  The ell
x-parts impose independent conditions on x-forms of degree ell - 1 (a
product of linear forms, one through each other x-part), so
r <= ell - 1 always, with equality for n = 1, where H_X(i, 0) is
min(i + 1, ell).  For a set with the generic Hilbert matrix,
H_X(i, 0) = min(N, dim k[x]_i), so ell = N and r is
``min_cover_degree(N, n)``.

The Koszul engine certifies Betti NUMBERS, not differentials, so
virtuality here is certified by the construction plus the Euler
quadrant necessary check, never by computing homology of explicit maps.
The trimmed shapes are compared with the closed form of
``predicted_pair_shape``, one formula for every N >= 2; reading beta_2
off the difference matrix is a test oracle, not part of the module.
"""

import json
from dataclasses import dataclass

from .betti import (
    WindowTooSmall,
    betti_box,
    betti_numbers,
    intersected_presentation,
    pdim,
    point_presentation,
)
from .cox import count_monomials
from .points import function_space_bases, min_cover_degree


class NotInRegularity(Exception):
    """Trim degree lacks a regularity certificate."""


class NTooSmall(Exception):
    """Raised when a closed form is only valid for larger point counts."""


def regularity_contains(ps, d) -> int:
    """H(d), read from the point set's sweep through the clamp: the last
    cell of the box-cut block on the window d is d's clamped cell.  d is
    regular iff it is N."""
    if d[0] < 0 or d[1] < 0:
        raise ValueError("degree must be componentwise nonnegative")
    return int(function_space_bases(ps, tuple(d)).dims[-1, -1])


@dataclass
class FreeComplexShape:
    """Stages of a free complex: twist -> multiplicity, no differentials.

    Stage comparison is multiset semantics; display order inside a
    stage is ascending (i, j).
    """

    stages: tuple

    def max_twist(self):
        mi = mj = 0
        for stage in self.stages:
            for (i, j) in stage:
                mi = max(mi, i)
                mj = max(mj, j)
        return (mi, mj)

    def to_json(self) -> str:
        rows = [[{"i": i, "j": j, "mult": c}
                 for (i, j), c in sorted(stage.items())]
                for stage in self.stages]
        return json.dumps({"stages": rows}, sort_keys=True)

    @classmethod
    def from_betti(cls, bt) -> "FreeComplexShape":
        """The table's stages, k = 0 up to its top stage."""
        by_stage = {}
        for (k, i, j), b in bt.entries.items():
            by_stage.setdefault(k, {})[(i, j)] = b
        if not by_stage:
            return cls(())
        kmax = max(by_stage)
        return cls(tuple(dict(sorted(by_stage.get(k, {}).items()))
                         for k in range(kmax + 1)))


def pair_vres(ps, d) -> FreeComplexShape:
    """Trimmed-resolution route: certify d, then resolve the kept region.

    The summands of twist at most d + (n, m) are the Betti numbers on the
    window d + (n, m), and the strand at a twist reads only pieces at
    degrees at most that twist, so the presentation on exactly that window
    gives the trim.
    """
    value = regularity_contains(ps, d)
    if value != ps.N:
        raise NotInRegularity("H(%s) = %d but N = %d" % (tuple(d), value, ps.N))
    window = (d[0] + ps.n, d[1] + ps.m)
    return FreeComplexShape.from_betti(betti_numbers(point_presentation(ps, window)))


def intersect_window(ps, t):
    """Default window for resolving S/(I intersect <x>^t): the one N fixes,
    widened where needed to the Betti box, which special sets (collinear
    y-parts, say) push past it."""
    N, n, m = ps.N, ps.n, ps.m
    window = (max(N, t) + n + 1, max(min_cover_degree(N, m), m) + m + 2)
    return tuple(max(w, b) for w, b in zip(window, betti_box(ps, t)))


def intersect_vres(ps, t, window=None):
    """Resolve S/(I intersect <x>^t); return (table, length).

    The window must contain the presentation's Betti box (see ``betti``),
    which makes the table the whole minimal resolution's; one that misses
    it raises WindowTooSmall before any rank.  Once t >= r, the least i
    with H_X(i, 0) = ell, the number of distinct x-parts, the length is
    n + m (see the module docstring); that contract is asserted here.  It
    needs m >= 1 (step (a)), so a set on P^n x P^0 raises ValueError before
    any window or sweep.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if ps.m < 1:
        raise ValueError("the intersect route needs m >= 1: on P^n x P^0 "
                         "pd S/<x>^t = n + 1 exceeds n + m")
    if window is None:
        window = intersect_window(ps, t)
    pres = intersected_presentation(ps, t, window)
    if not pres.complete:
        raise WindowTooSmall("window %s misses the Betti box %s at t = %d"
                             % (tuple(window), pres.box, t))
    bt = betti_numbers(pres)
    length = pdim(bt)
    # t >= r, the row corner of the sweep's box, exactly when the Betti
    # box's row corner max(t, r) + n is t + n
    if pres.box[0] == t + ps.n and length != ps.n + ps.m:
        raise AssertionError("length %d != %d with t = %d certified"
                             % (length, ps.n + ps.m, t))
    return bt, length


# regression target: 31 generic points trimmed at (2, 4); seed-independent
# (second seeds reproduce it even though the untrimmed table varies)
REFERENCE_TRIM_31 = FreeComplexShape((
    {(0, 0): 1},
    {(1, 5): 11, (2, 4): 14, (3, 3): 9},
    {(1, 6): 8, (2, 5): 32, (3, 4): 26},
    {(2, 6): 15, (3, 5): 24},
    {(3, 6): 6},
))


def predicted_pair_shape(N: int) -> FreeComplexShape:
    """Closed-form trimmed shape at d = (N-1, 0) for generic points.

    The twists follow from N = 6q + r = 3q2 + r2.  Stages 1 and 2 share a
    twist only when q and q2 overlap, which takes q <= 1, so N < 12; each
    shared twist then keeps only its excess, in the stage that has more.
    This reproduces the computed tables for N = 2..11 that the tests hold.
    """
    if N < 2:
        raise NTooSmall("closed-form shapes start at N = 2")
    q, r = divmod(N, 6)
    q2, r2 = divmod(N, 3)
    stage1 = {(q, 2): 6 - r, (q + 1, 2): r,
              (q2, 1): 3 - r2, (q2 + 1, 1): r2, (N, 0): 1}
    stage2 = {(q2, 2): 9 - 3 * r2, (q2 + 1, 2): 3 * r2, (N, 1): 3}
    for tw in stage1.keys() & stage2.keys():
        shared = min(stage1[tw], stage2[tw])
        stage1[tw] -= shared
        stage2[tw] -= shared
    stage3 = {(N, 2): 3}
    return FreeComplexShape(tuple(
        {tw: c for tw, c in sorted(stage.items()) if c > 0}
        for stage in ({(0, 0): 1}, stage1, stage2, stage3)))


def euler_quadrant_check(shape, N, n, m) -> bool:
    """Necessary condition for a shape to resolve N points up to torsion.

    Deep in the quadrant the alternating sum of stage piece dimensions
    must be exactly N.  Beyond the max twist the sum is a polynomial in
    (i, j), so agreement on the 3x3 grid just past the max twist pins
    it; this is necessary, not sufficient.
    """
    mi, mj = shape.max_twist()
    for i in range(mi + 1, mi + 4):
        for j in range(mj + 1, mj + 4):
            total = 0
            for k, stage in enumerate(shape.stages):
                sign = -1 if k % 2 else 1
                for (p, q), mult in stage.items():
                    total += sign * mult * count_monomials(n, m, (i - p, j - q))
            if total != N:
                return False
    return True
