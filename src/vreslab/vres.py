"""Construction and checking of short virtual resolutions of point sets.

Two routes produce a short free complex from the ideal of a point set:

* resolving S/(I intersect <x>^t): for t at least ell - 1 (ell = number
  of distinct x-parts) the minimal resolution of the intersected
  quotient already has length n + m, and
* trimming the minimal resolution of S/I itself at a degree d where the
  Hilbert value has stabilized at N, keeping only the free summands
  generated in degree at most d + (n, m).

The Koszul engine certifies Betti NUMBERS, not differentials, so
virtuality here is certified by the construction plus the Euler
quadrant necessary check, never by computing homology of explicit maps.
"""

import json
from dataclasses import dataclass, field

from .betti import (
    DirtyBoundary,
    betti_numbers,
    intersected_presentation,
    mrc_window,
    pdim,
    point_presentation,
)
from .cox import t_binom
from .diffcalc import NTooSmall, dh_p1p2
from .points import (
    WindowTooSmall,
    function_space_bases,
    hilbert_matrix,
    is_generic_hilbert,
    min_cover_degree,
    pi1_fibers,
)


class NotInRegularity(Exception):
    """Trim degree lacks a regularity certificate."""


@dataclass
class RegWitness:
    """Certificate that H(d) was measured; d is regular iff value == N."""

    d: tuple
    value: int
    N: int

    @property
    def ok(self) -> bool:
        return self.value == self.N


def regularity_contains(ps, d) -> RegWitness:
    """Measure H(d), read from the point set's function-space sweep."""
    if d[0] < 0 or d[1] < 0:
        raise ValueError("degree must be componentwise nonnegative")
    d = tuple(d)
    value = function_space_bases(ps, d).dims[d]
    return RegWitness(d, int(value), ps.N)


@dataclass
class FreeComplexShape:
    """Stages of a free complex: twist -> multiplicity, no differentials.

    Stage comparison is multiset semantics; display order inside a
    stage is ascending (i, j).
    """

    stages: tuple

    @property
    def length(self) -> int:
        return len(self.stages) - 1

    def max_twist(self):
        mi = mj = 0
        for stage in self.stages:
            for (i, j) in stage:
                mi = max(mi, i)
                mj = max(mj, j)
        return (mi, mj)

    def total_by_stage(self):
        return tuple(sum(stage.values()) for stage in self.stages)

    def to_json(self) -> str:
        rows = [[{"i": i, "j": j, "mult": c}
                 for (i, j), c in sorted(stage.items())]
                for stage in self.stages]
        return json.dumps({"stages": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FreeComplexShape":
        data = json.loads(text)
        return cls(tuple({(r["i"], r["j"]): r["mult"] for r in stage}
                         for stage in data["stages"]))

    @classmethod
    def from_betti(cls, bt, limit=None) -> "FreeComplexShape":
        """Stages of the table, or of its twists at most ``limit`` if given."""
        by_stage = {}
        for (k, i, j), b in bt.entries.items():
            if limit is None or (i <= limit[0] and j <= limit[1]):
                by_stage.setdefault(k, {})[(i, j)] = b
        if not by_stage:
            return cls(())
        kmax = max(by_stage)
        return cls(tuple(dict(sorted(by_stage.get(k, {}).items()))
                         for k in range(kmax + 1)))

    def pretty(self) -> str:
        if not self.stages:
            return "0"
        parts = []
        for k, stage in enumerate(self.stages):
            if k == 0 and stage == {(0, 0): 1}:
                parts.append("S")
                continue
            terms = []
            for (i, j), c in sorted(stage.items()):
                term = "S(%d,%d)" % (-i, -j)
                terms.append(term if c == 1 else term + "^%d" % c)
            parts.append(" + ".join(terms) if terms else "0")
        return "\n  <- ".join(parts + ["0"])


def virtual_of_pair(bt, d, n=None, m=None, witness=None) -> FreeComplexShape:
    """Keep the summands of the table generated in degree <= d + (n, m).

    The trim is exact whenever the kept region lies inside the computed
    window; a table with boundary entries is rejected only if the kept
    region also extends past the window.
    """
    n = bt.n if n is None else n
    m = bt.m if m is None else m
    if witness is not None and not witness.ok:
        raise NotInRegularity("H(%s) = %d but N = %d"
                              % (witness.d, witness.value, witness.N))
    lim = (d[0] + n, d[1] + m)
    if not bt.boundary_clean and (lim[0] > bt.window[0] or lim[1] > bt.window[1]):
        raise DirtyBoundary("kept region exceeds a window with boundary entries")
    return FreeComplexShape.from_betti(bt, limit=lim)


def pair_vres(ps, d, window=None) -> FreeComplexShape:
    """Trimmed-resolution route: certify d, then trim the Betti table.

    Only the strip of twists below d + (n, m) is ever resolved; the
    Koszul strand at a degree references pieces at most that degree, so
    a window equal to the kept region suffices for an exact trim, and a
    window that does not cover it raises WindowTooSmall.
    """
    wit = regularity_contains(ps, d)
    if not wit.ok:
        raise NotInRegularity("H(%s) = %d but N = %d" % (wit.d, wit.value, wit.N))
    region = (d[0] + ps.n, d[1] + ps.m)
    if window is None:
        window = region
    elif window[0] < region[0] or window[1] < region[1]:
        raise WindowTooSmall("window %s does not cover d + (n, m) = %s"
                             % (tuple(window), region))
    pres = point_presentation(ps, window)
    bt = betti_numbers(pres, region=region)
    return virtual_of_pair(bt, d, ps.n, ps.m, witness=wit)


def intersect_window(N, t, n, m):
    """Default window for resolving S/(I intersect <x>^t) for N points."""
    return (max(N, t) + n + 1, max(min_cover_degree(N, m), m) + m + 2)


def intersect_vres(ps, t, window=None):
    """Resolve S/(I intersect <x>^t); return (table, length).

    For t >= ell - 1, and also for generic sets once t covers N in the
    x-direction, the resulting length must equal n + m; that contract
    is asserted here.  A table with boundary entries raises
    DirtyBoundary: enlarge the window.  A window below row t holds only
    free pieces and raises WindowTooSmall.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    N = ps.N
    if window is None:
        window = intersect_window(N, t, ps.n, ps.m)
    elif window[0] < t:
        raise WindowTooSmall("window %s ends below row t = %d, where every "
                             "piece is free" % (tuple(window), t))
    pres = intersected_presentation(ps, t, window)
    bt = betti_numbers(pres)
    length = pdim(bt)
    ell = pi1_fibers(ps).ell
    bound_ok = (t >= ell - 1
                or (t >= min_cover_degree(N, ps.n) and is_generic_hilbert(ps)))
    if bound_ok and length != ps.n + ps.m:
        raise AssertionError("length %d != %d with t = %d certified"
                             % (length, ps.n + ps.m, t))
    return bt, length


# trimmed-at-(N-1,0) stage tables for 2 <= N <= 11, ground truth for
# the closed form below which only starts at N = 12
_SMALL_PAIR_STAGES = {
    2: ({(0, 1): 1, (0, 2): 1, (1, 1): 2, (2, 0): 1},
        {(1, 2): 4, (2, 1): 3},
        {(2, 2): 3}),
    3: ({(0, 2): 3, (1, 1): 3, (3, 0): 1},
        {(1, 2): 6, (3, 1): 3},
        {(3, 2): 3}),
    4: ({(0, 2): 2, (1, 1): 2, (2, 1): 1, (4, 0): 1},
        {(1, 2): 2, (2, 2): 3, (4, 1): 3},
        {(4, 2): 3}),
    5: ({(0, 2): 1, (1, 1): 1, (1, 2): 2, (2, 1): 2, (5, 0): 1},
        {(2, 2): 6, (5, 1): 3},
        {(5, 2): 3}),
    6: ({(1, 2): 6, (2, 1): 3, (6, 0): 1},
        {(2, 2): 9, (6, 1): 3},
        {(6, 2): 3}),
    7: ({(1, 2): 5, (2, 1): 2, (3, 1): 1, (7, 0): 1},
        {(2, 2): 5, (3, 2): 3, (7, 1): 3},
        {(7, 2): 3}),
    8: ({(1, 2): 4, (2, 1): 1, (3, 1): 2, (8, 0): 1},
        {(2, 2): 1, (3, 2): 6, (8, 1): 3},
        {(8, 2): 3}),
    9: ({(1, 2): 3, (2, 2): 3, (3, 1): 3, (9, 0): 1},
        {(3, 2): 9, (9, 1): 3},
        {(9, 2): 3}),
    10: ({(1, 2): 2, (2, 2): 4, (3, 1): 2, (4, 1): 1, (10, 0): 1},
         {(3, 2): 6, (4, 2): 3, (10, 1): 3},
         {(10, 2): 3}),
    11: ({(1, 2): 1, (2, 2): 5, (3, 1): 1, (4, 1): 2, (11, 0): 1},
         {(3, 2): 3, (4, 2): 6, (11, 1): 3},
         {(11, 2): 3}),
}


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

    N >= 12 uses the arithmetic of N mod 6 and N mod 3; smaller N use
    the stored stage tables.
    """
    if N < 2:
        raise NTooSmall("closed-form shapes start at N = 2")
    if N <= 11:
        s1, s2, s3 = _SMALL_PAIR_STAGES[N]
        return FreeComplexShape(({(0, 0): 1}, dict(s1), dict(s2), dict(s3)))
    q, r = divmod(N, 6)
    q2, r2 = divmod(N, 3)
    stage1 = {(q, 2): 6 - r, (q + 1, 2): r,
              (q2, 1): 3 - r2, (q2 + 1, 1): r2, (N, 0): 1}
    stage2 = {(q2, 2): 9 - 3 * r2, (q2 + 1, 2): 3 * r2, (N, 1): 3}
    stage3 = {(N, 2): 3}
    return FreeComplexShape(tuple(
        {tw: c for tw, c in sorted(stage.items()) if c > 0}
        for stage in ({(0, 0): 1}, stage1, stage2, stage3)))


def euler_quadrant_check(shape, N, n, m, c=None, probe=None) -> bool:
    """Necessary condition for a shape to resolve N points up to torsion.

    Deep in the quadrant the alternating sum of stage piece dimensions
    must be exactly N.  Beyond the max twist the sum is a polynomial in
    (i, j), so agreement on a 3x3 grid past c pins it; this is
    necessary, not sufficient.
    """
    mi, mj = shape.max_twist()
    if c is None:
        c = (mi + 1, mj + 1)
    if c[0] <= mi or c[1] <= mj:
        raise ValueError("probe corner must lie beyond the max twist")
    if probe is None:
        probe = (c[0] + 2, c[1] + 2)
    if probe[0] < c[0] or probe[1] < c[1]:
        raise ValueError("probe window must contain c")
    for i in range(c[0], probe[0] + 1):
        for j in range(c[1], probe[1] + 1):
            total = 0
            for k, stage in enumerate(shape.stages):
                sign = -1 if k % 2 else 1
                for (p, q), mult in stage.items():
                    total += sign * mult * t_binom(i - p, n) * t_binom(j - q, m)
            if total != N:
                return False
    return True


@dataclass
class Beta2Row:
    i: int
    j: int
    dh: int
    beta2: int
    zeros_ok: bool

    @property
    def ok(self) -> bool:
        return self.zeros_ok and self.beta2 == self.dh


@dataclass
class Beta2Report:
    passed: bool
    rows: list = field(default_factory=list)


def beta2_first_positive_check(ps, window=None) -> Beta2Report:
    """Rows i >= 2: the first positive difference entry must equal beta_2.

    For each row of the difference matrix whose first positive entry
    sits at column j, checks beta_2(i, j) equals that entry and the
    earlier columns of the row carry no beta_2.
    """
    if (ps.n, ps.m) != (1, 2):
        raise ValueError("row check is specific to the (1, 2) case")
    if window is None:
        window = mrc_window(ps.N)
    dh = dh_p1p2(hilbert_matrix(ps, window)).values
    bt = betti_numbers(point_presentation(ps, window), kmax=2)
    rows = []
    for i in range(2, window[0] + 1):
        positive = [j for j in range(window[1] + 1) if dh[i, j] > 0]
        if not positive:
            continue
        j0 = positive[0]
        zeros_ok = all(bt.beta(2, i, jp) == 0 for jp in range(j0))
        rows.append(Beta2Row(i, j0, int(dh[i, j0]), bt.beta(2, i, j0), zeros_ok))
    return Beta2Report(all(r.ok for r in rows), rows)
