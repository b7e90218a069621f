"""Bigraded Betti numbers of cyclic modules via windowed Koszul homology.

A presentation lists the ring variables that act on its module.  For a
piece grid M_(i,j) over them, the strand of the Koszul complex at
bidegree d has terms K_k = direct sum over k-subsets T of those variables
of M_(d - deg T); its homology dimensions are the Betti numbers
beta_{k,d}.  The strand at d reads only pieces at degrees at most d, so
the table of a presentation on a window is the restriction of the table
on any larger window; a caller that needs the Betti numbers on a region
presents the module on exactly that region.

The point-set presentations use one fact: if a variable z is a
nonzerodivisor on M, then beta^S_{k,d}(M) = beta^{S/z}_{k,d}(M/zM), and
S/z is the polynomial ring on the other n+m+1 variables.  So the point
modules are presented modulo z (x0 for S/I_X, y0 for S/(I_X ∩ <x>^t)
with t >= 1), with pieces of at most N dimensions, and each strand is
smaller than the one on all n+m+2 variables.  For t >= 1 that ring is
k[x0..xn, y1..ym], the Cox ring of P^n x P^(m-1), and the free rows
i < t of S/(I_X ∩ <x>^t) modulo y0 are its own pieces, acted on by its
index maps (``cox.mult_map`` at (n, m - 1)).  ``intersected_presentation``
is the one builder (``point_presentation`` is its t = 0 case); the tests
check the engine against presentations of S/J built from explicit ideal
generators in their own oracles.

Off column 0, the intersected presentation's strands keep only the
pieces in rows i >= t.  Let R = k[x0..xn, y1..ym] and M = R/J be
S/(I_X ∩ <x>^t) modulo y0.  J is bigraded and vanishes below row t, so
each of its forms has x-degree at least t and J lies in <x>^t; there is
a short exact sequence 0 -> <x>^t M -> M -> R/<x>^t -> 0.  R/<x>^t is extended from
k[x0..xn], where a power of the maximal ideal has a linear resolution
(Eagon and Northcott), so every twist in its resolution has y-degree 0,
and Tor^R_k(R/<x>^t)_d = 0 at d = (i, j) with j >= 1.  The long exact
sequence of Tor then gives Tor_k(M)_d = Tor_k(<x>^t M)_d there, and
<x>^t M is M's pieces in rows i >= t with zero below: its strand at d is
the sub-strand of M's on the summands whose piece lies in those rows.
So the large free pieces of R below row t, which carry no homology off
column 0, enter no rank.  ``GradedModulePresentation.free_rows`` is that
t; the point presentation (t = 0) and column 0 keep the full strands.

``betti_numbers`` decides in one mask over the window which cells need
a rank.  A cell whose strand has no nonzero summand in any K_k with
k <= kmax has no Betti number there.  Nor has a cell other than the
origin whose piece has the dimension of R's piece, for R the polynomial
ring on the presentation's variables: the module is R/J, R is a domain,
so J_d = 0 forces J_e = 0 at every e <= d, and the strand at d, which
reads only pieces at such e, is R's own strand, exact away from the
origin.  (That speaks of M's full strand, which has the homology of the
truncated one.)  The origin's strand gives beta_0 with no rank.

Bookkeeping that every cell would otherwise redo is computed once: each
k's variable subsets with their bidegrees per (variables, n, k), and,
inside one point-set presentation, the y0-free monomials of row t - 1
and the fresh pivots of each piece that its maps read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from .cox import count_monomials, monomials, mult_map, var_degree
from .diffcalc import dh_p1p2
from .fp import matmul, rank
from .points import (
    PointSet,
    evaluation_matrix,
    fresh_pivots,
    function_space_bases,
    generic_hilbert_matrix,
    hilbert_matrix,
    min_cover_degree,
)


class DirtyBoundary(Exception):
    """The window boundary carries entries, so global reads are unsafe."""


@dataclass
class GradedModulePresentation:
    """Finite window of pieces of a cyclic bigraded module with its maps.

    The module is generated in degree (0, 0) over the polynomial ring on
    ``variables``, the ring variables that act on it; the Koszul strands
    run over exactly these.  ``dims[i, j]`` is the dimension of the piece
    at (i, j).  ``map(var, d)`` returns the matrix of multiplication by a
    variable from the piece at d to the piece at d + deg(var), in the
    chosen bases (target dim x source dim); a map that sends each basis
    monomial to a basis monomial comes as ``cox.mult_map``'s index vector
    instead.  Maps are built lazily and memoized.
    """

    n: int
    m: int
    p: int
    window: tuple[int, int]
    dims: np.ndarray
    variables: tuple[int, ...]
    # rows i < free_rows hold R's own pieces; off column 0 the strands
    # read only the rows at or above it (see the module docstring)
    free_rows: int = 0
    _builder: object = field(default=None, repr=False)
    _maps: dict = field(default_factory=dict, repr=False)

    def dim(self, d: tuple[int, int]) -> int:
        i, j = d
        if i < 0 or j < 0:
            return 0
        if i > self.window[0] or j > self.window[1]:
            raise IndexError(f"piece {d} outside window {self.window}")
        return int(self.dims[i, j])

    def map(self, var: int, d: tuple[int, int]) -> np.ndarray:
        key = (var, d)
        if key not in self._maps:
            self._maps[key] = self._builder(var, d)
        return self._maps[key]


def point_presentation(ps: PointSet, window: tuple[int, int]) -> GradedModulePresentation:
    """S/I_X modulo x0 on the window: ``intersected_presentation`` at t = 0."""
    return intersected_presentation(ps, 0, window)


def intersected_presentation(ps: PointSet, t: int,
                             window: tuple[int, int]) -> GradedModulePresentation:
    """M/zM for M = S/(I_X ∩ <x>^t) on the window, over the variables but z.

    z is x0 for t = 0 and y0 for t >= 1.  Both are 1 at every point, so z*g
    in I_X forces g in I_X; and <x>^t is generated by monomials in x alone,
    so y0*g in <x>^t forces g in <x>^t.  Hence z is a nonzerodivisor on M
    and M/zM has the Betti numbers of M.  (x0 would not do for t >= 1: it
    kills x0^(t-1)*f when f in I_X has x-degree 0.)

    At rows i >= t, M_d is V_d, the evaluation image of S_d in k^N, and
    the piece is V_d / V_(d - deg z).  The smaller cell's RREF pivots are
    among V_d's, and the rows of V_d's RREF basis at the other pivots span
    a complement; a class's coordinates are the values, at those pivots,
    of any representative reduced modulo the smaller cell.  At rows i < t,
    M_d is S_d and the piece S_d / y0 S_(d - (0,1)) is R_d for
    R = k[x0..xn, y1..ym], the Cox ring of P^n x P^(m-1): the y0-free
    monomials of S_d, in S's order, are R's monomials in R's order, and a
    map inside these rows is R's index map.  A map from row t-1 into row t
    evaluates the y0-free source monomials times the variable, then
    reduces.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    fs = function_space_bases(ps, window)
    n, m, p = ps.n, ps.m, ps.p
    z = n + 1 if t else 0
    dz = var_degree(z, n, m)

    def below(d):
        lo = (d[0] - dz[0], d[1] - dz[1])
        return lo if min(lo) >= 0 else None

    @cache
    def y0_free(d):
        return np.flatnonzero(monomials(n, m, d)[:, n + 1] == 0)

    @cache
    def fresh(d):
        # which of V_d's pivots are not pivots of the cell below
        lo = below(d)
        if lo is None:
            return np.ones(len(fs.pivots[d]), dtype=bool)
        return fresh_pivots(fs.pivots[d], fs.pivots[lo], ps.N)

    def coordinates(funcs, d):
        # columns: the classes, in the piece at d, of the rows of funcs
        keep, lo = fs.pivots[d][fresh(d)], below(d)
        if lo is None:
            return funcs[:, keep].T
        reduced = funcs[:, keep] - matmul(funcs[:, fs.pivots[lo]], fs.bases[lo][:, keep], p)
        return (reduced % p).T

    def build(var: int, d: tuple[int, int]) -> np.ndarray:
        dv = var_degree(var, n, m)
        tgt = (d[0] + dv[0], d[1] + dv[1])
        if tgt[0] < t:
            # inside R: y_j of S is variable n + j of R
            return mult_map(var - (var > n), d, n, m - 1)
        if d[0] < t:
            funcs = evaluation_matrix(ps, d)[:, y0_free(d)].T
        else:
            funcs = fs.bases[d][fresh(d)]
        return coordinates(funcs * ps.coordinate_values(var) % p, tgt)

    wi, wj = window
    # z is a nonzerodivisor, so dim (M/zM)_d = H_M(d) - H_M(d - deg z); at
    # rows i >= t, H_M is the sweep's, and rows i < t are R's pieces
    dims = fs.dims.copy()
    dims[dz[0]:, dz[1]:] -= fs.dims[: wi + 1 - dz[0], : wj + 1 - dz[1]]
    for i in range(min(t, wi + 1)):
        for j in range(wj + 1):
            dims[i, j] = count_monomials(n, m - 1, (i, j))
    variables = tuple(v for v in range(n + m + 2) if v != z)
    return GradedModulePresentation(n, m, p, window, dims, variables, free_rows=t,
                                    _builder=build)


@dataclass
class BettiTable:
    """Sparse bigraded Betti numbers beta_{k,(i,j)} over a window."""

    n: int
    m: int
    window: tuple[int, int]
    entries: dict
    kmax: int
    boundary_clean: bool

    def layer(self, k: int) -> dict:
        return {(i, j): b for (kk, i, j), b in self.entries.items() if kk == k}

    def max_stage(self) -> int:
        return max((k for (k, _, _) in self.entries), default=0)

    def to_json(self) -> str:
        rows = [{"k": k, "i": i, "j": j, "beta": b}
                for (k, i, j), b in sorted(self.entries.items())]
        return json.dumps({"n": self.n, "m": self.m,
                           "window": list(self.window), "kmax": self.kmax,
                           "boundary_clean": self.boundary_clean,
                           "entries": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        data = json.loads(text)
        entries = {(r["k"], r["i"], r["j"]): r["beta"] for r in data["entries"]}
        return cls(data["n"], data["m"], tuple(data["window"]), entries,
                   data["kmax"], data["boundary_clean"])


@cache
def _subsets(variables: tuple[int, ...], n: int, k: int) -> tuple:
    """The k-subsets of the variables in lex order, each with its bidegree."""
    out = []
    for T in combinations(variables, k):
        a = sum(1 for v in T if v <= n)
        out.append((T, (a, k - a)))
    return tuple(out)


def _strand_snapshot(pres, d, k):
    """Summands of K_k at d: (subset, piece degree, dim, offset)."""
    out = []
    offset = 0
    floor = pres.free_rows if d[1] else 0
    for T, (a, b) in _subsets(pres.variables, pres.n, k):
        piece = (d[0] - a, d[1] - b)
        dim = pres.dim(piece) if piece[0] >= floor else 0
        if dim:
            out.append((T, piece, dim, offset))
            offset += dim
    return out, offset


def _live_cells(pres, kmax) -> np.ndarray:
    """Mask of the cells whose strand needs a rank: a nonzero summand in
    some K_k with k <= kmax, and a piece short of R's (see the module
    docstring).  The origin stays in: its strand gives beta_0 with no rank."""
    wi, wj = pres.window
    degrees = {deg for k in range(kmax + 1)
               for _, deg in _subsets(pres.variables, pres.n, k)}

    def reach(nonzero):
        out = np.zeros_like(nonzero)
        for a, b in degrees:
            if a <= wi and b <= wj:
                out[a:, b:] |= nonzero[: wi + 1 - a, : wj + 1 - b]
        return out

    nonzero = pres.dims > 0
    live = reach(nonzero)
    # off column 0 the strands read only rows at or above free_rows
    nonzero[: pres.free_rows] = False
    live[:, 1:] = reach(nonzero)[:, 1:]
    nx = sum(v <= pres.n for v in pres.variables)
    ny = len(pres.variables) - nx
    # R's piece dimensions, capped above every piece of the module
    free = pres.dims == generic_hilbert_matrix(int(pres.dims.max()) + 1,
                                               nx - 1, ny - 1, pres.window)
    free[0, 0] = False
    return live & ~free


def _betti_cell(pres, d, kmax) -> dict:
    """Honest Koszul strand homology at one bidegree."""
    p = pres.p
    summands = {}
    dims = {}
    for k in range(kmax + 2):
        summands[k], dims[k] = _strand_snapshot(pres, d, k)
    ranks = {0: 0}
    for k in range(1, kmax + 2):
        src, tgt = summands[k], summands[k - 1]
        if not src or not tgt:
            ranks[k] = 0
            continue
        row_of = {T: (piece, dim, off) for T, piece, dim, off in tgt}
        mat = np.zeros((dims[k - 1], dims[k]), dtype=np.int64)
        for T, piece, dim, off in src:
            for pos, v in enumerate(T):
                U = T[:pos] + T[pos + 1:]
                if U not in row_of:
                    continue  # facet lands in a zero piece: zero block
                _, udim, uoff = row_of[U]
                block = pres.map(v, piece)
                if block.ndim == 1:
                    # a monomial map: source column c has its 1 in row block[c]
                    mat[uoff + block, off + np.arange(dim)] = p - 1 if pos % 2 else 1
                    continue
                block = block % p
                if pos % 2:
                    block = (p - block) % p
                mat[uoff:uoff + udim, off:off + dim] = block
        ranks[k] = rank(mat, p)
    out = {}
    for k in range(kmax + 1):
        beta = dims.get(k, 0) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if beta:
            out[k] = beta
    return out


def betti_numbers(pres: GradedModulePresentation,
                  kmax: int | None = None) -> BettiTable:
    """Betti table of the presented module on its window.

    boundary_clean records whether the outermost strip of the window is free
    of entries; when it is not, global reads (projective dimension, shape
    totals) are unreliable and callers should enlarge the window.
    """
    wi, wj = pres.window
    if kmax is None:
        kmax = pres.n + pres.m + 2
    entries = {}
    for i, j in np.argwhere(_live_cells(pres, kmax)).tolist():
        for k, beta in _betti_cell(pres, (i, j), kmax).items():
            entries[(k, i, j)] = beta
    clean = not any(i == wi or j == wj for (_, i, j) in entries)
    return BettiTable(pres.n, pres.m, (wi, wj), entries, kmax, clean)


def pdim(bt: BettiTable) -> int:
    if not bt.boundary_clean:
        raise DirtyBoundary("entries touch the window boundary")
    return bt.max_stage()


def betti_window(N: int, n: int, m: int) -> tuple[int, int]:
    return N + n, min_cover_degree(N, m) + m + 2


@dataclass
class MrcReport:
    """Per-cell comparison of beta_1 against the difference-matrix reading."""

    window: tuple[int, int]
    generic: bool
    passed: bool
    predicted: dict
    beta1: dict
    mismatches: list


def mrc_window(N: int) -> tuple[int, int]:
    return N + 1, min_cover_degree(N, 2) + 1


def mrc_check(ps: PointSet) -> MrcReport:
    """Check that beta_1 of I_X is read off the first negative entries of DH.

    Positivity of beta_1 at (i,j) is predicted exactly when DH(i,j) < 0 and
    no cell of the downset except the origin is positive; the predicted
    value is -DH(i,j).  The window is ``mrc_window(N)``.  Requires the
    generic Hilbert matrix; a non-generic set short-circuits with
    generic=False.
    """
    if (ps.n, ps.m) != (1, 2):
        raise ValueError("difference-matrix reading is specific to n=1, m=2")
    window = mrc_window(ps.N)
    wi, wj = window
    H = hilbert_matrix(ps, window)
    if not np.array_equal(H, generic_hilbert_matrix(ps.N, 1, 2, window)):
        return MrcReport(window, False, False, {}, {}, [])
    dh = dh_p1p2(H)
    # the largest entry of each cell's downset, the origin read as 0
    best = dh.copy()
    best[0, 0] = 0
    best = np.maximum.accumulate(np.maximum.accumulate(best, axis=0), axis=1)
    first = (dh < 0) & (best <= 0)
    first[0, 0] = False
    predicted = {(int(i), int(j)): -int(dh[i, j]) for i, j in np.argwhere(first)}
    b1 = betti_numbers(point_presentation(ps, window), kmax=1).layer(1)
    mismatches = []
    for i in range(wi + 1):
        for j in range(wj + 1):
            if (i, j) == (0, 0):
                continue
            want = predicted.get((i, j), 0)
            got = b1.get((i, j), 0)
            if (got > 0) != (want > 0) or (want > 0 and got != want):
                mismatches.append({"cell": (i, j), "dh": int(dh[i, j]),
                                   "predicted": want, "beta1": got})
    return MrcReport(window, True, not mismatches, predicted, b1, mismatches)
