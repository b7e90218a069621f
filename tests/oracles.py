"""Reference routes that the library's fast paths are tested against.

Each one computes its answer the direct way, in the full monomial basis,
and shares no shortcut with the code it checks.  ``quotient_dim``,
``poly_mult_matrix`` and ``beta1_table`` are helpers that only the tests
use.  ``rref_by_columns`` and ``rank_by_columns`` are the plain column
loops that ``fp.rref`` and ``fp.rank`` trimmed: full-row updates, a second
scan for the rows to clear, and no transpose.
"""

from __future__ import annotations

import numpy as np

from vreslab.betti import GradedModulePresentation, betti_numbers, point_presentation
from vreslab.cox import count_monomials, monomials, mult_map, t_binom, var_degree
from vreslab.fp import (
    normalize,
    rank,
    row_stack,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)
from vreslab.points import (
    PointSet,
    PreconditionT,
    evaluation_matrix,
    function_space_bases,
    ideal_piece,
    pi1_fibers,
)


class ContainmentViolated(Exception):
    """Raised when a claimed subspace containment fails."""


def quotient_dim(vbasis, wbasis, p: int) -> int:
    """dim(V/W) for row-space bases with W ⊆ V (checked)."""
    V = normalize(vbasis, p)
    W = normalize(wbasis, p)
    rv = rank(V, p)
    rw = rank(W, p)
    if W.shape[0]:
        if rank(np.vstack([V, W]), p) != rv:
            raise ContainmentViolated("W is not contained in V")
    return rv - rw


def rref_by_columns(a, p: int) -> tuple[np.ndarray, list[int]]:
    """``fp.rref`` with whole-row swaps, scaling and updates."""
    A = normalize(a, p)
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        piv = int(A[r, c])
        if piv != 1:
            A[r] = A[r] * pow(piv, -1, p) % p
        other = A[:, c].copy()
        other[r] = 0
        hit = np.flatnonzero(other)
        if hit.size:
            A[hit] = (A[hit] - np.outer(other[hit], A[r])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def rank_by_columns(a, p: int) -> int:
    """Forward elimination down the columns as given, never transposed."""
    A = normalize(a, p)
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        below = A[r + 1 :, c]
        hit = np.flatnonzero(below)
        if hit.size:
            mults = below[hit] * inv % p
            A[r + 1 :][hit, c:] = (A[r + 1 :][hit, c:] - np.outer(mults, A[r, c:])) % p
        r += 1
    return r


def poly_mult_matrix(coeffs, form_degree: tuple[int, int], src_degree: tuple[int, int],
                     n: int, m: int, p: int) -> np.ndarray:
    """Matrix of multiplication by a fixed form between monomial bases.

    ``coeffs`` lists the form's coefficients in the monomial order of its
    bidegree piece.
    """
    form = monomials(n, m, form_degree)
    src = monomials(n, m, src_degree)
    tgt = monomials(n, m, (form_degree[0] + src_degree[0], form_degree[1] + src_degree[1]))
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    if coeffs.shape != (len(form),):
        raise ValueError("coefficient vector does not match the form's bidegree piece")
    mat = np.zeros((len(tgt), len(src)), dtype=np.int64)
    for t, fe in enumerate(form.exponents):
        cf = int(coeffs[t])
        if cf == 0:
            continue
        for c, se in enumerate(src.exponents):
            prod = tuple(a + b for a, b in zip(fe, se))
            r = tgt.index(prod)
            mat[r, c] = (mat[r, c] + cf) % p
    return mat


def beta1_table(ps: PointSet, window: tuple[int, int]) -> dict:
    """Minimal generator counts of I_X by bidegree (k=1 Betti layer)."""
    pres = point_presentation(ps, window)
    return betti_numbers(pres, kmax=1).layer(1)


def beta1_from_ideal(ps: PointSet, d: tuple[int, int]) -> int:
    """Independent generator count: dim I_d minus dim of (S_1 * I)_d."""
    i, j = d
    cols = count_monomials(ps.n, ps.m, d)
    blocks = []
    for var in range(ps.n + ps.m + 2):
        dv = var_degree(var, ps.n, ps.m)
        src = (i - dv[0], j - dv[1])
        if src[0] < 0 or src[1] < 0:
            continue
        K = ideal_piece(ps, src)
        if K.size:
            blocks.append((mult_map(var, src, ps.n, ps.m) @ K.T % ps.p).T)
    moved = row_stack(blocks, cols)
    return ideal_piece(ps, d).shape[0] - rank(moved, ps.p)


def intersected_piece(ps: PointSet, t: int, degree: tuple[int, int]) -> np.ndarray:
    """The (i,j) piece of I_X intersected with the t-th power of <x>.

    For i >= t this is the whole ideal piece; below the threshold it is zero.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    i, j = degree
    if i >= t:
        return ideal_piece(ps, degree)
    return np.zeros((0, count_monomials(ps.n, ps.m, degree)), dtype=np.int64)


def y0_nonzerodivisor(ps: PointSet, window: tuple[int, int]) -> bool:
    """Degreewise injectivity of multiplication by y_0 on S/I_X.

    Checked via the monomial route: the preimage of the ideal under y_0
    must be no larger than the ideal itself.
    """
    y0 = ps.n + 1
    wi, wj = window
    for i in range(wi + 1):
        for j in range(1, wj + 1):
            src_ideal = ideal_piece(ps, (i, j - 1))
            tgt_ideal = ideal_piece(ps, (i, j))
            embed = mult_map(y0, (i, j - 1), ps.n, ps.m).T
            overlap = subspace_intersection(embed, tgt_ideal, ps.p)
            if overlap.shape[0] != src_ideal.shape[0]:
                return False
    return True


def _with_y0(rows: np.ndarray, ps: PointSet, degree: tuple[int, int]) -> np.ndarray:
    """Rows of a piece of <J, y0>: J_(i,j) plus y0 * S_(i,j-1)."""
    i, j = degree
    cols = count_monomials(ps.n, ps.m, degree)
    blocks = [rows]
    if j >= 1:
        blocks.append(mult_map(ps.n + 1, (i, j - 1), ps.n, ps.m).T)
    return row_stack(blocks, cols)


def decomposition_check_in_full(ps: PointSet, t: int, window: tuple[int, int],
                                allow_small_t: bool = False,
                                containment_only: bool = False) -> bool:
    """``points.decomposition_check`` computed in all of S_(i,j).

    Every piece is an ideal piece plus the stacked rows of y0 * S_(i,j-1),
    and each fiber is evaluated as a point set of its own.
    """
    fib = pi1_fibers(ps)
    if not allow_small_t and not containment_only and t < fib.ell - 1:
        raise PreconditionT(f"t={t} below fiber bound ell-1={fib.ell - 1}")
    fiber_sets = [
        PointSet(ps.n, ps.m, ps.p, ps.xs[list(idx)], ps.ys[list(idx)])
        for _, idx in fib.fibers
    ]
    wi, wj = window
    for i in range(wi + 1):
        for j in range(wj + 1):
            d = (i, j)
            cols = count_monomials(ps.n, ps.m, d)
            lhs = _with_y0(intersected_piece(ps, t, d), ps, d)
            components = [
                _with_y0(ideal_piece(fs, d), ps, d) for fs in fiber_sets
            ]
            if i < t:
                # the power-ideal component has an empty degree piece here
                components.append(_with_y0(np.zeros((0, cols), dtype=np.int64), ps, d))
            if containment_only:
                if not all(subspace_contains(c, lhs, ps.p) for c in components):
                    return False
                continue
            meet = components[0]
            for c in components[1:]:
                meet = subspace_intersection(meet, c, ps.p)
            if not subspace_equal(meet, lhs, ps.p):
                return False
    return True


def intersected_presentation_in_full(ps: PointSet, t: int,
                                     window: tuple[int, int]) -> GradedModulePresentation:
    """S/(I_X ∩ <x>^t) itself, over all n+m+2 variables; t = 0 gives S/I_X.

    ``betti.intersected_presentation`` without the quotient by z.  Pieces
    with i < t are free (monomial bases); pieces with i >= t are the
    point-function spaces, coordinatized by their values at the RREF
    pivots; the only mixed maps are the x-variable crossings from row t-1
    into row t, realized by evaluating source monomials.
    """
    fs = function_space_bases(ps, window)
    p = ps.p
    wi, wj = window
    dims = fs.dims.copy()
    for i in range(min(t, wi + 1)):
        for j in range(wj + 1):
            dims[i, j] = t_binom(i, ps.n) * t_binom(j, ps.m)

    def build(var: int, d: tuple[int, int]) -> np.ndarray:
        dv = var_degree(var, ps.n, ps.m)
        tgt = (d[0] + dv[0], d[1] + dv[1])
        if tgt[0] < t:
            return mult_map(var, d, ps.n, ps.m)
        piv = fs.pivots[tgt]
        if d[0] >= t:
            moved = fs.bases[d] * ps.coordinate_values(var) % p
            return moved[:, piv].T.copy()
        # crossing: evaluate each source monomial times the variable
        moved = evaluation_matrix(ps, d) * ps.coordinate_values(var)[:, None] % p
        return moved[piv, :].copy()

    return GradedModulePresentation(ps.n, ps.m, p, window, dims,
                                    tuple(range(ps.n + ps.m + 2)), _builder=build)
