"""Reference routes and helpers that only the tests use.

The reference routes compute their answer the direct way, in the full
monomial basis, and share no shortcut with the code they check:
``decomposition_check_in_full``, ``intersected_presentation_in_full``,
``koszul_homology`` (every strand built in full and every differential
ranked, where ``betti.betti_numbers`` skips, truncates and fills cells),
``beta1_from_ideal``, ``y0_nonzerodivisor``, ``is_generic_on_window``
(genericity decided on the whole window (N + n, N + m), where
``points.is_generic_hilbert`` reads the box), and the presentation of S/J
from explicit ideal pieces (``ideal_pieces_from_generators`` with
``quotient_presentation``).  ``window_presentation`` widens the engine's
own presentation, cut at the Betti box, to its whole window, so that
``koszul_homology`` can rank it past the box.  ``rref_by_columns`` and ``rank_by_columns``
are the plain column loops that ``fp.rref`` and ``fp.rank`` trimmed:
full-row updates, a second scan for the rows to clear, and no transpose.
``flag_step_all_residues`` is the sweep's flag step with no bound on the
new block: it eliminates every residue, where ``points._flag_step``
eliminates a subset first.
Two map-by-map references check the maps that ``betti`` builds:
``map_by_one_rule`` builds a map of an intersected presentation or of its
row quotient, at any t, by the one rule alone, where ``betti`` reads a
gather, and ``kernel_map_through_m`` a y-map of a kernel of the row split
off M's own y-map and the kernel bases.

The paper's closed forms that no command computes live here too: the
generic difference table (``predicted_dh_generic`` with
``nr_decomposition``), its inverse transform ``hilbert_from_betti``, the
beta_2 row reading ``beta2_first_positive_check``, the generic table
off column 0 of the intersected quotient at t >= max(r_x, 1)
(``predicted_intersect_off_column_0``) and its column 0 at t > r_x, and
on P^1 at every t >= 1 (``predicted_intersect_column_0``); so do the stored
trimmed shapes for N = 2..11 (``stored_pair_shape``) and the trim of a
computed Betti table to the twists at most d + (n, m) (``trim_table``),
the reference for ``vres.pair_vres``, which resolves only that region.
The dense 0/1 variable maps (``dense_mult_map``) find each product by
exponent lookup (``monomial_row``), not by the ranking of
``cox.mult_map``.  The rest
are small readings of library tables: ``int_matrix_at``, ``betti_entry``,
``shape_length``, ``signed_collapse``, the stage totals, ``pretty``,
``int_matrix_from_csv``, ``matrix_diff_report``, ``quotient_dim``,
``poly_mult_matrix`` and ``beta1_table``; ``stack_rows``, which
stacks row blocks that may be empty; and ``x_fibers``, the points grouped
by x-part, which ``decomposition_check_in_full`` evaluates one fiber at a
time.  Integer tables are 2-D int64 arrays, as in the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from vreslab.betti import (
    BettiTable,
    GradedModulePresentation,
    WindowTooSmall,
    betti_numbers,
    intersected_presentation,
    mrc_window,
    point_presentation,
)
from vreslab.cox import count_monomials, monomials, t_binom, var_degree
from vreslab.diffcalc import dh_p1p2
from vreslab.fp import (
    kernel_basis,
    normalize,
    rank,
    rref,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)
from vreslab.points import (
    PointSet,
    evaluation_matrix,
    function_space_bases,
    generic_hilbert_matrix,
    hilbert_matrix,
    ideal_piece,
)
from vreslab.vres import FreeComplexShape, NTooSmall


class ContainmentViolated(Exception):
    """Raised when a claimed subspace containment fails."""


class ClosureViolated(Exception):
    """Degreewise pieces are not closed under variable multiplication."""


def stack_rows(blocks: list[np.ndarray], cols: int) -> np.ndarray:
    """Stack row blocks on ``cols`` columns, tolerating empty ones."""
    blocks = [np.asarray(b, dtype=np.int64).reshape(-1, cols) for b in blocks]
    if not blocks:
        return np.zeros((0, cols), dtype=np.int64)
    return np.vstack(blocks)


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


def flag_step_all_residues(flag, p: int) -> None:
    """Append the next block of a sweep flag from every residue: x_k - x_k(q)
    times each row c of the newest block, with pivot q, for every variable
    x_k of the flag, eliminated together."""
    rows, pivots = flag.blocks[-1]
    vals = flag.values.T[1:]
    residues = (vals[:, None, :] - vals[:, pivots, None]) * rows % p
    R, fresh = rref(residues.reshape(-1, rows.shape[1]), p)
    flag.blocks.append((R[: len(fresh)], np.array(fresh, dtype=np.int64)))
    flag.dims.append(flag.dims[-1] + len(fresh))


@cache
def _row_of(n: int, m: int, degree: tuple[int, int]) -> dict:
    """Exponent tuple -> row in the monomials of the piece, by lookup."""
    return {tuple(e): r for r, e in enumerate(monomials(n, m, degree).tolist())}


def monomial_row(exponent, n: int, m: int) -> int:
    """Row of one exponent vector among the monomials of its bidegree."""
    degree = (sum(exponent[: n + 1]), sum(exponent[n + 1 :]))
    return _row_of(n, m, degree)[tuple(exponent)]


@cache
def dense_mult_map(var: int, src_degree: tuple[int, int], n: int, m: int) -> np.ndarray:
    """Dense 0/1 matrix of multiplication by a variable (target x source).

    Each product monomial is found by exponent lookup, not by
    ``cox.mult_map``'s ranking; the result is read-only.
    """
    di, dj = var_degree(var, n, m)
    tgt = (src_degree[0] + di, src_degree[1] + dj)
    src = monomials(n, m, src_degree)
    mat = np.zeros((count_monomials(n, m, tgt), len(src)), dtype=np.int64)
    for c, e in enumerate(src.tolist()):
        e[var] += 1
        mat[_row_of(n, m, tgt)[tuple(e)], c] = 1
    mat.flags.writeable = False
    return mat


def poly_mult_matrix(coeffs, form_degree: tuple[int, int], src_degree: tuple[int, int],
                     n: int, m: int, p: int) -> np.ndarray:
    """Matrix of multiplication by a fixed form between monomial bases.

    ``coeffs`` lists the form's coefficients in the monomial order of its
    bidegree piece.
    """
    form = monomials(n, m, form_degree)
    src = monomials(n, m, src_degree)
    tgt = (form_degree[0] + src_degree[0], form_degree[1] + src_degree[1])
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    if coeffs.shape != (len(form),):
        raise ValueError("coefficient vector does not match the form's bidegree piece")
    mat = np.zeros((count_monomials(n, m, tgt), len(src)), dtype=np.int64)
    for fe, cf in zip(form, coeffs.tolist()):
        if cf == 0:
            continue
        for c, prod in enumerate((src + fe).tolist()):
            r = _row_of(n, m, tgt)[tuple(prod)]
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
            blocks.append((dense_mult_map(var, src, ps.n, ps.m) @ K.T % ps.p).T)
    moved = stack_rows(blocks, cols)
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
            embed = dense_mult_map(y0, (i, j - 1), ps.n, ps.m).T
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
        blocks.append(dense_mult_map(ps.n + 1, (i, j - 1), ps.n, ps.m).T)
    return stack_rows(blocks, cols)


def x_fibers(ps: PointSet) -> tuple[tuple[int, ...], ...]:
    """The indices of the points grouped by x-part, the fibers of the first
    projection, in order of first appearance."""
    members: dict[tuple[int, ...], list[int]] = {}
    for idx, row in enumerate(map(tuple, ps.xs.tolist())):
        members.setdefault(row, []).append(idx)
    return tuple(map(tuple, members.values()))


def is_generic_on_window(ps: PointSet) -> bool:
    """Whether the Hilbert matrix equals the generic one on the window
    (N + n, N + m), with the part counts taken from the grouped coordinate
    rows.  On a factor P^b with b >= 1 a generic matrix reaches N on column
    0 or row 0, so a set with a repeated part there is not generic; a P^0
    factor has one part, and its count is not read."""
    for b, coords in ((ps.n, ps.xs), (ps.m, ps.ys)):
        if b and len(np.unique(coords, axis=0)) < ps.N:
            return False
    window = ps.N + ps.n, ps.N + ps.m
    return np.array_equal(hilbert_matrix(ps, window),
                          generic_hilbert_matrix(ps.N, ps.n, ps.m, window))


def decomposition_check_in_full(ps: PointSet, t: int, window: tuple[int, int],
                                containment_only: bool = False) -> bool:
    """``points.decomposition_check`` computed in all of S_(i,j).

    Every piece is an ideal piece plus the stacked rows of y0 * S_(i,j-1),
    and each fiber is evaluated as a point set of its own.  With
    ``containment_only`` only the left-to-right containment is checked.
    """
    fiber_sets = [
        PointSet(ps.n, ps.m, ps.p, ps.xs[list(idx)], ps.ys[list(idx)])
        for idx in x_fibers(ps)
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
    dims = hilbert_matrix(ps, window)
    for i in range(min(t, wi + 1)):
        for j in range(wj + 1):
            dims[i, j] = count_monomials(ps.n, ps.m, (i, j))

    def build(var: int, d: tuple[int, int]) -> np.ndarray:
        dv = var_degree(var, ps.n, ps.m)
        tgt = (d[0] + dv[0], d[1] + dv[1])
        if tgt[0] < t:
            return dense_mult_map(var, d, ps.n, ps.m)
        piv = fs.cell(tgt)[1]
        if d[0] >= t:
            moved = fs.cell(d)[0] * ps.coordinate_values(var) % p
            return moved[:, piv].T.copy()
        # crossing: evaluate each source monomial times the variable
        moved = evaluation_matrix(ps, d) * ps.coordinate_values(var)[:, None] % p
        return moved[piv, :].copy()

    return GradedModulePresentation(ps.n, ps.m, p, window, dims,
                                    tuple(range(ps.n + ps.m + 2)), _builder=build)


def window_presentation(ps: PointSet, t: int,
                        window: tuple[int, int]) -> GradedModulePresentation:
    """``betti.intersected_presentation`` holding its whole window.

    The engine's presentation holds only the pieces on the window cut at
    the Betti box.  Here every piece from row t on is the difference of
    ``hilbert_matrix`` along the quotient's variable z, the one variable
    the presentation lacks (x0 at t = 0 and on P^1, else y0), and every
    map is the engine's own builder, which reads cells past the box
    through the sweep's clamp; so the all-ranks oracle can rank the
    engine's module past its box.
    """
    pres = intersected_presentation(ps, t, window)
    z_is_y0 = 0 in pres.variables
    dims = np.diff(hilbert_matrix(ps, window)[t:], axis=int(z_is_y0), prepend=0)
    return replace(pres, dims=dims, _maps={})



def map_by_one_rule(ps: PointSet, z: int, var: int, d: tuple[int, int],
                    t: int = 0) -> np.ndarray:
    """The map of the variable ``var`` from the piece at d to the piece at
    d + deg(var) of A_{rows >= t} modulo z (S/I_X at t = 0; z = x0 for the
    point presentation and on P^1, y0 for the row quotient and for n >= 2
    at t >= 1), by the one rule alone: the rows of the RREF cell of V_d at
    the pivots that the cell below d lacks, times var, reduced modulo the
    cell below the target and read at the target cell's fresh pivots.  The
    cell below e is the sweep's cell at e - deg(z) when that cell lies in a
    row >= t, and none otherwise, where the piece is all of V_e.  Exact in
    Python ints."""
    dz, dv = var_degree(z, ps.n, ps.m), var_degree(var, ps.n, ps.m)
    tgt = (d[0] + dv[0], d[1] + dv[1])
    fs = function_space_bases(ps, tgt)

    def below(e):
        lo = (e[0] - dz[0], e[1] - dz[1])
        return fs.cell(lo) if lo[0] >= t and lo[1] >= 0 else None

    def fresh(e):
        # the rows of V_e's cell at the pivots the cell below lacks
        basis, pivots = fs.cell(e)
        keep = ~np.isin(pivots, lo[1]) if (lo := below(e)) is not None else slice(None)
        return basis[keep], pivots[keep]

    image = fresh(d)[0].astype(object) * ps.coordinate_values(var).astype(object) % ps.p
    if (lo := below(tgt)) is not None:
        basis, pivots = lo
        image = (image - image[:, pivots] @ basis.astype(object)) % ps.p
    return image[:, fresh(tgt)[1]].T.astype(np.int64)


def kernel_map_through_m(pres: GradedModulePresentation, i: int, var: int,
                         b: int) -> np.ndarray:
    """The map of the y-variable ``var`` from column b to column b + 1 of
    Z_i = ker(x1 : M_(i-1,.) -> M_(i,.)), M the point presentation modulo
    x0 on P^1 x P^m: M's own y-map at the free columns of the target's
    kernel basis, times the source's kernel basis (the identity where
    M_(i,c) = 0, which x1 maps nothing into).  Kernel bases are
    ``kernel_basis`` rows, the identity at the RREF's free columns."""
    x, p = pres.variables[0], pres.p

    def kernel(c):
        # (basis rows, free columns), None for all of M_(i-1,c)
        if not pres.dims[i, c]:
            return None
        block = pres.map(x, (i - 1, c))
        free = sorted(set(range(block.shape[1])) - set(rref(block, p)[1]))
        return kernel_basis(block, p), free

    block = pres.map(var, (i - 1, b))
    src, tgt = kernel(b), kernel(b + 1)
    if tgt is not None:
        block = block[tgt[1]]
    # at most N terms below p**2 < 2**52 each: exact in int64 for small N
    return block if src is None else block @ src[0].T % p

def koszul_homology(pres: GradedModulePresentation, kmax: int | None = None) -> BettiTable:
    """Koszul homology of a presentation at every cell of its window.

    Each cell builds its full strand, K_k = the sum over the k-subsets T
    of the variables of the pieces at d - deg T, and ranks every
    differential, K_1 -> K_0 too.
    No cell is skipped and none is filled from another, so the table
    rests on no shortcut of ``betti.betti_numbers``.
    """
    if kmax is None:
        kmax = pres.n + pres.m + 2
    p = pres.p
    wi, wj = pres.window
    entries = {}
    for d in np.ndindex(wi + 1, wj + 1):
        # terms[k]: {T: (piece degree, dim, offset)} and the total dim
        terms = []
        for k in range(kmax + 2):
            summands, total = {}, 0
            for T in combinations(pres.variables, k):
                a = sum(v <= pres.n for v in T)
                piece = (d[0] - a, d[1] - k + a)
                summands[T] = (piece, pres.dim(piece), total)
                total += summands[T][1]
            terms.append((summands, total))
        ranks = [0] * (kmax + 2)
        for k in range(1, kmax + 2):
            (src, cols), (tgt, rows) = terms[k], terms[k - 1]
            mat = np.zeros((rows, cols), dtype=np.int64)
            for T, (piece, dim, off) in src.items():
                for pos, v in enumerate(T):
                    _, udim, uoff = tgt[T[:pos] + T[pos + 1:]]
                    if not dim or not udim:
                        continue
                    mat[uoff:uoff + udim, off:off + dim] = (-1) ** pos * pres.map(v, piece) % p
            ranks[k] = rank(mat, p)
        for k in range(kmax + 1):
            beta = terms[k][1] - ranks[k] - ranks[k + 1]
            if beta:
                entries[(k, *d)] = beta
    return BettiTable(pres.n, pres.m, tuple(pres.window), entries, kmax, pres.complete)


def ideal_pieces_from_generators(gens, n: int, m: int, p: int,
                                 window: tuple[int, int]) -> dict:
    """Degreewise bases of the ideal generated by explicit forms.

    ``gens`` is a list of (degree, rows) with rows = coefficient vectors in
    the monomial basis of that degree.  Pieces are grown along the window by
    multiplying lower pieces into each bidegree.
    """
    wi, wj = window
    explicit: dict[tuple[int, int], list[np.ndarray]] = {}
    for d, rows in gens:
        explicit.setdefault(tuple(d), []).append(np.atleast_2d(np.asarray(rows)))
    pieces: dict[tuple[int, int], np.ndarray] = {}
    for i in range(wi + 1):
        for j in range(wj + 1):
            cols = count_monomials(n, m, (i, j))
            blocks = list(explicit.get((i, j), []))
            if i > 0 and pieces[(i - 1, j)].size:
                prev = pieces[(i - 1, j)]
                for v in range(n + 1):
                    blocks.append((dense_mult_map(v, (i - 1, j), n, m) @ prev.T % p).T)
            if j > 0 and pieces[(i, j - 1)].size:
                prev = pieces[(i, j - 1)]
                for v in range(n + 1, n + m + 2):
                    blocks.append((dense_mult_map(v, (i, j - 1), n, m) @ prev.T % p).T)
            stacked = stack_rows(blocks, cols)
            R, piv = rref(stacked, p)
            pieces[(i, j)] = R[: len(piv)]
    return pieces


def quotient_presentation(pieces: dict, n: int, m: int, p: int,
                          window: tuple[int, int],
                          validate: bool = True) -> GradedModulePresentation:
    """S/J from degreewise ideal bases, via standard-monomial cosets.

    The quotient basis at each bidegree is the set of non-pivot monomials of
    the RREF'd ideal piece; multiplication maps multiply a standard monomial
    and reduce modulo the target piece.  With ``validate`` the pieces must
    be closed under every variable, or ``ClosureViolated`` is raised.
    """
    wi, wj = window
    rrefs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    dims = np.zeros((wi + 1, wj + 1), dtype=np.int64)
    for i in range(wi + 1):
        for j in range(wj + 1):
            cols = count_monomials(n, m, (i, j))
            raw = pieces.get((i, j))
            if raw is None or np.asarray(raw).size == 0:
                raw = np.zeros((0, cols), dtype=np.int64)
            R, piv = rref(np.asarray(raw), p)
            R = R[: len(piv)]
            piv = np.asarray(piv, dtype=np.int64)
            free = np.setdiff1d(np.arange(cols), piv)
            rrefs[(i, j)] = (R, piv, free)
            dims[i, j] = len(free)
    if validate:
        for i in range(wi + 1):
            for j in range(wj + 1):
                R = rrefs[(i, j)][0]
                if not R.size:
                    continue
                for var in range(n + m + 2):
                    dv = var_degree(var, n, m)
                    ti, tj = i + dv[0], j + dv[1]
                    if ti > wi or tj > wj:
                        continue
                    moved = (dense_mult_map(var, (i, j), n, m) @ R.T % p).T
                    if not subspace_contains(rrefs[(ti, tj)][0], moved, p):
                        raise ClosureViolated(f"piece ({i},{j}) times var {var}")

    def build(var: int, d: tuple[int, int]) -> np.ndarray:
        dv = var_degree(var, n, m)
        tgt = (d[0] + dv[0], d[1] + dv[1])
        _, _, free_src = rrefs[d]
        R_tgt, piv_tgt, free_tgt = rrefs[tgt]
        M = dense_mult_map(var, d, n, m)[:, free_src]
        if R_tgt.size:
            M = (M - R_tgt.T @ M[piv_tgt, :]) % p
        return M[free_tgt, :]

    return GradedModulePresentation(n, m, p, window, dims,
                                    tuple(range(n + m + 2)), _builder=build)


def signed_collapse(bt: BettiTable) -> np.ndarray:
    """The alternating sum over k of the table's layers, cell by cell."""
    wi, wj = bt.window
    vals = np.zeros((wi + 1, wj + 1), dtype=np.int64)
    for (k, i, j), b in bt.entries.items():
        vals[i, j] += (-1) ** k * b
    return vals


def int_matrix_at(mat: np.ndarray, i: int, j: int) -> int:
    """The table's value at (i, j), zero at negative indices."""
    if i < 0 or j < 0:
        return 0
    return int(mat[i, j])


def betti_entry(bt: BettiTable, k: int, i: int, j: int) -> int:
    """beta_{k,(i,j)} of the table, zero where it records nothing."""
    return bt.entries.get((k, i, j), 0)


def betti_total_by_stage(bt: BettiTable) -> tuple:
    """Sum of the table's Betti numbers at each k up to the top stage."""
    totals = [0] * (bt.max_stage() + 1)
    for (k, _, _), b in bt.entries.items():
        totals[k] += b
    return tuple(totals)


def total_by_stage(shape: FreeComplexShape) -> tuple:
    """Sum of the multiplicities of each stage of a shape."""
    return tuple(sum(stage.values()) for stage in shape.stages)


def shape_length(shape: FreeComplexShape) -> int:
    """Index of the shape's last stage."""
    return len(shape.stages) - 1


def pretty(shape: FreeComplexShape) -> str:
    """The shape as a chain of twisted free modules, S(-i,-j)^mult."""
    if not shape.stages:
        return "0"
    parts = []
    for k, stage in enumerate(shape.stages):
        if k == 0 and stage == {(0, 0): 1}:
            parts.append("S")
            continue
        terms = []
        for (i, j), c in sorted(stage.items()):
            term = "S(%d,%d)" % (-i, -j)
            terms.append(term if c == 1 else term + "^%d" % c)
        parts.append(" + ".join(terms) if terms else "0")
    return "\n  <- ".join(parts + ["0"])


def int_matrix_from_csv(text: str) -> np.ndarray:
    """Read back the CLI's table CSV: a header row, then a label column."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        rows.append([int(c) for c in cells[1:]])
    return np.array(rows, dtype=np.int64)


def matrix_diff_report(expected: np.ndarray, actual: np.ndarray) -> list[dict]:
    """Cells where two tables disagree, for failure reports."""
    if expected.shape != actual.shape:
        return [{"cell": "window", "expected": [s - 1 for s in expected.shape],
                 "actual": [s - 1 for s in actual.shape]}]
    bad = np.argwhere(expected != actual)
    return [
        {"cell": [int(i), int(j)], "expected": int(expected[i, j]),
         "actual": int(actual[i, j])}
        for i, j in bad
    ]


def _toeplitz(cap: int, b: int) -> np.ndarray:
    t = np.array([t_binom(a, b) for a in range(cap + 1)], dtype=np.int64)
    mat = np.zeros((cap + 1, cap + 1), dtype=np.int64)
    for i in range(cap + 1):
        mat[i, : i + 1] = t[: i + 1][::-1]
    return mat


def hilbert_from_betti(b: np.ndarray, n: int, m: int) -> np.ndarray:
    """Invert the difference operators: H(i,j) = sum T(i-p,n) T(j-q,m) B(p,q)."""
    left = _toeplitz(b.shape[0] - 1, n)
    right = _toeplitz(b.shape[1] - 1, m)
    return left @ b @ right.T


# trimmed-at-(N-1,0) stages 1..3 of generic sets for 2 <= N <= 11, as
# computed by the engine: the ground truth for ``predicted_pair_shape``
# where its stages 1 and 2 share twists
SMALL_PAIR_STAGES = {
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


def stored_pair_shape(N: int) -> FreeComplexShape:
    """The stored trimmed shape of N generic points, 2 <= N <= 11."""
    return FreeComplexShape(({(0, 0): 1},) + tuple(dict(s) for s in SMALL_PAIR_STAGES[N]))


def trim_table(bt: BettiTable, d: tuple[int, int]) -> FreeComplexShape:
    """The summands of a computed table generated in degree <= d + (n, m).

    The trim is exact whenever the kept region lies inside the table's
    window; a table whose window misses the Betti box is rejected only if
    the kept region also extends past the window.
    """
    lim = (d[0] + bt.n, d[1] + bt.m)
    if not bt.boundary_clean and (lim[0] > bt.window[0] or lim[1] > bt.window[1]):
        raise WindowTooSmall("kept region exceeds a window that misses the Betti box")
    kept = {key: b for key, b in bt.entries.items()
            if key[1] <= lim[0] and key[2] <= lim[1]}
    return FreeComplexShape.from_betti(replace(bt, entries=kept))


def predicted_intersect_off_column_0(N: int, n: int, m: int, t: int) -> dict:
    """Closed-form entries off column 0 of the table of S/(I_X ∩ <x>^t) for
    N points with distinct x-parts, every generic set among them, at
    t >= max(r_x, 1): beta_{a+b,(t+a,b)} = N * C(n, a) * C(m, b) for
    a = 0..n and b = 1..m, and no other entry with j >= 1.

    Each fiber is one point, whose coordinate ring over k[y0..ym] is
    resolved by the Koszul complex on m linear forms, so the fiber-wise
    reading of ``betti`` (The sequence route (a)) sums N copies of it.
    """
    return {(a + b, t + a, b): N * comb(n, a) * comb(m, b)
            for a in range(n + 1) for b in range(1, m + 1)}


def predicted_intersect_column_0(ell: int, n: int, t: int) -> dict:
    """Closed-form column 0 of the table of S/(I_X ∩ <x>^t) for a set with
    ell distinct x-parts, at t >= r_x + 1, or on P^1 (n = 1) at every
    t >= 1.  On P^1 with t <= ell, I_(π1 X) is principal of degree ell >= t,
    so it lies in <x>^t, and column 0 is that of k[x]/I_(π1 X): beta_0 at
    the origin and beta_1 at (ell, 0).  Otherwise beta_{0,(0,0)} = 1 and,
    for a = 0..n, with EN_a = C(t+n, t+a) * C(t+a-1, a) the
    Eagon-Northcott number of <x>^t,

        beta_{a,(t+a,0)} = ell * C(n, a) - rho_a,
        beta_{a+1,(t+a,0)} = EN_a - rho_a,
        rho_a = min(ell * C(n, a), EN_a).

    rho_a is the rank of Tor_a(<x>^t) -> Tor_a(B_{>= t}) in degree t + a,
    B the coordinate ring of the x-parts.  The map is onto at t > r_x,
    where I_(π1 X)_{>= t} has a linear resolution (step (d) of The sequence
    route in ``betti``), so its rank, ell * C(n, a), is the smaller of the
    two dimensions.
    """
    if n == 1 and t <= ell:
        return {(0, 0, 0): 1, (1, ell, 0): 1}
    out = {(0, 0, 0): 1}
    for a in range(n + 1):
        points, en = ell * comb(n, a), comb(t + n, t + a) * comb(t + a - 1, a)
        rho = min(points, en)
        out[(a, t + a, 0)] = points - rho
        out[(a + 1, t + a, 0)] = en - rho
    return {key: beta for key, beta in out.items() if beta}


@dataclass(frozen=True)
class NRDecomposition:
    """N = 6q + r = 3q' + r' with 0 <= r <= 5 and 0 <= r' <= 2."""

    N: int
    q: int
    r: int
    qp: int
    rp: int


def nr_decomposition(N: int) -> NRDecomposition:
    if N < 0:
        raise ValueError("N must be nonnegative")
    q, r = divmod(N, 6)
    qp, rp = divmod(N, 3)
    return NRDecomposition(N, q, r, qp, rp)


def predicted_dh_generic(N: int, window: tuple[int, int] | None = None) -> np.ndarray:
    """Closed-form collapse for N >= 12 generic points in P^1 x P^2.

    Only the columns j <= 2 follow this sparse pattern; the default window
    is (N+1, 2).  Coinciding cells accumulate.
    """
    if N < 12:
        raise NTooSmall("closed form requires N >= 12")
    d = nr_decomposition(N)
    if window is None:
        window = (N + 1, 2)
    wi, wj = window
    vals = np.zeros((wi + 1, wj + 1), dtype=np.int64)
    entries = [
        (0, 0, 1),
        (d.q, 2, d.r - 6),
        (d.q + 1, 2, -d.r),
        (d.qp, 1, d.rp - 3),
        (d.qp, 2, 9 - 3 * d.rp),
        (d.qp + 1, 1, -d.rp),
        (d.qp + 1, 2, 3 * d.rp),
        (N, 0, -1),
        (N, 1, 3),
        (N, 2, -3),
    ]
    for i, j, v in entries:
        if i <= wi and j <= wj:
            vals[i, j] += v
    return vals


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


def beta2_first_positive_check(ps: PointSet, window=None) -> Beta2Report:
    """Rows i >= 2: the first positive difference entry must equal beta_2.

    For each row of the difference matrix whose first positive entry
    sits at column j, checks beta_2(i, j) equals that entry and the
    earlier columns of the row carry no beta_2.
    """
    if (ps.n, ps.m) != (1, 2):
        raise ValueError("row check is specific to the (1, 2) case")
    if window is None:
        window = mrc_window(ps.N)
    dh = dh_p1p2(hilbert_matrix(ps, window))
    bt = betti_numbers(point_presentation(ps, window), kmax=2)
    rows = []
    for i in range(2, window[0] + 1):
        positive = [j for j in range(window[1] + 1) if dh[i, j] > 0]
        if not positive:
            continue
        j0 = positive[0]
        zeros_ok = all(betti_entry(bt, 2, i, jp) == 0 for jp in range(j0))
        rows.append(Beta2Row(i, j0, int(dh[i, j0]), betti_entry(bt, 2, i, j0), zeros_ok))
    return Beta2Report(all(r.ok for r in rows), rows)
