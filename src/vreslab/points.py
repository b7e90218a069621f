"""Finite point sets in P^n x P^m and their bigraded vanishing ideals.

Points are stored with normalized coordinates (first coordinate of each
factor equal to 1), so evaluation of monomials is well defined and the
degreewise kernel of evaluation is automatically the saturated vanishing
ideal piece.

The Hilbert matrix comes from a sweep over the window.  It grows the
evaluation image V(i,j) of S_(i,j) in k^N from a neighbouring cell by the
variable actions.  Because x0 = y0 = 1 at every point, V(i,j) contains
V(i-1,j) and V(i,j-1), so once either is all of k^N the cell is
saturated: its RREF basis is the identity and no elimination runs.
Otherwise the cell extends its source's RREF by the actions of x1..xn
(or y1..ym along row 0) on the source's fresh rows only, the rows at
pivots the cell before the source lacks; the other rows' products are
already in the source.  A cell whose source has no fresh rows is its
source, as in a column that has stopped growing.  Every swept cell is
memoized on its ``PointSet``, so the genericity check, the Hilbert
matrix, the presentations, the regularity witness and the decomposition
check of one set share a single sweep, and a window only computes the
cells no earlier window covered.

The sweep is constant past one box.  Let ell_x and ell_y be the numbers
of distinct x-parts P_1..P_ell_x and y-parts, r_x the least i with
H(i, 0) = ell_x and r_y the least j with H(0, j) = ell_y.  Then

    V(i,j) = V(min(i, r_x), min(j, r_y))    for all i, j >= 0.

An x-form takes one value at all points with the same x-part, so
H(i, 0) <= ell_x, and H(r_x, 0) = ell_x says that k[x]_(r_x) maps onto
the functions on the x-parts: there is e_k in k[x]_(r_x) with
e_k(P_l) = 1 if l = k and 0 otherwise.  Let i >= r_x and let V^k_j be
the evaluation image of k[y]_j on the points of fiber k (those with
x-part P_k).  Restricting f in S_(i,j) to fiber k gives the y-form
f(P_k, y), so V(i,j) lies in the direct sum of the V^k_j; and
x0^(i - r_x) * e_k * g, for g in k[y]_j, is g on fiber k and 0 on the
other fibers, so V(i,j) is that direct sum, which does not depend on i.
Hence V(i,j) = V(r_x, j) for i >= r_x.  The same argument with the
factors swapped gives V(i,j) = V(i, r_y) for j >= r_y, and the two
together give the identity.  A subspace has one RREF basis, so a cell
past the box is its clamped cell, and ``function_space_bases`` sweeps
only the cells of [0, min(wi, r_x)] x [0, min(wj, r_y)] for a window
(wi, wj).  Finding the corners costs at most ell_x cells of column 0 and
ell_y cells of row 0: a product of ell_x - 1 linear x-forms, each
through one other x-part and not through P_k, is e_k up to a scalar, so
r_x <= ell_x - 1, and likewise r_y <= ell_y - 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .cox import monomials, t_binom
from .fp import DEFAULT_PRIME, FieldPrime, kernel_basis, matmul, normalize, rank, rref_extend

# draws random_points(require_generic=True) makes before giving up
MAX_DRAWS = 100


class GenericityExhausted(Exception):
    """Raised when resampling cannot reach a generic configuration."""


@dataclass(eq=False)
class PointSet:
    """N distinct normalized points; xs is N x (n+1), ys is N x (m+1).

    Two point sets are equal when they have the same n, m and p and the
    same coordinate rows in the same order; the seed, the rejection count
    and the cell memo do not take part.
    """

    n: int
    m: int
    p: int
    xs: np.ndarray
    ys: np.ndarray
    seed: int | None = None
    rejections: int = 0
    # (i, j) -> (RREF basis, pivots) of every cell swept so far
    _cells: dict = field(default_factory=dict, init=False, repr=False)
    # (r_x, r_y), the corner of the sweep's box, once the sweep has found it
    _box: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        FieldPrime(self.p)  # an odd prime below 2**26, or ValueError
        self.xs = normalize(self.xs, self.p)
        self.ys = normalize(self.ys, self.p)
        # the cell memo is sound only while the coordinates cannot change
        self.xs.flags.writeable = False
        self.ys.flags.writeable = False
        if self.xs.shape[1] != self.n + 1 or self.ys.shape[1] != self.m + 1:
            raise ValueError("coordinate widths do not match n, m")
        if self.xs.shape[0] != self.ys.shape[0] or self.xs.shape[0] == 0:
            raise ValueError("need matching nonempty coordinate arrays")
        if np.any(self.xs[:, 0] != 1) or np.any(self.ys[:, 0] != 1):
            raise ValueError("points must be normalized (leading coordinate 1)")
        seen = set()
        for a, b in zip(map(tuple, self.xs), map(tuple, self.ys)):
            if (a, b) in seen:
                raise ValueError("points must be pairwise distinct")
            seen.add((a, b))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return ((self.n, self.m, self.p) == (other.n, other.m, other.p)
                and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys))

    @property
    def N(self) -> int:
        return self.xs.shape[0]

    def coordinate_values(self, var: int) -> np.ndarray:
        """Values of one ring variable at all points (a length-N vector)."""
        if var <= self.n:
            return self.xs[:, var]
        return self.ys[:, var - self.n - 1]

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "seed": self.seed,
            "points": [
                [list(map(int, a)), list(map(int, b))]
                for a, b in zip(self.xs, self.ys)
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PointSet":
        data = json.loads(text)
        xs = [pt[0] for pt in data["points"]]
        ys = [pt[1] for pt in data["points"]]
        return cls(data["n"], data["m"], data["p"], np.array(xs), np.array(ys),
                   seed=data.get("seed"))


def min_cover_degree(N: int, b: int) -> int:
    """Smallest r with t_binom(r, b) >= N; ValueError when there is none."""
    if N > 1 and b < 1:
        # t_binom(r, 0) = 1 for every r
        raise ValueError(f"no degree covers {N} points with b = {b}")
    r = 0
    while t_binom(r, b) < N:
        r += 1
    return r


def hilbert_window(N: int, n: int, m: int) -> tuple[int, int]:
    return N + n, min_cover_degree(N, m) + m + 1


def random_points(n: int, m: int, N: int, seed: int, p: int = DEFAULT_PRIME,
                  require_generic: bool = False) -> PointSet:
    """Draw N distinct normalized points from a seeded PRNG stream.

    With ``require_generic`` the whole set is redrawn until its Hilbert
    matrix is generic on the default window, at most MAX_DRAWS times; the
    number of rejected sets is recorded on the result.  A draw with a
    repeated x-part or y-part is rejected before any sweep (see
    ``is_generic_hilbert``).
    """
    if N < 1:
        raise ValueError("N must be positive")
    if p <= N:
        raise ValueError("field too small for N distinct points")
    rng = np.random.default_rng(np.random.PCG64(seed))

    def draw() -> PointSet:
        # the first N distinct draws, in order; a repeated draw is dropped
        drawn: dict[tuple, np.ndarray] = {}
        while len(drawn) < N:
            coords = rng.integers(0, p, size=n + m, dtype=np.int64)
            drawn.setdefault(tuple(coords.tolist()), coords)
        # the leading coordinate 1 of each factor goes before x1 and y1
        a = np.insert(np.array(list(drawn.values())), [0, n], 1, axis=1)
        return PointSet(n, m, p, a[:, : n + 1], a[:, n + 1:], seed=seed)

    rejects = 0
    while True:
        ps = draw()
        if not require_generic or is_generic_hilbert(ps):
            ps.rejections = rejects
            return ps
        rejects += 1
        if rejects >= MAX_DRAWS:
            raise GenericityExhausted(f"no generic configuration of {N} points "
                                      f"over GF({p}) after {MAX_DRAWS} draws")


def evaluation_matrix(ps: PointSet, degree: tuple[int, int]) -> np.ndarray:
    """N x dim S_(i,j) matrix of monomial values at the points."""
    exps = monomials(ps.n, ps.m, degree)
    out = np.ones((ps.N, len(exps)), dtype=np.int64)
    for var in range(ps.n + ps.m + 2):
        col = exps[:, var]
        top = int(col.max()) if col.size else 0
        if top == 0:
            continue
        powers = np.ones((ps.N, top + 1), dtype=np.int64)
        vals = ps.coordinate_values(var)
        for e in range(1, top + 1):
            powers[:, e] = powers[:, e - 1] * vals % ps.p
        out = out * powers[:, col] % ps.p
    return out


def ideal_piece(ps: PointSet, degree: tuple[int, int]) -> np.ndarray:
    """Row basis of the (i,j) piece of the vanishing ideal."""
    return kernel_basis(evaluation_matrix(ps, degree), ps.p)


@dataclass
class FunctionSpaces:
    """Evaluation images of every window piece, as subspaces of k^N.

    ``box`` is (r_x, r_y), the corner past which the sweep is constant
    (see the module docstring), and ``dims[i, j]`` is dim V(i,j) on the
    window.  ``cell(d)`` is an RREF row basis of V_d with its pivot
    columns, so the coordinates of a member function are just its values
    at the pivots: the point set's memoized cell at d clamped to the box.
    The basis and pivots are read-only; all saturated cells (dimension N)
    share the identity basis with pivots ``arange(N)``.
    """

    box: tuple[int, int]
    dims: np.ndarray
    _cells: dict = field(repr=False)

    def cell(self, d: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        return self._cells[(min(d[0], self.box[0]), min(d[1], self.box[1]))]


def fresh_pivots(pivots: np.ndarray, older: np.ndarray, N: int) -> np.ndarray:
    """Mask over ``pivots``: True at each pivot column not among ``older``.

    Both are RREF pivot columns in k^N, ``older`` those of a subspace; the
    rows of the larger RREF basis at the masked pivots span a complement
    of that subspace.
    """
    mask = np.ones(N, dtype=bool)
    mask[older] = False
    return mask[pivots]


def _sweep_cell(ps: PointSet, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF basis and pivots at (i,j), from the memoized cells before it."""
    cells, N = ps._cells, ps.N
    for prev in ((i - 1, j), (i, j - 1)):
        if prev in cells and len(cells[prev][1]) == N:
            # x0 = y0 = 1 embeds the neighbour, so this cell is k^N too and
            # shares the neighbour's identity basis
            return cells[prev]
    if i or j:
        if i:
            src, older, values = (i - 1, j), (i - 2, j), ps.xs
        else:
            src, older, values = (0, j - 1), (0, j - 2), ps.ys
        basis, pivots = cells[src]
        fresh = basis
        if min(older) >= 0:
            fresh = basis[fresh_pivots(pivots, cells[older][1], N)]
        if not len(fresh):
            # the source adds nothing to the cell before it, so neither do
            # its variable actions: this cell is the source
            return basis, pivots
        rows = (values.T[1:, None, :] * fresh % ps.p).reshape(-1, N)
        basis, pivots = rref_extend(basis, pivots, rows, ps.p)
    else:
        # the constant function is its own RREF basis
        basis, pivots = np.ones((1, N), dtype=np.int64), np.zeros(1, dtype=np.int64)
    basis.flags.writeable = False
    pivots.flags.writeable = False
    return basis, pivots


def _cell(ps: PointSet, d: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The memoized cell at d, swept first if the memo lacks it."""
    if d not in ps._cells:
        ps._cells[d] = _sweep_cell(ps, *d)
    return ps._cells[d]


def function_space_bases(ps: PointSet, window: tuple[int, int]) -> FunctionSpaces:
    """Read the window from the point set's cell memo, sweeping what it lacks.

    The first call finds the box corner (r_x, r_y) on column 0 and row 0.
    Cells of the window clamped to the box are then visited in row-major
    order, so every cell above and left of a missing cell is already
    memoized when it is computed.  A cell next to a saturated one is
    saturated and costs no elimination.  Otherwise, for i > 0 the source
    is (i-1,j) and the variables x1..xn; along row 0 it is (0,j-1) and
    y1..ym, starting from the constant function at (0, 0).  As x0 = 1,
    V(i,j) = V(i-1,j) + sum_k x_k * C, where C are the source's RREF rows
    at pivots that (i-2,j) lacks (every row when i = 1): those rows and
    V(i-2,j) span the source, and x_k * V(i-2,j) lies in V(i-1,j).  So the
    cell is ``rref_extend`` of the source by the products x_k * C, and is
    the source itself when C is empty.  A smaller window than an earlier
    one computes nothing; a larger one computes only its new cells inside
    the box.
    """
    if min(window) < 0:
        raise ValueError("window components must be nonnegative")
    if ps._box is None:
        ell_x, ell_y = _part_counts(ps)
        ps._box = (next(i for i in count() if len(_cell(ps, (i, 0))[1]) == ell_x),
                   next(j for j in count() if len(_cell(ps, (0, j))[1]) == ell_y))
    (wi, wj), (rx, ry) = window, ps._box
    block = np.array([[len(_cell(ps, (i, j))[1]) for j in range(min(wj, ry) + 1)]
                      for i in range(min(wi, rx) + 1)], dtype=np.int64)
    dims = block[np.ix_(np.minimum(np.arange(wi + 1), rx), np.minimum(np.arange(wj + 1), ry))]
    return FunctionSpaces((rx, ry), dims, ps._cells)


def hilbert_matrix(ps: PointSet, window: tuple[int, int]) -> np.ndarray:
    """Values rank(evaluation) on the window: the sweep's dimensions."""
    return function_space_bases(ps, window).dims


def generic_hilbert_matrix(N: int, n: int, m: int,
                           window: tuple[int, int]) -> np.ndarray:
    """min{N, dim S_(i,j)} on the window.

    dim S_(i,j) is t_binom(i, n) * t_binom(j, m); each factor is capped at N
    first, which leaves the minimum unchanged and keeps the int64 product
    small at any window.
    """
    wi, wj = window
    xs = [min(N, t_binom(i, n)) for i in range(wi + 1)]
    ys = [min(N, t_binom(j, m)) for j in range(wj + 1)]
    return np.minimum(N, np.outer(xs, ys))


def is_generic_hilbert(ps: PointSet) -> bool:
    """Whether the Hilbert matrix attains the generic values on the default window.

    The generic values reach N on column 0 and on row 0 of that window,
    while H(i, 0) and H(0, j) are at most the numbers of distinct x- and
    y-parts; so a repeated part is rejected before any sweep.
    """
    if min(_part_counts(ps)) < ps.N:
        return False
    window = hilbert_window(ps.N, ps.n, ps.m)
    return np.array_equal(hilbert_matrix(ps, window),
                          generic_hilbert_matrix(ps.N, ps.n, ps.m, window))


@dataclass(frozen=True)
class Pi1Fibration:
    """Grouping of the points by their first-factor image."""

    ell: int
    fibers: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _part_counts(ps: PointSet) -> tuple[int, int]:
    """(ell_x, ell_y): the numbers of distinct x-parts and of distinct y-parts."""
    return pi1_fibers(ps).ell, len({*map(tuple, ps.ys)})


def pi1_fibers(ps: PointSet) -> Pi1Fibration:
    order: list[tuple[int, ...]] = []
    members: dict[tuple[int, ...], list[int]] = {}
    for idx, row in enumerate(map(tuple, ps.xs)):
        if row not in members:
            members[row] = []
            order.append(row)
        members[row].append(idx)
    fibers = tuple((xv, tuple(members[xv])) for xv in order)
    return Pi1Fibration(len(order), fibers)


def decomposition_check(ps: PointSet, t: int, window: tuple[int, int]) -> bool:
    """Degreewise primary-decomposition identity for I_X ∩ <x>^t, modulo y0.

    Compares, in every window bidegree, the piece of <I_X ∩ <x>^t, y0> with
    the intersection of the pieces of <I_{X_k}, y0> over the fibers of the
    first projection and of <<x>^t, y0>.  The answer is exact for every
    t >= 0.  The identity holds for every t >= r_x, r_x the least i with
    H_X(i, 0) = ell (ell the number of fibers): at rows i >= r_x the
    spaces V_(i,j) and V_(i,j-1) defined below are direct sums over the
    fibers (the splitting step of the module docstring), so the map phi
    defined below is an isomorphism.  Below r_x the identity may fail,
    and the check then returns False.

    Below row t both sides are y0 * S_(i,j-1), so the check starts at row t,
    where the <x>^t component is all of S_d and drops out.  There it runs in
    k^N on the point set's memoized sweep.  Let V_d be the evaluation image
    of S_d, lo = V_(i,j-1) (the image of y0 * S_(i,j-1), as y0 = 1 at every
    point) and V^k the restriction of a space to the points of fiber k.
    Evaluation maps S_d onto V_d; the left-hand piece is the kernel of
    S_d -> V_d/lo and fiber k's piece is the kernel of S_d -> V^k_d/lo^k.
    The latter maps factor through phi: V_d/lo -> ⊕_k V^k_d/lo^k, so the
    left-hand piece lies in every fiber's piece for every input, and the
    identity at d holds exactly when phi is injective.  Composing each
    restriction with a basis ann_k of the annihilator of lo^k makes phi a
    matrix on a basis of V_d whose kernel is lo exactly when its rank is
    dim V_d - dim lo.  In column 0 lo = 0 and phi is the restriction to
    the points, injective because the fibers cover X; a saturated lo
    leaves V_d/lo = 0.  Neither cell needs a rank.

    The sweep is constant past its box (r_x, r_y), so only rows t up to
    max(t, r_x) and columns 1 up to r_y, within the window, are visited:
    a cell in a later row has the V_d and lo of the cell in row
    max(t, r_x) above it, and a cell in a column past r_y has V_d = lo.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if min(window) < 0:
        raise ValueError("window components must be nonnegative")
    fs = function_space_bases(ps, window)
    fibers = [list(idx) for _, idx in pi1_fibers(ps).fibers]
    (wi, wj), (rx, ry) = window, fs.box
    for i in range(t, min(wi, max(t, rx)) + 1):
        for j in range(1, min(wj, ry) + 1):
            hi, lo = fs.cell((i, j))[0], fs.cell((i, j - 1))[0]
            if len(lo) == ps.N:
                continue
            phi = np.hstack([
                matmul(hi[:, idx], kernel_basis(lo[:, idx], ps.p).T, ps.p)
                for idx in fibers
            ])
            if rank(phi, ps.p) != len(hi) - len(lo):
                return False
    return True
