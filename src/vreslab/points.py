"""Finite point sets in P^n x P^m and their bigraded vanishing ideals.

Points are stored with normalized coordinates (first coordinate of each
factor equal to 1), so evaluation of monomials is well defined and the
degreewise kernel of evaluation is automatically the saturated vanishing
ideal piece.

The Hilbert matrix comes from a sweep of the evaluation images V(i,j) of
S_(i,j) in k^N.  Because x0 = y0 = 1 at every point, V(i,j) contains
V(i-1,j) and V(i,j-1), and V(i,j) = V(i-1,j) + x_1 V(i-1,j) + ... +
x_n V(i-1,j) for i >= 1; row 0 grows the same way by y_1..y_m.

The sweep keeps each column j as a flag of blocks.  Block 0 is the RREF
basis of V(0,j); block i holds the rows that row i adds, so V(i,j) is
spanned by blocks 0..i.  Invariant: every block is the identity at its
own pivots and zero at the pivots of all earlier blocks.  Row 0 is a flag
of the same kind along y, whose block 0 is the constant function.  Block i
is the RREF of the residues, modulo V(i-1,j), of x_k * c for k = 1..n and
the rows c of block i-1.  These products suffice: V(i-1,j) is V(i-2,j)
(zero for i = 1) plus the span of block i-1, and x_k V(i-2,j) lies in
V(i-1,j).

The residues need no elimination against the flag.  Stacked, the blocks
0..i-1 restricted to their pivot columns form a block-triangular matrix
with identity diagonal blocks, so a vector of k^N has exactly one
representative modulo V(i-1,j) that vanishes at all those pivots: its
residue.  Let c be a row of block i-1 with pivot q.  By the invariant, c
vanishes at every pivot of the flag but q, and

    x_k * c = (x_k - x_k(q)) * c + x_k(q) * c.

The second term lies in V(i-1,j).  The first vanishes at q, where its
first factor does, and at every other pivot of the flag, where c does; so
it is the residue of x_k * c.  One step is one broadcast product and,
but for the fallback below, one ``fp.rref``, which reduces the products
mod p as it copies them, with no product against the basis and no
re-reduction of the old rows.  The factor lies in (-p, p) and c in
[0, p), so each product stays below 2**52 and is exact in int64.  The
residues vanish at the old pivots, so their RREF does too and its pivots
are new: the invariant holds for block i.

A step eliminates only as many residues as block i can hold.  Let d be
the flag's dimension before the step, b its number of variables and g
the size of its block 0 (1 along row 0 and in column 0 when it steps,
H(0, j) in column j).  The residues vanish at the d old pivots, so they
span at most N - d dimensions; and V(i,j) is V(i-1,j) plus the span of
the degree-i monomials in the flag's variables times V(0,j), at most
C(i + b - 1, b - 1) * g more.  So block i has at most

    B = min(N - d, C(i + b - 1, b - 1) * g)

rows.  The step first eliminates a subset of the residues, cut to its
first B rows: x_1 times every row of block i-1, then x_l, l = 2..b,
times its last C(i + b - l - 1, b - l) * g rows.  Those counts are the
degree-(i-1) monomials in x_l..x_b times g, so that on points in general
position the subset holds one product per degree-i monomial.  Its span
lies in the span of all residues, which has dimension at most B; so a
subset of rank B spans them all, and its RREF, the one RREF basis of
that span, is the block.  Only when the subset's rank falls short of B
(at a small prime, or where parts repeat) are all residues eliminated,
and the subset is formed only when it has fewer rows than the residues
and at least B, as one of fewer rows cannot reach rank B.
Along a P^1 factor (b = 1) block i-1 has at most g rows, so the subset
is every residue, cut to N - d rows at the step that saturates the
flag.

dim V(i,j) is the sum of the block sizes up to row i.  A column stops at
the first of: dimension N; an empty block, a stall, after which it is
constant (each later block is built from the empty one); the box row r_x
below; and the first row i where its left neighbour is saturated, since
V(i,j) contains V(i,j-1) = k^N.  The flags are memoized on the
``PointSet`` and grown as far as a window asks, so the genericity check,
the Hilbert matrix, the presentations, the regularity witness and the
decomposition check of one set share a single sweep, and a window grows
only the blocks no earlier window reached.

RREF cells are built only where they are read.  The RREF basis of V(i,j)
comes from that of V(i-1,j), the cell above it, and block i: the block's
pivots are cleared from the old rows, and the two row sets are merged in
pivot order (along row 0, from the cell to the left and the row's block
j).  The result is the identity on the union of the two pivot sets, and
that union is the RREF's pivot set, which is the set of leading columns
of the nonzero vectors of V(i,j): a vector u + w, with u in V(i-1,j) and
w in the span of block i, has lead(u) among the old pivots and lead(w)
among the new ones, as w vanishes at the old pivots, so the two leads
never cancel and the sum leads at the smaller.  A subspace has one basis
that is the identity on its RREF pivot set, so the merge is the RREF.  A
saturated cell is the identity.  Each cell is memoized on its flag once
read, beside the blocks it merges: a flag's cells 0..k are built in
order, so the next cell read is a merge onto the last one; a column's
cell 0 is row 0's cell j.  Hilbert values, the box and the genericity
check read only block sizes and build no RREF cell below row 0.

Blocks, too, are built only where a reader needs them, since every
dimension the sweep's control flow reads is known before the rows behind
it.  A column starts at H(0, j), read off the row flag, and holds no
block until its first flag step: its block 0, the cell (0, j), is a merge
along row 0, built for that step or when a cell of the column is read, so
a column saturated at row 0 or by its left neighbour at row 1 merges
nothing.  A flag along a P^1 factor has dimensions 1..ell (see below), so
its dimensions and its corner r = ell - 1 come from the count of distinct
parts, and its blocks are built in closed form when a cell first reads
them.  The facts about a set that several readers share are computed
once on its ``PointSet``: the part counts (ell_x, ell_y) when the set is
made, in the pass that checks its points are distinct, and the flags,
with their cells, when first read; the box is read off the lengths of
the flags of column 0 and row 0.  So a generic draw checked at
t >= r_x, such as the decomposition check from r_x, builds no block of a
P^1 column 0 and no RREF cell below row 0.

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
past the box is its clamped cell, and ``function_space_bases`` grows
only columns 0..min(wj, r_y), down to row min(wi, r_x), for a window
(wi, wj), and keeps only that block of dimensions: no array has the
window's size.  Every other dimension is the block's at the clamped
cell; ``hilbert_matrix``, which the CLI prints, is the one reader that
widens the block to the window.  Finding the corners costs at most ell_x
blocks of column 0 and ell_y blocks of row 0: a product of ell_x - 1
linear x-forms, each
through one other x-part and not through P_k, is e_k up to a scalar, so
r_x <= ell_x - 1, and likewise r_y <= ell_y - 1.

Along a P^1 factor (column 0 when n = 1, row 0 when m = 1) the flag has a
closed form, and no elimination builds it.  Coordinates are normalized, so
a part is its value v (x1 or y1).  Let xi_0, xi_1, ... be the distinct
parts in order of first appearance and q_k the first point with part
xi_k.  Block k is the single row

    N_k = (v - xi_0) * ... * (v - xi_(k-1)),

scaled to 1 at q_k, its pivot.  N_k vanishes exactly at the points whose
part is among xi_0..xi_(k-1): at every earlier pivot q_0..q_(k-1) and at
every point before q_k.  So its first nonzero is at q_k, and the block is
the identity at its own pivot and zero at all earlier ones, which is the
flag invariant.  The flag step's residue from block k-1 is
(v - v(q_(k-1))) * block_(k-1), a scalar multiple of N_k, and a one-row
RREF is unique, so the closed form is the block the step would build.
Its dimensions are 1, 2, ..., ell, and H(i) <= i + 1 along a P^1 factor,
so r = ell - 1 exactly.  The unscaled N_1..N_(ell-1) are the prefix
products of the factors (v - xi_l) mod p, taken in one pass of log2(ell)
doubling rounds over all of them at once; each product is of two residues
in [0, p), below 2**52 and exact in int64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .cox import monomials, t_binom
from .fp import DEFAULT_PRIME, FieldPrime, kernel_basis, matmul, normalize, rank, rref

# draws random_points(require_generic=True) makes before giving up
MAX_DRAWS = 100


class GenericityExhausted(Exception):
    """Raised when resampling cannot reach a generic configuration."""


@dataclass(eq=False)
class PointSet:
    """N distinct normalized points; xs is N x (n+1), ys is N x (m+1).

    Two point sets are equal when they have the same n, m and p and the
    same coordinate rows in the same order; the seed, the rejection count
    and the sweep's memo do not take part.  ``parts`` is (ell_x, ell_y),
    the numbers of distinct x-parts and y-parts, counted when the set is
    made in the pass that checks its points are distinct.  The coordinates
    are read-only, so every other fact computed from them is memoized here
    when first read: the flags of row 0 and of each column, which keep the
    RREF cells they merge and whose lengths give the box, and the box-cut
    dimension block of each window read.
    """

    n: int
    m: int
    p: int
    xs: np.ndarray
    ys: np.ndarray
    seed: int | None = None
    rejections: int = 0
    parts: tuple[int, int] = field(init=False, repr=False)
    # the sweep's memo (see the module docstring): the flags of row 0 and
    # of each column, with the RREF cells read so far
    _row: _Flag | None = field(default=None, init=False, repr=False)
    _columns: list = field(default_factory=list, init=False, repr=False)
    # the box-cut dimension block of each (rows, cols) read; flags only grow,
    # so a stored block stays right
    _dims: dict = field(default_factory=dict, init=False, repr=False)

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
        xparts, yparts = (list(map(tuple, a.tolist())) for a in (self.xs, self.ys))
        if len(set(zip(xparts, yparts))) < self.N:
            raise ValueError("points must be pairwise distinct")
        self.parts = len(set(xparts)), len(set(yparts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return ((self.n, self.m, self.p) == (other.n, other.m, other.p)
                and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys))

    @property
    def N(self) -> int:
        return self.xs.shape[0]

    @cached_property
    def _identity(self) -> tuple[np.ndarray, np.ndarray]:
        """The RREF basis and pivots of k^N, shared by every saturated cell."""
        return _read_only(np.eye(self.N, dtype=np.int64), np.arange(self.N))

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
            "points": [list(pt) for pt in zip(self.xs.tolist(), self.ys.tolist())],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PointSet":
        data = json.loads(text)
        xs = [pt[0] for pt in data["points"]]
        ys = [pt[1] for pt in data["points"]]
        return cls(data["n"], data["m"], data["p"], np.array(xs), np.array(ys),
                   seed=data.get("seed"))


@lru_cache(maxsize=1024)
def min_cover_degree(N: int, b: int) -> int:
    """Smallest r with t_binom(r, b) >= N; ValueError when there is none.
    Memoized, with a bound: every generic draw and every window of N
    points reads it."""
    if N > 1 and b < 1:
        # t_binom(r, 0) = 1 for every r
        raise ValueError(f"no degree covers {N} points with b = {b}")
    r = 0
    while t_binom(r, b) < N:
        r += 1
    return r


def generic_corner(N: int, b: int) -> int:
    """The generic corner's coordinate along a factor P^b: the least r with
    dim k[v0..vb]_r >= N, and 0 on a P^0 factor, along which the generic
    Hilbert matrix is constant (see ``is_generic_hilbert``)."""
    return min_cover_degree(N, b) if b else 0


def hilbert_window(N: int, n: int, m: int) -> tuple[int, int]:
    """The window ``vres-lab hilbert`` and ``dh`` print by default."""
    return N + n, generic_corner(N, m) + m + 1


def random_points(n: int, m: int, N: int, seed: int, p: int = DEFAULT_PRIME,
                  require_generic: bool = False) -> PointSet:
    """Draw N distinct normalized points from a seeded PRNG stream.

    Each point is n + m coordinates read from the stream in order (x1..xn,
    then y1..ym), and the set is the first N distinct points.  The points
    still missing are drawn as one batch of rows, repeats are dropped, and
    the deficit is drawn again; a batch of k rows reads the stream exactly
    as k single draws do, so the points do not depend on the batching.
    The stream is that of ``np.random.default_rng(seed)``, a ``PCG64``
    generator, and the drawn coordinates fill one array whose leading
    column of each factor is 1.  With ``require_generic`` the whole set is
    redrawn until ``is_generic_hilbert`` accepts it, at most MAX_DRAWS
    times; the number of rejected sets is recorded on the result.  A draw
    with a repeated x-part or y-part is rejected on the part counts taken
    when it is made, before any sweep; the check of an accepted draw
    leaves its sweep memoized on the set, grown over the box and no
    further (see the module docstring).
    """
    if N < 1:
        raise ValueError("N must be positive")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if n + m == 0 and N > 1:
        # P^0 x P^0 is one point, and a draw of no coordinates never differs
        raise ValueError("P^0 x P^0 holds only one point")
    if p <= N:
        raise ValueError("field too small for N distinct points")
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw() -> PointSet:
        # the first N distinct draws, in order; a repeated draw is dropped,
        # and the deficit is drawn again in one batch
        drawn: dict[tuple, None] = {}
        while len(drawn) < N:
            batch = rng.integers(0, p, size=(N - len(drawn), n + m), dtype=np.int64)
            drawn.update(dict.fromkeys(map(tuple, batch.tolist())))
        coords = np.array(list(drawn), dtype=np.int64).reshape(N, n + m)
        # the leading coordinate 1 of each factor stays before x1 and y1
        a = np.ones((N, n + m + 2), dtype=np.int64)
        a[:, 1:n + 1], a[:, n + 2:] = coords[:, :n], coords[:, n:]
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
    (see the module docstring).  ``dims[i, j]`` is dim V(i,j), read from
    the sweep's block sizes, on the window cut at the box: rows up to
    min(wi, r_x) and columns up to min(wj, r_y).  Its last cell is the
    window corner's clamped cell, and ``hilbert(rows, cols)`` reads any
    other piece through the clamp.  ``cell(d)`` is an RREF row
    basis of V_d with its pivot columns, so the coordinates of a member
    function are just its values at the pivots: the point set's cell at d
    clamped to the box, built the first time any window reads it and
    memoized on its flag.  The basis and pivots are read-only; all
    saturated cells (dimension N) share the identity basis with pivots
    ``arange(N)``.  ``block(d)`` reads the flags' blocks: the rows of cell
    (i, j) at the pivots that cell (i-1, j) lacks are block i of column j's
    flag, and along row 0 the rows of cell (0, j) at the pivots that cell
    (0, j-1) lacks are block j of the row flag, as a merge keeps the
    block's rows.
    """

    box: tuple[int, int]
    dims: np.ndarray
    _ps: PointSet = field(repr=False)

    def cell(self, d: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        return _cell(self._ps, (min(d[0], self.box[0]), min(d[1], self.box[1])))

    def block(self, d: tuple[int, int], along_row: bool = False) -> tuple | None:
        """The flag block at d, as (rows, pivots), or None where no block is
        stored.  In a column it is block i of column j's flag (clamped to
        the box), the rows that V(i,j) adds to V(i-1,j), and at i = 0 the
        cell (0, j); ``along_row`` reads block j of row 0's flag, the rows
        that V(0,j) adds to V(0,j-1), at i = 0.  The rows are the identity at
        their pivots and zero at every pivot of the cell before them, and a
        merge keeps them as the rows of cell d at its fresh pivots.  None
        past the flag's end and, in a column, from the row at which its left
        neighbour saturates it, as no step builds a block there."""
        ps = self._ps
        if along_row:
            flag, k = ps._row, d[1]
        else:
            j, k = min(d[1], self.box[1]), d[0]
            if not k:
                return self.cell((0, j))
            flag = ps._columns[j]
        return flag.blocks[k] if k < len(flag.blocks) else None

    def hilbert(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """dim V(i,j) for i in ``rows`` and j in ``cols``, through the clamp
        V(i,j) = V(min(i, r_x), min(j, r_y)); the indices lie in the window."""
        return self.dims[np.minimum(rows, self.box[0])[:, None], np.minimum(cols, self.box[1])]


@dataclass(eq=False)
class _Flag:
    """One column of the sweep, or row 0, as a flag of blocks and the
    RREF cells they merge into.

    ``blocks[k]`` is what step k adds, as (rows, pivots): rows that are
    the identity at their own pivots and zero at the pivots of every
    earlier block; block 0 is an RREF cell.  ``dims[k]`` is the dimension
    of the span of blocks 0..k, and it is known before the blocks are
    built: a column holds no block until its first flag step (``_sweep``),
    and none from a step at which a left neighbour saturates it, and the
    blocks of a flag along a P^1 factor are given as a function that builds
    them in closed form when they are first read (``_line_flag``).
    ``cells[k]`` is the RREF cell of the span of blocks 0..k, V(k, j) in
    column j and V(0, k) along row 0, appended by ``_cell`` when first
    read, so the cells built are always 0..len(cells) - 1; a column's cell
    0 is row 0's cell j.  ``values`` are the coordinates of the factor the
    flag grows along.
    """

    values: np.ndarray
    _blocks: object = field(repr=False)
    dims: list
    cells: list = field(default_factory=list, repr=False)

    @property
    def blocks(self) -> list:
        if callable(self._blocks):
            self._blocks = self._blocks()
        return self._blocks

    def dim(self, k: int) -> int:
        """Dimension at step k; a stopped flag is constant past its end."""
        return self.dims[min(k, len(self.dims) - 1)]

    def stopped(self, N: int) -> bool:
        """Whether the flag is saturated or has stalled on an empty block."""
        return self.dims[-1] == N or (len(self.dims) > 1 and self.dims[-1] == self.dims[-2])


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _flag_step(flag: _Flag, p: int) -> None:
    """Append the block that the flag's variables add to its newest block.

    A row c of the newest block with pivot q vanishes at every other pivot
    of the flag, so (x_k - x_k(q)) * c, congruent to x_k * c modulo the
    flag's span, vanishes at all of them and is its own residue (see the
    module docstring); the new block is the RREF of these products.  It has
    at most B = min(N - d, C(k + b, b - 1) * g) rows, for d the flag's
    dimension, b its number of variables, k the index of its newest block
    and g = dims[0], so a subset of the residues cut to B rows is
    eliminated first: x_1 times every row of the newest block, then x_l,
    l = 2..b, times its last C(k + b - l, b - l) * g rows.  A subset of
    rank B spans every residue, and its RREF is the block.  Every residue
    is eliminated instead when the subset has fewer than B rows, or no
    fewer rows than the residues, and after it when its rank falls short
    of B.  Along a P^1 factor the product is taken over the rows cut to B
    alone, in two dimensions.
    """
    rows, pivots = flag.blocks[-1]
    (r, N), vals = rows.shape, flag.values.T[1:]
    b, room = len(vals), N - flag.dims[-1]
    # factors in (-p, p) times rows in [0, p): below 2**52, exact in int64;
    # rref reduces them mod p in the one copy it makes of its input
    if b == 1:
        # B = min(N - d, g) and r <= g, so the subset is the first B residues
        size = min(room, r)
        v = vals[0]
        R, fresh = rref((v - v[pivots[:size], None]) * rows[:size], p)
        if len(fresh) < size < r:
            R, fresh = rref((v - v[pivots, None]) * rows, p)
    else:
        # widths[s] = g * C(k + s, s): the degree-k monomials in the last
        # s + 1 variables times V(0, j), which sum to g * C(k + b, b - 1)
        k, widths = len(flag.blocks) - 1, [flag.dims[0]]
        for s in range(1, b):
            widths.append(widths[-1] * (k + s) // s)
        bound = min(room, sum(widths))
        takes = [r] + [min(r, w) for w in widths[-2::-1]]
        # a subset of fewer than B rows would fall short
        proper = bound < b * r and bound <= sum(takes)
        products = (vals[:, None, :] - vals[:, pivots, None]) * rows
        if proper:
            subset = np.concatenate([products[l, r - c:] for l, c in enumerate(takes)])
            R, fresh = rref(subset[:bound], p)
        if not proper or len(fresh) < bound:
            # every residue: no proper subset, or one that falls short of B
            R, fresh = rref(products.reshape(-1, N), p)
    flag.blocks.append((R[: len(fresh)], np.array(fresh, dtype=np.int64)))
    flag.dims.append(flag.dims[-1] + len(fresh))


def _line_flag(values: np.ndarray, ell: int, origin: tuple, p: int) -> _Flag:
    """The flag along a P^1 factor with ell distinct parts: dimensions
    1..ell, and blocks in closed form (``_line_blocks``) when first read."""
    return _Flag(values, lambda: _line_blocks(values, origin, p), list(range(1, ell + 1)))


def _line_blocks(values: np.ndarray, origin: tuple, p: int) -> list:
    """The blocks of the flag along a P^1 factor, in closed form.

    Block k is the product of (v - xi) over the first k distinct parts xi
    of the factor, scaled to 1 at the first point of part k, its pivot
    (see the module docstring).  Row l of one (ell - 1) x N array starts
    as (v - xi_l) mod p, and log2(ell) rounds of doubling turn the rows
    into their prefix products N_1..N_(ell-1); one broadcast then scales
    each at its pivot.
    """
    v = values[:, 1]
    firsts = np.sort(np.unique(v, return_index=True)[1])
    rows, pivots = (v - v[firsts[:-1], None]) % p, firsts[1:]
    s = 1
    while s < len(rows):
        # factors in [0, p): every product is below 2**52, exact in int64
        rows[s:] = rows[s:] * rows[:-s] % p
        s *= 2
    leads = rows[np.arange(len(rows)), pivots].tolist()
    rows = rows * np.array([pow(c, -1, p) for c in leads], dtype=np.int64)[:, None] % p
    return [origin] + [(rows[k:k + 1], pivots[k:k + 1]) for k in range(len(rows))]


def regularity_box(ps: PointSet) -> tuple[int, int]:
    """(r_x, r_y), the corner of the sweep's box (see the module docstring):
    the lengths of the flags of column 0 and row 0, less one.

    The first call grows column 0 until it reaches ell_x dimensions and
    row 0 until it reaches ell_y, and gives row 0 its cell 0, the constant
    function.  Along a P^1 factor the dimensions are 1..ell, so the corner
    there is ell - 1, read off the set's part count, and the flag's blocks
    wait until a cell reads them.  No reader grows column 0 past the box
    row, so its length stays r_x + 1.
    """
    if ps._row is None:
        origin = _read_only(np.ones((1, ps.N), dtype=np.int64), np.zeros(1, dtype=np.int64))
        flags = []
        for factor, values, ell in zip("xy", (ps.xs, ps.ys), ps.parts):
            if values.shape[1] == 2:
                flag = _line_flag(values, ell, origin, ps.p)
            else:
                flag = _Flag(values, [origin], [1])
                while flag.dims[-1] < ell:
                    _flag_step(flag, ps.p)
                    # the dimensions of ell distinct parts rise until they
                    # reach ell, so a stalled step is a fault, not a box
                    if flag.dims[-1] == flag.dims[-2]:
                        raise AssertionError(f"flag step along the {factor} factor stalled:"
                                             f" dims {flag.dims} below ell = {ell}")
            flags.append(flag)
        ps._columns, ps._row = [flags[0]], flags[1]
        ps._row.cells.append(origin)
    return len(ps._columns[0].dims) - 1, len(ps._row.dims) - 1


def _sweep(ps: PointSet, rows: int, cols: int) -> list[_Flag]:
    """Flags of columns 0..cols, each grown down to row ``rows`` or until it stops.

    Column j starts at dimension H(0, j), read off the row flag, with no
    block: its block 0, the RREF cell (0, j), is a merge along row 0, built
    for the column's first flag step (or by ``_cell`` when a cell of the
    column is read).  A column grows one block per row until it reaches N,
    stalls, or meets a row where its left neighbour is saturated; ``rows``
    is at most the box row.
    """
    N, columns = ps.N, ps._columns
    columns += [_Flag(ps.xs, [], [ps._row.dims[j]]) for j in range(len(columns), cols + 1)]
    for j, flag in enumerate(columns[: cols + 1]):
        while len(flag.dims) <= rows and not flag.stopped(N):
            if j and columns[j - 1].dim(len(flag.dims)) == N:
                # V(i, j) contains V(i, j-1) = k^N
                flag.dims.append(N)
            else:
                if not flag.blocks:
                    flag.blocks.append(_cell(ps, (0, j)))
                _flag_step(flag, ps.p)
    return columns[: cols + 1]


def _merge(cell: tuple, block: tuple, p: int) -> tuple[np.ndarray, np.ndarray]:
    """RREF basis and pivots of the span of an RREF cell and a block that
    vanishes at the cell's pivots: the block's pivots are cleared from the
    cell's rows, and the two row sets are merged in pivot order, which is
    the old rows and then the block's when every fresh pivot follows the
    cell's last."""
    (basis, pivots), (rows, fresh) = cell, block
    old = (basis - matmul(basis[:, fresh], rows, p)) % p
    stacked, merged = np.vstack([old, rows]), np.concatenate([pivots, fresh])
    if fresh[0] < pivots[-1]:
        order = np.argsort(merged)
        stacked, merged = stacked[order], merged[order]
    return _read_only(stacked, merged)


def _cell(ps: PointSet, d: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The RREF cell at d inside the box: cell i of column j's flag, or
    cell j of row 0's at i = 0, filling the flag's cells forward from the
    last one built.  Column j is grown through ``_sweep`` only when its flag
    neither reaches row i nor has stopped."""
    i, j = d
    held = j < len(ps._columns) and (len(ps._columns[j].dims) > i or ps._columns[j].stopped(ps.N))
    flag = ps._row if not i else ps._columns[j] if held else _sweep(ps, i, j)[j]
    cells = flag.cells
    if not cells:
        # a column's cell 0 is row 0's cell j
        cells.append(_cell(ps, (0, j)))
    # past a stopped flag's end the cell is the one at its end
    k = min(i or j, len(flag.dims) - 1)
    cell = cells[-1]
    for r in range(len(cells), k + 1):
        if flag.dims[r] == ps.N:
            cell = ps._identity
        elif flag.dims[r] > flag.dims[r - 1]:
            cell = _merge(cell, flag.blocks[r], ps.p)
        cells.append(cell)
    return cells[k]


def function_space_bases(ps: PointSet, window: tuple[int, int]) -> FunctionSpaces:
    """The window's dimensions, cut at the box, from the point set's flags,
    growing what they lack.

    The box corner (r_x, r_y) comes from ``regularity_box``.  Columns
    0..min(wj, r_y) are then grown down to row min(wi, r_x), left to right
    so that each column's left neighbour is known when it is grown, and
    dim V(i,j) is the sum of column j's block sizes up to row i; that
    block is ``dims``, whatever the window's size.  No RREF cell below row
    0 is built here: ``cell(d)`` builds one when it is read.  The block is
    memoized on the set per cut (rows, columns), read-only: flags only
    grow forward, so a stored block stays right, and a window cut to a
    block read before returns it with no call to ``_sweep``.  A smaller
    window than an earlier one computes no block of flags; a larger one
    grows only the blocks no earlier window reached.
    """
    if min(window) < 0:
        raise ValueError("window components must be nonnegative")
    (wi, wj), (rx, ry) = window, regularity_box(ps)
    cut = rows, cols = min(wi, rx), min(wj, ry)
    block = ps._dims.get(cut)
    if block is None:
        # a column that stopped above row ``rows`` keeps its last dimension
        block = np.array([flag.dims[: rows + 1] + flag.dims[-1:] * (rows + 1 - len(flag.dims))
                          for flag in _sweep(ps, rows, cols)], dtype=np.int64).T
        ps._dims[cut] = _read_only(block)[0]
    return FunctionSpaces((rx, ry), block, ps)


def hilbert_matrix(ps: PointSet, window: tuple[int, int]) -> np.ndarray:
    """Values rank(evaluation) on the window: the sweep's dimensions, widened
    from the box-cut block through the clamp, so the array has the window's
    size."""
    wi, wj = window
    return function_space_bases(ps, window).hilbert(np.arange(wi + 1), np.arange(wj + 1))


@lru_cache(maxsize=64)
def generic_hilbert_matrix(N: int, n: int, m: int,
                           window: tuple[int, int]) -> np.ndarray:
    """min{N, dim S_(i,j)} on the window, as a read-only array.

    dim S_(i,j) is t_binom(i, n) * t_binom(j, m); each factor is capped at N
    first, which leaves the minimum unchanged and keeps the int64 product
    small.  Memoized, with a bound, so the array is shared; every library
    caller passes a window bounded by N or by the Betti box: the generic
    corner, ``mrc_window`` and the region of a presentation's live cells.
    """
    xs = [min(N, t_binom(i, n)) for i in range(window[0] + 1)]
    ys = [min(N, t_binom(j, m)) for j in range(window[1] + 1)]
    return _read_only(np.minimum(N, np.outer(xs, ys)))[0]


def is_generic_hilbert(ps: PointSet) -> bool:
    """Whether the Hilbert matrix is generic: H = G, G(i,j) = min{N, dim S_(i,j)}.

    The rule reads the set's part counts, then compares the sweep's block
    at the generic corner (c_x, c_y), c_x = generic_corner(N, n) and
    c_y = generic_corner(N, m) (0 for a P^0 factor), with G there.  A
    generic set's box (r_x, r_y) is that corner, so the block is the box's.
    The rule decides as comparing H with G on any window that holds the
    corner does, such as (N + n, N + m), as c_x <= N - 1.

    - G(c_x, 0) = N for n >= 1 and G(0, c_y) = N for m >= 1, while
      H(i, 0) <= ell_x and H(0, j) <= ell_y, as a form in x alone takes one
      value on the points of one x-part.  So a generic set has N distinct
      parts on every factor P^b with b >= 1, and a set with a repeated part
      there is rejected on its counts, before any sweep.  A P^0 factor has
      one part, and G and H are constant along it (G(i, j) = G(i, 0) for
      m = 0), so its corner and its box coordinate are both 0, and its
      part count is not read.
    - With ell_x = N, r_x is the least i with H(i, 0) = N and c_x the least
      i with G(i, 0) = N.  H <= G everywhere, as V(i,j) lies in k^N and is
      the image of S_(i,j), so r_x >= c_x, and the block cut at the box is
      the whole corner block.  A box past the corner in x, r_x > c_x,
      differs from G at (c_x, 0), where G is N and H is not, a cell of the
      corner block and of every window holding the corner; row 0 likewise.
      So agreement on the corner puts the box at the corner, and both
      comparisons fail on a box off it.
    - On a box at the corner, H is clamped past it,
      H(i,j) = H(min(i, r_x), min(j, r_y)) (see the module docstring), and
      G is clamped at the corner too: it is N at every i >= c_x for n >= 1
      and at every j >= c_y for m >= 1, and constant along a P^0 factor.
      So H = G on the corner exactly when H = G on any window holding it.

    The sweep grows no column past c_y and no row past c_x, even where the
    box lies further out, and no array has a window's size.
    """
    factors = ps.n, ps.m
    if any(b and ell < ps.N for b, ell in zip(factors, ps.parts)):
        return False
    corner = tuple(generic_corner(ps.N, b) for b in factors)
    return np.array_equal(function_space_bases(ps, corner).dims,
                          generic_hilbert_matrix(ps.N, ps.n, ps.m, corner))


@dataclass(frozen=True)
class Pi1Fibration:
    """The first projection's image: ``ell`` distinct x-parts."""

    ell: int


def pi1_fibers(ps: PointSet) -> Pi1Fibration:
    """The number of fibers of the first projection, one per distinct x-part."""
    return Pi1Fibration(ps.parts[0])


def decomposition_check(ps: PointSet, t: int, window: tuple[int, int]) -> bool:
    """Degreewise primary-decomposition identity for I_X ∩ <x>^t, modulo y0.

    Compares, in every window bidegree, the piece of <I_X ∩ <x>^t, y0> with
    the intersection of the pieces of <I_{X_k}, y0> over the fibers X_k of
    the first projection and of <<x>^t, y0>.  The answer is exact for every
    t >= 0; it is True for every t >= r_x, and it may be False below.

    Below row t both sides are y0 * S_(i,j-1), so the check starts at row t,
    where the <x>^t component is all of S_d and drops out.  Evaluation maps
    S_(i,j) onto V(i,j) and y0 * S_(i,j-1) onto V(i,j-1), as y0 = 1 at
    every point; so the left piece is the kernel of S_(i,j) ->
    V(i,j)/V(i,j-1), and fiber k's is the kernel of the same map followed
    by the restriction to X_k.  Restricted to X_k, f in S_(i,j) is the
    y-form f(P_k, y), and x0^i * g is g, so V(i,j) and V(i,j-1) restrict to
    W^k_j and W^k_(j-1), the images of k[y]_j and k[y]_(j-1) on X_k, for
    every i.  By the splitting step of the module docstring the direct sum
    of the W^k_j is V(r_x, j).  The fibers' pieces therefore meet in the
    kernel of S_(i,j) -> V(r_x, j)/V(r_x, j-1), and the identity holds at
    (i, j) exactly when the map V(i,j)/V(i,j-1) -> V(r_x,j)/V(r_x,j-1)
    induced by inclusion is injective, that is, when V(i,j) ∩ V(r_x, j-1)
    is V(i,j-1), or

        rank [V(i,j); V(r_x, j-1)] = H(i,j) + H(r_x, j-1) - H(i,j-1).

    The map is the identity at rows i >= r_x, and its source is zero where
    H(i,j) = H(i,j-1): in every column past r_y, and wherever V(i,j-1) is
    saturated.  In column 0 the y0 term is absent and the map is an
    inclusion.  So only rows t..r_x - 1 are read, and at t >= r_x the check
    ranks nothing and reads only the box corner: it grows no flag and
    builds no RREF cell below row 0.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if min(window) < 0:
        raise ValueError("window components must be nonnegative")
    if t >= regularity_box(ps)[0]:
        return True  # no row t..r_x - 1 to read, so no flag to grow
    fs = function_space_bases(ps, window)
    H, rx = fs.dims, fs.box[0]
    for i, j in (np.argwhere(H[t:rx, 1:] > H[t:rx, :-1]) + (t, 1)).tolist():
        below = fs.cell((rx, j - 1))[0]
        stacked = np.vstack([fs.cell((i, j))[0], below])
        if rank(stacked, ps.p) != H[i, j] + len(below) - H[i, j - 1]:
            return False
    return True
